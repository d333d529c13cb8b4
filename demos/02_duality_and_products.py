"""
Dual algebras and the two products
==================================

Every N-homogeneous algebra A has a dual A^! living on the dual
generators: its relations are the vectors orthogonal to the relations of
A.  Duality squares to the identity and exchanges the two tensor-type
products `circ` and `bullet`.
"""

from nkoszul import (bullet, circ, definition_from_algebra, prop1_check,
                     serialize_definition, symmetric_algebra)

poly = symmetric_algebra(2, gen_names=["x", "y"])
exterior = poly.dual()

# The dual of the polynomial algebra is the exterior algebra: one
# dimension in degrees 0..2, nothing above.
print("dims of K[x,y]    ", poly.hilbert_dims(5))
print("dims of its dual  ", exterior.hilbert_dims(5))
print()

# Its presentation can be serialized back to a definition file.
print(serialize_definition(definition_from_algebra(exterior)))

# Duality is an involution: the double dual is the original algebra,
# with equality of relation spaces in canonical form.
print("double dual equals the original:", exterior.dual() == poly)
print()

# circ and bullet are products on algebras with the same relation
# degree.  The circ product has the Hilbert series of the slice-wise
# tensor product, and duality exchanges the two products.
A = poly
B = poly.dual()
product = circ(A, B)
print("dims of circ(A, B)", product.hilbert_dims(5))
print("slice-wise products match:", prop1_check(A, B, 5))
print("dual exchanges the products:",
      circ(A, B).dual() == bullet(A.dual(), B.dual()))
