"""
Reduction operators and two-sided stability
===========================================

A relation space R in degree N defines a rewrite operator S: it fixes
every word that is not the leading word of a relation, and rewrites each
leading word into strictly smaller ones.  S is idempotent, its kernel is
exactly R, and tensoring with the identity reduces longer words.
"""

from nkoszul import (QQ, Subspace, lemma3_check, monomial_rotation_closure,
                     reduction_operator, symmetric_algebra, word_index,
                     word_speller)

poly = symmetric_algebra(2, gen_names=["x", "y"])
names = poly.gen_names
spell = word_speller(names, 2)

op = reduction_operator(poly.relations)
print("leading words:", [spell(w) for w in op.leading_words])
# S fixes every word it does not rewrite; those words span Im(S)
fixed = [w for w in range(poly.relations.ambient_dim) if w not in op.rewrites]
print("fixed words  :", [spell(w) for w in fixed])
print()

# Rewriting y.x: the relation x.y - y.x sends it to x.y.  Vectors are
# sparse dicts {word index: coefficient}.
out = op.apply({word_index((1, 0), 2): QQ.one})
terms = ["%s %s" % (c, spell(w)) for w, c in sorted(out.items())]
print("S(y.x) =", " + ".join(terms))
print()

# Idempotence and the kernel property hold by construction and are
# re-verified every time an operator is built.
twice = op.apply(out)
print("S(S(y.x)) equals S(y.x):", twice == out)
print()

# A relation space that commutes with one extra tensor slot is forced to
# be 0 or everything.  Monomial examples show the dichotomy directly:
# the rotation closure of a proper set of words always escapes it.
full = Subspace.full(QQ, 4)
zero = Subspace.zero(QQ, 4)
print("R = 0        :", lemma3_check(zero, 1, 2))
print("R = all words:", lemma3_check(full, 1, 2))
print("R = span(x.y):", lemma3_check(
    Subspace.from_vectors(QQ, 4, [{1: 1}]), 1, 2))
print()

closure = monomial_rotation_closure([(0, 1)], 1, 2)
print("rotation closure of {x.y}:",
      sorted(".".join(names[letter] for letter in word)
             for word in closure))
