"""
Koszul N-complexes of a morphism
================================

A morphism f between N-homogeneous algebras induces two families of
N-complexes, K(f) and L(f), whose differential satisfies d^N = 0.  For
N = 2 these are ordinary chain complexes; for larger N the homology
comes in N-1 flavours, one for each power p of the differential.
"""

from nkoszul import (ConvolutionContext, GradedMap, Morphism,
                     generalized_homology, koszul_K, koszul_L, lemma2_check,
                     rng_from_seed, random_algebra, random_isomorphism,
                     random_rank_deficient_morphism, symmetric_algebra)

poly = symmetric_algebra(2, gen_names=["x", "y"])
ident = Morphism.identity(poly)

# Each slice of K(id) is a finite complex, one position per way of
# splitting the total degree.  d^N = 0 is verified position by position.
for n in range(5):
    s = koszul_K(ident, n)
    s.verify_dN()
    print("slice %d dims %r" % (n, [p.dim for p in s.positions]))
print()

# Degree 0 carries exactly one dimension of homology; every positive
# slice of the polynomial algebra is exact (the classical Koszul
# resolution).
for n in range(3):
    dims = generalized_homology(koszul_K(ident, n), 1)
    nonzero = {key: dim for key, dim in dims.items() if dim}
    print("slice %d homology %r" % (n, nonzero))
print()

# The slices N-1 and N detect isomorphisms: both are acyclic exactly
# when f is one-to-one and onto.
rng = rng_from_seed(0)
A = random_algebra(2, 3, rng, dim_r=4)
iso = random_isomorphism(A, rng)
sing = random_rank_deficient_morphism(A, rng)
print("isomorphism     :", lemma2_check(iso))
print("singular map    :", lemma2_check(sing))
print()

# Behind d^N = 0 is the degree-1 element xi_f of B^! o C that a morphism
# f: B -> C defines: its N-th power in the convolution algebra vanishes,
# for every f.
for f in (iso, sing):
    xi = GradedMap.from_morphism(f)
    ctx = ConvolutionContext(f.source, f.target)
    N = f.source.N
    if not ctx.convolution_power(xi, N, N).is_zero():
        raise SystemExit("xi_f^N is not zero")

# L(f) organizes the same data into chains of constant degree shift.
for chain in koszul_L(ident, 4):
    chain.verify_dN()
    dims = [chain.position_dim(k) for k in range(len(chain.positions))]
    if any(dims):
        print("shift %2d dims %r" % (chain.delta, dims))
