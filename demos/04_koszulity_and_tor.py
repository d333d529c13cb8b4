"""
Koszulity and Tor
=================

Contracting the Koszul N-complex of an algebra with alternating powers
d^p, d^{N-p} gives an ordinary complex C_{p,r}.  The algebra is Koszul
when C_{N-1,0} is exact in every positive homological degree.  The same
verdict reads off Tor: Koszulity is equivalent to each Tor_i being
concentrated in one "pure" degree.  Where C_{N-1,0} is exact it is the
minimal resolution, and Tor is read off it; from its first failure up,
Tor comes from the bar complex.
"""

from pathlib import Path

from nkoszul import (ContractedComplex, koszulity_check, parse_definition,
                     symmetric_algebra, tor_dims, tor_pure_degree, tor_purity,
                     verdict_string)

HERE = Path(__file__).parent


def load(name):
    path = HERE / "definitions" / name
    return parse_definition(path.read_text(), source=name).to_algebra()


poly = symmetric_algebra(2, gen_names=["x", "y"])
cubic = load("cubic.alg")
pair = load("cubic_pair.alg")

for name, A in (("K[x,y]", poly), ("one cubic relation", cubic),
                ("two monomial cubics", pair)):
    verdict = koszulity_check(A, 2 * A.N + 2)
    print("%-20s %s" % (name, verdict_string(verdict)))
print()

# The contracted complex of the two-relation algebra fails to be exact:
# homology in positive steps is already visible in low total degree.
cx = ContractedComplex(pair, 2, 0)
for t in range(9):
    for i in (1, 2):
        h = cx.homology_dim(i, t)
        if h:
            print("two cubics: homology at step %d, total degree %d has dim %d"
                  % (i, t, h))
print()

# Tor of the polynomial algebra is pure: Tor_i lives only in the single
# degree allowed for it.  Tor_2 always sits in degree N with dimension
# equal to the number of independent relations.
table = tor_dims(poly, 3, 6)
for (i, t), dim in sorted(table.items()):
    if dim:
        print("Tor_%d in degree %d: dim %d (pure degree is %d)"
              % (i, t, dim, tor_pure_degree(i, poly.N)))
print()

# Tor gives the same verdicts.  The polynomial algebra's table is read off
# its exact Koszul complex.  The failing algebra's comes from the bar
# complex from degree 5 up, and shows a Tor class outside its pure degree.
pure_poly, _ = tor_purity(poly, 3, 6)
pure_pair, pair_table = tor_purity(pair, 4, 6)
print("polynomial algebra pure :", pure_poly)
print("two monomial cubics pure:", pure_pair)
offenders = {(i, t): d for (i, t), d in pair_table.items()
             if d and t != tor_pure_degree(i, pair.N)}
print("impurities (i, degree)  :", offenders)
