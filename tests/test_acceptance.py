"""Acceptance gate: ten end-to-end guarantees, one PASS/FAIL line each.

Every check is exact (rational or prime-field arithmetic), every seed is
fixed, so each run either reproduces the same PASS lines or fails loudly.
Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import subprocess
import sys
from itertools import combinations

from nkoszul.algebra import (Morphism, bullet, circ, free_algebra,
                             full_relations_algebra, prop1_check,
                             symmetric_algebra)
from nkoszul.errors import ContractViolation
from nkoszul.fields import PrimeField, QQ
from nkoszul.koszul import (ContractedComplex, generalized_homology,
                            koszul_K, koszul_L, koszulity_check,
                            lemma2_check, slice_acyclic, tor_pure_degree)
from nkoszul.linalg import Subspace
from nkoszul.reduction import lemma3_check, reduction_operator
from nkoszul.sampling import (random_algebra, random_isomorphism,
                              random_rank_deficient_morphism, random_subspace,
                              rng_from_seed)
from nkoszul.words import block_embed
from oracles import (DenseMatrix, convolution_check, kron, operator_matrix,
                     random_full_rank_non_isomorphism, reference_tor_dims)


def _verdict(number, ok):
    print("ACCEPTANCE %d: %s" % (number, "PASS" if ok else "FAIL"))
    assert ok, "acceptance check %d failed" % number


def _field_for(dim_e, degree):
    # mid-size rational draws grow 100-digit entries; see sampling docs
    return QQ if dim_e ** degree <= 9 else PrimeField(32003)


# -- 1: d^N = 0 on every materialized slice -------------------------------

_BUDGET = 250_000


class _TooExpensive(Exception):
    pass


def _generic_dims(g, N, r, n_max):
    """Hilbert dims a generic rank-r relation space would produce."""
    dims = []
    for n in range(n_max + 1):
        if n < N:
            dims.append(g ** n)
        else:
            dims.append(max(0, g * dims[n - 1] - r * dims[n - N]))
    return dims


def _build_work(g, dims):
    # elimination cost: rows examined times rows removed, per degree
    total = 0
    for n in range(1, len(dims)):
        rows = g * dims[n - 1]
        total += rows * (rows - dims[n])
    return total


def _window_work(dims, N, g):
    # cost of driving basis vectors across each all-alive window
    total = 0
    for k in range(len(dims) - N):
        win = dims[k:k + N + 1]
        if 0 in win:
            continue
        total += min(win[0], win[-1]) * sum(win[1:-1]) * g
    return total


def _verification_work(g, N, a, b, bound):
    work = _build_work(g, a) + _build_work(g, b)
    for n in range(bound + 1):
        dims = [a[k] * b[n - k] if n - k <= bound else 0
                for k in range(n + 1)]
        work += _window_work(dims, N, g)
    for delta in range(-bound, bound + 1):
        lo, hi = max(0, -delta), min(bound, bound - delta)
        dims = [b[m] * a[m + delta] for m in range(lo, hi + 1)]
        work += _window_work(dims, N, g)
    return work


def _metered_dims(algebra, bound, budget):
    dims = [algebra.dim(0)]
    spent = 0
    for n in range(1, bound + 1):
        d = algebra.dim(n)
        rows = algebra.dim_e * dims[-1]
        spent += rows * (rows - d)
        dims.append(d)
        if spent > budget:
            raise _TooExpensive
    return dims


def _draw_algebra(rng):
    """A random algebra whose full slice sweep fits the work budget."""
    while True:
        g = rng.randint(1, 3)
        N = rng.randint(2, 4)
        bound = 2 * N + 2
        if (g, N) == (3, 4):
            # mid-range ranks here cost tens of seconds per tower build
            dim_r = rng.choice((0, 81))
        else:
            dim_r = rng.randint(0, g ** N)
        ga = _generic_dims(g, N, dim_r, bound)
        gb = _generic_dims(g, N, g ** N - dim_r, bound)
        if _verification_work(g, N, ga, gb, bound) > _BUDGET:
            continue
        A = random_algebra(g, N, rng, field=_field_for(g, N), dim_r=dim_r)
        try:
            a = _metered_dims(A, bound, _BUDGET)
            b = _metered_dims(A.dual(), bound, _BUDGET)
        except _TooExpensive:
            continue
        if _verification_work(g, N, a, b, bound) > _BUDGET:
            continue
        return A, bound


def test_nth_power_of_differential_vanishes():
    rng = rng_from_seed(1)
    ok = True
    for _ in range(200):
        A, bound = _draw_algebra(rng)
        ident = Morphism.identity(A)
        try:
            for n in range(bound + 1):
                koszul_K(ident, n).verify_dN()
            for chain in koszul_L(ident, bound):
                chain.verify_dN()
        except ContractViolation:
            ok = False
            break
    _verdict(1, ok)


# -- 2: degree-0 slice carries one dimension of homology ------------------

def test_degree_zero_slice_homology_is_the_scalars():
    rng = rng_from_seed(2)
    morphisms = [Morphism.identity(A) for A in
                 (free_algebra(2, 3), full_relations_algebra(2, 3),
                  symmetric_algebra(2), full_relations_algebra(1, 3))]
    for _ in range(5):
        g, N = rng.randint(1, 3), rng.randint(2, 4)
        A = random_algebra(g, N, rng, field=_field_for(g, N))
        morphisms.append(random_isomorphism(A, rng))
        morphisms.append(random_rank_deficient_morphism(A, rng))
    ok = True
    for f in morphisms:
        slice0 = koszul_K(f, 0)
        for p in range(1, f.source.N):
            report = generalized_homology(slice0, p)
            if list(report.values()) != [1]:
                ok = False
    _verdict(2, ok)


# -- 3: slices N-1 and N are acyclic exactly for isomorphisms -------------

def test_slice_acyclicity_detects_isomorphisms():
    rng = rng_from_seed(3)
    ok = True
    for _ in range(50):
        g, N = rng.randint(1, 3), rng.randint(2, 4)
        A = random_algebra(g, N, rng, field=_field_for(g, N))
        if lemma2_check(random_isomorphism(A, rng)) != (True, True, True):
            ok = False
    for i in range(50):
        g, N = rng.randint(1, 3), rng.randint(2, 4)
        A = random_algebra(g, N, rng, field=_field_for(g, N))
        f = None
        if i % 2 == 0:
            f = random_full_rank_non_isomorphism(A, rng)
        if f is None:
            f = random_rank_deficient_morphism(A, rng)
        a1, a2, iso = lemma2_check(f)
        if (a1 and a2) or iso:
            ok = False
    _verdict(3, ok)


# -- 4: slice N+1 obstructs every proper relation space -------------------

def test_slice_above_n_never_acyclic_for_proper_relations():
    rng = rng_from_seed(4)
    ok = True
    for dim_r in range(1, 8):
        for _ in range(20):
            A = random_algebra(2, 3, rng, dim_r=dim_r)
            if slice_acyclic(koszul_K(Morphism.identity(A), 4)):
                ok = False
    for A in (free_algebra(2, 3), full_relations_algebra(2, 3)):
        ident = Morphism.identity(A)
        if not all(slice_acyclic(koszul_K(ident, n)) for n in range(2, 9)):
            ok = False
    _verdict(4, ok)


# -- 5: contracted complexes with p < N-1 or r > 0 fail at degree 1 -------

def test_contracted_complex_inexact_except_top_left():
    rng = rng_from_seed(5)
    ok = True
    for (p, r) in ((1, 0), (2, 1)):
        for _ in range(20):
            A = random_algebra(2, 3, rng, dim_r=rng.randint(1, 7))
            cx = ContractedComplex(A, p, r)
            if not any(cx.homology_dim(1, t) for t in range(9)):
                ok = False
    for N in (2, 3, 4):
        algebras = [free_algebra(2, N), full_relations_algebra(2, N),
                    random_algebra(2, N, rng, field=_field_for(2, N),
                                   dim_r=2 ** (N - 1))]
        for A in algebras:
            for r in range(N - 1):
                for p in range(r + 1, N):
                    cx = ContractedComplex(A, p, r)
                    if cx.h0_dims(N + 2) != cx.expected_h0_dims(N + 2):
                        ok = False
    _verdict(5, ok)


# -- 6: duality exchanges the two products and squares to the identity ----

def test_duality_identities_and_product_dimensions():
    rng = rng_from_seed(6)
    ok = True
    for _ in range(100):
        N = rng.randint(2, 3)
        A = random_algebra(rng.randint(1, 2), N, rng)
        B = random_algebra(rng.randint(1, 2), N, rng)
        if A.dual().dual() != A or B.dual().dual() != B:
            ok = False
        if circ(A, B).dual() != bullet(A.dual(), B.dual()):
            ok = False
        if not prop1_check(A, B, N + 2):
            ok = False
    _verdict(6, ok)


# -- 7: complex-side and bar-side koszulity verdicts agree ----------------

def test_koszulity_matches_tor_purity():
    rng = rng_from_seed(7)
    fixtures = [free_algebra(2, 3), full_relations_algebra(2, 3),
                symmetric_algebra(2), full_relations_algebra(1, 3)]
    # ranks below 3 keep the tower alive past the bar window we can afford
    fixtures += [random_algebra(2, 3, rng, dim_r=rng.randint(3, 8))
                 for _ in range(20)]
    ok = True
    for A in fixtures:
        N = A.N
        verdict = koszulity_check(A, 2 * N + 2)
        if not verdict.koszul and verdict.witness[1] > 2 * N:
            ok = False  # witness would fall outside the bar window
            continue
        # the bar side from the oracle: tor_purity reads this very
        # verdict below its witness, so it would check it against itself
        table, _elims = reference_tor_dims(A, 4, 2 * N)
        pure = all(t == tor_pure_degree(i, N)
                   for (i, t), dim in table.items() if dim)
        if verdict.koszul != pure:
            ok = False
        tor2 = {t: d for (i, t), d in table.items() if i == 2 and d}
        expect = {N: A.relations.dim} if A.relations.dim else {}
        if tor2 != expect:
            ok = False
    _verdict(7, ok)


# -- 8: centrality of a relation space forces 0 or everything -------------

def test_monomial_dichotomy_and_reduction_operators():
    ok = True
    for N in (2, 3):
        amb = 2 ** N
        for size in range(amb + 1):
            for subset in combinations(range(amb), size):
                R = Subspace.from_vectors(QQ, amb, [{w: 1} for w in subset])
                for r in (1, 2):
                    if lemma3_check(R, r, 2).equal != (size in (0, amb)):
                        ok = False
                op = reduction_operator(R)
                big = reduction_operator(block_embed(R, 2, 0, 1))
                if (kron(operator_matrix(op), DenseMatrix.identity(QQ, 2))
                        != operator_matrix(big)):
                    ok = False
    rng = rng_from_seed(8)
    tries = 0
    while tries < 500:
        N = rng.choice((2, 3))
        amb = 2 ** N
        R = random_subspace(QQ, amb, rng, dim=rng.randint(1, amb - 1))
        if all(len(row) == 1 for row in R.rows):
            continue  # landed on a monomial span; covered exhaustively above
        tries += 1
        r = rng.choice((1, 2))
        if lemma3_check(R, r, 2).equal:
            ok = False
        op = reduction_operator(R)
        big = reduction_operator(block_embed(R, 2, 0, r))
        if (kron(operator_matrix(op), DenseMatrix.identity(QQ, 2 ** r))
                != operator_matrix(big)):
            ok = False
    _verdict(8, ok)


# -- 9: convolution of weights matches composition of differentials -------

def test_convolution_matches_differential_composition():
    rng = rng_from_seed(9)
    ok = True
    pairs = 0
    while pairs < 50:
        g, N = rng.randint(1, 2), rng.randint(2, 3)
        A = random_algebra(g, N, rng)
        f = random_isomorphism(A, rng)
        if not convolution_check(f, N + 2, samples=5,
                                 seed=rng.randint(0, 10 ** 6)):
            ok = False
        pairs += 5
    _verdict(9, ok)


# -- 10: command-line reports are byte-identical across runs --------------

_WEDGE3 = """field rational
generators d
degree 3
relation d.d.d
"""

_KT = """field rational
generators t
degree 3
"""

_KXY = """field rational
generators x y
degree 2
relation x.y - y.x
"""


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "nkoszul.cli"] + list(args),
                          capture_output=True)


def test_cli_reports_are_deterministic(tmp_path):
    wedge = tmp_path / "wedge3.alg"
    wedge.write_text(_WEDGE3)
    kt = tmp_path / "kt.alg"
    kt.write_text(_KT)
    kxy = tmp_path / "kxy.alg"
    kxy.write_text(_KXY)
    examples = [
        (["hilbert", str(wedge), "--seed", "0"], b"1 1 1"),
        (["dual", str(kt), "--seed", "0"], b"t_d.t_d.t_d"),
        (["koszulity", str(kxy), "--seed", "0"], b"KoszulUpTo(6)"),
    ]
    ok = True
    for args, marker in examples:
        first = _run_cli(args)
        second = _run_cli(args)
        if first.returncode != 0 or second.returncode != 0:
            ok = False
        if first.stdout != second.stdout or marker not in first.stdout:
            ok = False
    _verdict(10, ok)
