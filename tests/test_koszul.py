"""Koszul chains, generalized homology, contracted complexes, Tor."""

import gc
import hashlib
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import nkoszul.koszul as koszul_module
from nkoszul.algebra import (Morphism, NHomogeneousAlgebra, circ,
                             free_algebra, full_relations_algebra,
                             symmetric_algebra)
from nkoszul.definitions import parse_definition
from nkoszul.errors import ContractViolation, DimensionMismatch
from nkoszul.fields import PrimeField, QQ
from nkoszul.koszul import (ContractedComplex, ConvolutionContext, GradedMap,
                            KoszulVerdict, NComplexSlice, _BarBlock,
                            _bar_matrix, _compositions, _KoszulSlice,
                            generalized_homology, koszul_K, koszul_L,
                            koszulity_check, kron_sum_apply, lemma2_check,
                            slice_acyclic, tor_dims, tor_pure_degree,
                            tor_purity, verdict_string)
from nkoszul.linalg import Subspace, rank
from nkoszul.sampling import (random_algebra, random_isomorphism,
                              random_rank_deficient_morphism, rng_from_seed,
                              transported_algebra)
from nkoszul.sparsela import Eliminator, SparseMatrix
from nkoszul.words import block_embed
import oracles
from oracles import (bar_blocks, compose, convolution_check, d_alpha_matrix,
                     dual_component, full_bar_eliminator,
                     random_full_rank_non_isomorphism, random_graded_map,
                     reference_bar_matrix, reference_tor_dims, sparse_rows,
                     subspace_intersect)


def commutator_algebra():
    return symmetric_algebra(2, gen_names=("x", "y"))


def intersection_oracle(algebra, m):
    """E^(x)i (x) R (x) E^(x)j intersected over all i + N + j = m."""
    g, N, field = algebra.dim_e, algebra.N, algebra.field
    if m < N:
        return Subspace.full(field, g ** m)
    space = block_embed(algebra.relations, g, 0, m - N)
    for i in range(1, m - N + 1):
        space = subspace_intersect(
            space, block_embed(algebra.relations, g, i, m - N - i))
    return space


def test_dual_component_against_intersection():
    rng = rng_from_seed(1)
    for g, N in ((2, 2), (2, 3)):
        A = random_algebra(g, N, rng)
        for m in range(N + 3):
            assert dual_component(A, m) == intersection_oracle(A, m)


def test_dual_component_at_relation_degree():
    A = commutator_algebra()
    assert dual_component(A, 2) == A.relations
    space = dual_component(A, 1)
    assert space.dim == space.ambient_dim


def test_slice_dims_are_products():
    A = commutator_algebra()
    sl = koszul_K(Morphism.identity(A), 3)
    assert [sl.position_dim(k) for k in range(4)] == [0, 2, 6, 4]
    for k, info in enumerate(sl.positions):
        assert info.dim == info.c_dim * info.w_dim


def _twisted_inputs():
    """Identity and non-identity morphisms for the K and L operators.

    Over QQ, and over GF(32003), the field of the ncomplex-gfp benchmark;
    the last one has fractional entries.
    """
    rng = rng_from_seed(37)
    B = random_algebra(2, 3, rng, dim_r=3)
    f = random_isomorphism(B, rng)
    assert f.target is not f.source
    # an isomorphism with fractional entries: its integer twist has scale 12
    rows = [[Fraction(1, 2), Fraction(1, 3)],
            [Fraction(-2, 3), Fraction(3, 4)]]
    m = SparseMatrix.from_rows(QQ, rows)
    h = Morphism(B, transported_algebra(B, m), m)
    assert koszul_K(h, 1).scale(0) == 12
    P = random_algebra(2, 3, rng, field=PrimeField(32003), dim_r=3)
    fp = random_isomorphism(P, rng)
    assert fp.target is not fp.source
    return [Morphism.identity(commutator_algebra()), Morphism.identity(B), f,
            Morphism.identity(P), fp, h]


def _chains(morphism, bound):
    return ([koszul_K(morphism, n) for n in range(bound + 1)]
            + koszul_L(morphism, bound))


def test_differential_matrix_matches_transposed_apply():
    # apply_transposed(k, e_i) holds row i of s_k times the exact matrix
    nonzero = {QQ: 0, PrimeField(32003): 0}
    scales = set()
    for morphism in _twisted_inputs():
        rational = morphism.source.field.kind == "rational"
        for sl in _chains(morphism, 4):
            for k in range(len(sl.positions) - 1):
                mat = sl.differential(k)
                s = sl.scale(k)
                back = {}
                for i in range(sl.position_dim(k + 1)):
                    col = sl.apply_transposed(k, {i: 1})
                    for j, c in col.items():
                        assert type(c) is int
                        back.setdefault(j, {})[i] = c
                for j, col in enumerate(mat.cols):
                    assert not rational or all(type(v) is Fraction
                                               for v in col.values())
                    assert back.get(j, {}) == {i: s * v
                                               for i, v in col.items()}
                nonzero[sl.field] += any(mat.cols)
                scales.add(s)
    assert nonzero[QQ] > 20 and nonzero[PrimeField(32003)] > 20
    assert max(scales) > 12


def dense_kron_sum(xs, ys, x_dims, y_dims, vec):
    """Oracle: sum_l (X_l (x) Y_l) vec, entry by entry over dense indices."""
    (x_src, x_tgt), (y_src, y_tgt) = x_dims, y_dims
    out = [0] * (x_tgt * y_tgt)
    for xcols, ycols in zip(xs, ys):
        for x in range(x_src):
            for y in range(y_src):
                c = vec.get(x * y_src + y, 0)
                for tx in range(x_tgt):
                    for ty in range(y_tgt):
                        out[tx * y_tgt + ty] += (xcols[x].get(tx, 0) * c
                                                 * ycols[y].get(ty, 0))
    return out


def random_factors(rng, draw, n_factors, src, tgt):
    """Sparse columns of n_factors random src -> tgt maps, some empty."""
    return [[{t: draw(rng) for t in range(tgt) if rng.random() < 0.6}
             for _ in range(src)] for _ in range(n_factors)]


def test_kron_sum_apply_matches_dense_oracle():
    rng = rng_from_seed(53)
    fractions = lambda rng: Fraction(rng.choice((-2, -1, 1, 2, 3)),
                                     rng.randint(1, 3))
    gf7 = lambda rng: rng.randint(1, 6)
    vanished = 0
    for p, draw in ((0, fractions), (7, gf7)):
        for _ in range(40):
            n = rng.randint(1, 3)
            x_dims = (rng.randint(1, 3), rng.randint(1, 4))
            y_dims = (rng.randint(1, 3), rng.randint(1, 4))
            xs = random_factors(rng, draw, n, *x_dims)
            ys = random_factors(rng, draw, n, *y_dims)
            vec = {i: draw(rng) for i in range(x_dims[0] * y_dims[0])
                   if rng.random() < 0.7}
            got = kron_sum_apply(p, xs, ys, y_dims[0], y_dims[1], vec)
            want = dense_kron_sum(xs, ys, x_dims, y_dims, vec)
            if p:
                vanished += sum(1 for v in want if v and v % p == 0)
                want = [v % p for v in want]
                assert all(1 <= v < p for v in got.values())
            assert got == {i: v for i, v in enumerate(want) if v}
    assert vanished > 5


def test_rank_power_matches_composed_differentials():
    for morphism in _twisted_inputs():
        N = morphism.source.N
        for sl in _chains(morphism, 4):
            npos = len(sl.positions)
            for k in range(npos):
                for e in range(1, N + 1):
                    expected = 0
                    if k + e < npos:
                        mat = sl.differential(k)
                        for step in range(1, e):
                            mat = compose(sl.differential(k + step), mat)
                        expected = rank(mat)
                    assert sl.rank_power(k, e) == expected
                    assert sl.rank_power(k, e) == expected   # cached


def _closed_form_position(N, m, k, e):
    """F1 (m < N), F2 (k + e < N) or F3 (m = N, e = N - 1) of rank_power."""
    return 0 < e <= m and (m < N or k + e < N or (m == N and e == N - 1))


def _closed_form_algebras(field):
    """Per N: the stock algebras, and a random one whose tower reaches 0."""
    out = []
    for N, seed, dim_r in ((2, 2, 2), (3, 0, 4), (4, 0, 4)):
        zero = random_algebra(2, N, rng_from_seed(seed), field=field,
                              dim_r=dim_r)
        assert zero.dim(2 * N + 2) == 0 < zero.dim(N + 1)
        stock = [free_algebra(2, N, field=field),
                 full_relations_algebra(2, N, field=field), zero]
        if N == 2:
            stock.append(symmetric_algebra(3, field=field))
        out.append((N, stock))
    return out


def test_rank_power_closed_forms_on_K_identity(monkeypatch):
    # On K(id) the F1-F3 ranks feed no Eliminator row and agree with the
    # elimination path; every other position, and K(f) for f != id,
    # still eliminates.
    fed = [0]

    class CountingEliminator(Eliminator):
        def add(self, row):
            fed[0] += 1
            return super().add(row)

    monkeypatch.setattr("nkoszul.koszul.Eliminator", CountingEliminator)
    closed = eliminated = twisted = 0
    for field in (QQ, PrimeField(32003)):
        for N, algebras in _closed_form_algebras(field):
            for A in algebras:
                ident = Morphism.identity(A)
                for n in range(2 * N + 3):
                    sl, oracle = koszul_K(ident, n), koszul_K(ident, n)
                    for k in range(n + 1):
                        for e in range(1, N + 1):
                            before = fed[0]
                            got = sl.rank_power(k, e)
                            rows = fed[0] - before
                            assert got == _KoszulSlice.rank_power(
                                oracle, k, e), (A, n, k, e)
                            if _closed_form_position(N, n - k, k, e):
                                assert rows == 0, (A, n, k, e)
                                closed += 1
                            elif got:
                                assert rows >= got, (A, n, k, e)
                                eliminated += 1
            f = random_isomorphism(algebras[2], rng_from_seed(N))  # random
            for n in range(2 * N + 3):
                sl = koszul_K(f, n)
                for k in range(n + 1):
                    for e in range(1, N + 1):
                        before = fed[0]
                        got = sl.rank_power(k, e)
                        assert fed[0] - before >= got, (n, k, e)
                        twisted += bool(
                            got and _closed_form_position(N, n - k, k, e))
    assert closed > 500 and eliminated > 50 and twisted > 50


def test_d_to_the_N_vanishes_on_small_fixtures():
    rng = rng_from_seed(13)
    for g, N in ((2, 2), (2, 3), (1, 3)):
        A = random_algebra(g, N, rng)
        ident = Morphism.identity(A)
        for n in range(2 * N + 1):
            koszul_K(ident, n).verify_dN()
        for chain in koszul_L(ident, 2 * N):
            chain.verify_dN()


def test_degree_zero_slice_has_unit_homology():
    rng = rng_from_seed(21)
    for _ in range(4):
        A = random_algebra(2, 2, rng)
        sl = koszul_K(Morphism.identity(A), 0)
        for p in range(1, A.N):
            h = generalized_homology(sl, p)
            assert h[(p, 0)] == 1


def test_koszul_K_rejects_negative_degree():
    ident = Morphism.identity(commutator_algebra())
    with pytest.raises(DimensionMismatch, match="negative total degree"):
        koszul_K(ident, -1)
    with pytest.raises(DimensionMismatch, match="negative total degree"):
        NComplexSlice(ident, -1)


def test_generalized_homology_validates_p():
    A = commutator_algebra()
    sl = koszul_K(Morphism.identity(A), 2)
    with pytest.raises(DimensionMismatch):
        generalized_homology(sl, 0)
    with pytest.raises(DimensionMismatch):
        generalized_homology(sl, 2)


def test_polynomial_slices_acyclic():
    A = commutator_algebra()
    ident = Morphism.identity(A)
    assert not slice_acyclic(koszul_K(ident, 0))   # H_0 = K
    for n in range(1, 6):
        sl = koszul_K(ident, n)
        h = generalized_homology(sl, 1)
        assert [h[(1, sl.positions[k].w_degree)]
                for k in range(n + 1)] == [0] * (n + 1)
        assert slice_acyclic(sl)


def test_lemma2_on_isomorphisms():
    rng = rng_from_seed(17)
    for _ in range(3):
        A = random_algebra(2, 2, rng)
        f = random_isomorphism(A, rng)
        nm1, nn, iso = lemma2_check(f)
        assert iso and nm1 and nn


def test_lemma2_detects_non_isomorphism():
    # coefficient-identity map from the free algebra onto K[x,y]:
    # full rank but the relation image 0 is strictly inside span(xy - yx)
    free = free_algebra(2, 2)
    f = Morphism(free, commutator_algebra(),
                 SparseMatrix.from_rows(QQ, [[1, 0], [0, 1]]))
    nm1, nn, iso = lemma2_check(f)
    assert not iso
    assert nm1 and not nn
    # independent oracle for K(f)^2: dims 0 -> 4 -> 3, rank of d is 3,
    # nothing maps in, so homology at the middle position is 4 - 3 - 0 = 1
    sl = koszul_K(f, 2)
    assert [sl.position_dim(k) for k in range(3)] == [0, 4, 3]
    assert sl.rank_power(1, 1) == 3
    h = generalized_homology(sl, 1)
    assert h[(1, 1)] == 1


def test_contracted_polynomial_is_resolution():
    cc = ContractedComplex(commutator_algebra(), 1, 0)
    assert cc.h0_dims(5) == [1, 0, 0, 0, 0, 0]
    assert cc.h0_dims(5) == cc.expected_h0_dims(5)
    for i in range(1, 4):
        for t in range(6):
            assert cc.homology_dim(i, t) == 0


def test_contracted_k_indices():
    cc = ContractedComplex(full_relations_algebra(2, 3), 2, 0)
    assert [cc.k_index(i) for i in range(5)] == [0, 1, 3, 4, 6]
    cc = ContractedComplex(full_relations_algebra(2, 3), 2, 1)
    assert [cc.k_index(i) for i in range(5)] == [1, 2, 4, 5, 7]


def test_contracted_rejects_bad_parameters():
    A = full_relations_algebra(2, 3)
    with pytest.raises(DimensionMismatch):
        ContractedComplex(A, 3, 0)
    with pytest.raises(DimensionMismatch):
        ContractedComplex(A, 1, 2)
    with pytest.raises(DimensionMismatch):
        ContractedComplex(A, 0, 0)


def test_contracted_h0_and_inexactness_cubic():
    rng = rng_from_seed(2)
    B = random_algebra(2, 3, rng, dim_r=2)
    # the two admissible non-defining choices are inexact at index 1
    for p, r in ((1, 0), (2, 1)):
        cc = ContractedComplex(B, p, r)
        h1 = [cc.homology_dim(1, t) for t in range(8)]
        assert h1 == [0, 0, 0, 0, 3, 5, 10, 15]
        assert cc.h0_dims(7) == cc.expected_h0_dims(7)
    # while the defining one is exact there for this algebra
    cc = ContractedComplex(B, 2, 0)
    assert [cc.homology_dim(1, t) for t in range(8)] == [0] * 8
    assert cc.h0_dims(7) == cc.expected_h0_dims(7)


def test_koszulity_verdicts():
    assert verdict_string(koszulity_check(commutator_algebra(), 6)) == \
        "KoszulUpTo(6)"
    assert verdict_string(koszulity_check(full_relations_algebra(1, 3), 8)) \
        == "KoszulUpTo(8)"
    rng = rng_from_seed(2)
    random_algebra(2, 3, rng, dim_r=2)
    B = random_algebra(2, 3, rng, dim_r=4)
    assert verdict_string(koszulity_check(B, 6)) == \
        "NotKoszul(i=2, degree=5, dim=16)"
    with pytest.raises(DimensionMismatch):
        koszulity_check(commutator_algebra(), 1)


def test_tor_polynomial_frozen():
    table = tor_dims(commutator_algebra(), 3, 4)
    nonzero = {k: v for k, v in table.items() if v}
    assert nonzero == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_tor_extreme_algebras():
    nonzero = {k: v for k, v in tor_dims(free_algebra(2, 3), 3, 6).items() if v}
    assert nonzero == {(0, 0): 1, (1, 1): 2}
    nonzero = {k: v
               for k, v in tor_dims(full_relations_algebra(2, 3), 3, 6).items()
               if v}
    assert nonzero == {(0, 0): 1, (1, 1): 2, (2, 3): 8, (3, 4): 16}


def test_tor_purity_matches_koszulity():
    rng = rng_from_seed(2)
    B1 = random_algebra(2, 3, rng, dim_r=2)
    B2 = random_algebra(2, 3, rng, dim_r=4)
    assert koszulity_check(B1, 6).koszul
    assert tor_purity(B1, 4, 6)[0]
    assert not koszulity_check(B2, 6).koszul
    pure, table = tor_purity(B2, 4, 6)
    assert not pure
    assert table[(3, 5)] == 16      # off-degree witness


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["QQ", "GF32003"])
def test_koszul_tor_is_the_dual_and_inverts_the_hilbert_series(field):
    # for N-Koszul A: dim Tor_2j = dim A!_jN and dim Tor_2j+1 = dim A!_jN+1;
    # for every A: H_A(t) * sum_i (-1)^i Tor_i(t) = 1 in degrees t <= i_max
    i_max, n_max = 4, 6
    algebras = [symmetric_algebra(2, field=field),
                free_algebra(2, 3, field=field),
                full_relations_algebra(2, 3, field=field),
                random_algebra(2, 3, rng_from_seed(2), field=field, dim_r=2)]
    for A in algebras:
        assert koszulity_check(A, n_max).koszul
        table = tor_dims(A, i_max, n_max)
        dual_dims = A.dual().hilbert_dims(n_max)
        for i in range(i_max + 1):
            t = tor_pure_degree(i, A.N)
            want = dual_dims[t] if t <= n_max else 0
            assert sum(table[(i, s)] for s in range(n_max + 1)) == want
            if t <= n_max:
                assert table[(i, t)] == want
        dims = A.hilbert_dims(n_max)
        for t in range(i_max + 1):
            total = sum((-1) ** i * table[(i, s)] * dims[t - s]
                        for s in range(t + 1) for i in range(i_max + 1))
            assert total == (1 if t == 0 else 0)


def test_tor_pure_degree():
    assert [tor_pure_degree(i, 3) for i in range(6)] == [0, 1, 3, 4, 6, 7]
    assert [tor_pure_degree(i, 2) for i in range(6)] == [0, 1, 2, 3, 4, 5]


DEFINITIONS = Path(__file__).resolve().parent.parent / "demos" / "definitions"


def load_definition(name):
    path = DEFINITIONS / name
    return parse_definition(path.read_text(), source=name).to_algebra()


def test_cli_exits_2_when_d_N_fails(monkeypatch, capsys):
    # a differential with one entry off breaks d^N = 0; verify_dN must
    # raise, and the CLI must report an internal bug with exit code 2
    from nkoszul import cli
    forward = NComplexSlice._forward

    def broken(self, src, tgt):
        (xs, ys, y_src, y_tgt), s = forward(self, src, tgt)
        # a copy: the factors may be the algebra's own tables
        first = list(xs[0])
        first[0] = dict(first[0])
        first[0][0] = first[0].get(0, 0) + 1
        return ([first] + list(xs[1:]), ys, y_src, y_tgt), s

    monkeypatch.setattr(NComplexSlice, "_forward", broken)
    assert cli.main(["koszul-complex", str(DEFINITIONS / "poly2.alg")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal bug: d^N != 0 at slice n=2")


def drawn_algebra(field, seed, coefficient, dim_r=3):
    """A (2, 3) algebra whose relations are dim_r drawn rows."""
    rng = rng_from_seed(seed)
    rows = [[coefficient(rng) for _ in range(8)] for _ in range(dim_r)]
    return NHomogeneousAlgebra(
        2, 3, Subspace.from_vectors(field, 8, sparse_rows(rows)))


def bar_oracle_algebras():
    fractional = drawn_algebra(
        QQ, 17, lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
    assert any(fractional.component(n).den > 1 for n in range(1, 8))
    # multiples of 7 among the drawn integers vanish mod 7
    mod7 = drawn_algebra(PrimeField(7), 19,
                         lambda rng: rng.choice((-14, -7, 0, 7, 1, 2, 5, 9)))
    return [load_definition("cubic.alg"), load_definition("wedge3.alg"),
            fractional, mod7]


def test_compositions_ascend():
    # _BarBlock's layout and tor_dims's last-column-first feed read the
    # compositions in ascending order: the sorted brute-force filter, over
    # parts of at most total - parts + 1
    for total in range(11):
        for parts in range(8):
            want = sorted(c for c in product(range(1, total - parts + 2),
                                             repeat=parts)
                          if sum(c) == total)
            assert list(_compositions(total, parts)) == want, (total, parts)


def test_bar_matrix_matches_reference():
    for A in bar_oracle_algebras():
        blocks = {(i, t): _BarBlock(A, i, t)
                  for i in range(6) for t in range(8)}
        for i in range(1, 6):
            for t in range(8):
                want = reference_bar_matrix(A, blocks, i, t)
                assert _bar_matrix(A, blocks, i, t, set()) == want, (A, i, t)
                skip = set(range(t % 3, len(want), 3))
                got = _bar_matrix(A, blocks, i, t, skip)
                assert got == [{} if j in skip else col
                               for j, col in enumerate(want)], (A, i, t)


def stored_rows(elim):
    return tuple(sorted((piv, tuple(sorted(row.items())))
                        for piv, row in elim.pivot_rows.items()))


def tor_sweep_algebras():
    """bar_oracle_algebras plus seeded random draws over QQ and GF(7)."""
    algebras = [(A, 5, 7) for A in bar_oracle_algebras()]
    rng = rng_from_seed(23)
    for field in (QQ, PrimeField(7)):
        for g, N, n_max in ((2, 2, 6), (2, 3, 7), (2, 4, 6), (3, 2, 4),
                            (3, 3, 4)):
            dim_r = rng.randint(1, g ** N - 1)
            algebras.append((random_algebra(g, N, rng, field=field,
                                            dim_r=dim_r), 4, n_max))
    return algebras


def test_slice_acyclic_agrees_with_every_p():
    # p = 1 alone decides (the p-independence lemma); every slice of K(id),
    # K(f) for an isomorphism f and K(f) for a rank-deficient f over the
    # sweep agrees with the predicate that reads each p
    rng = rng_from_seed(41)
    seen = set()
    for A, _i_max, n_max in tor_sweep_algebras():
        kinds = (("id", Morphism.identity(A)),
                 ("iso", random_isomorphism(A, rng)),
                 ("deficient", random_rank_deficient_morphism(A, rng)))
        for kind, f in kinds:
            for n in range(n_max + 1):
                sl = koszul_K(f, n)
                every_p = not any(any(generalized_homology(sl, p).values())
                                  for p in range(1, A.N))
                assert slice_acyclic(sl) == every_p, (A, kind, n)
                seen.add((kind, every_p))
    # no slice of K(f) for the rank-deficient f drawn here is acyclic, so
    # those slices check that p = 1 sees the homology every p sees
    assert seen == {("id", True), ("id", False), ("iso", True),
                    ("iso", False), ("deficient", False)}


def first_failure(algebra, n_max):
    """t0: the degree of the Koszul complex's first failure, or n_max + 1."""
    witness = (koszulity_check(algebra, n_max).witness
               if n_max >= algebra.N else None)
    return witness[1] if witness else n_max + 1


def record_bar_engine(monkeypatch):
    """The eliminators tor_dims makes after its Koszulity check returns.

    The check ranks the Koszul complex with eliminators of its own; the
    list is emptied when it returns, so it holds the bar engine's only.
    """
    made = []
    check = koszulity_check

    class RecordingEliminator(Eliminator):
        def __init__(self, field):
            super().__init__(field)
            made.append(self)

    def recording_check(algebra, n_max):
        verdict = check(algebra, n_max)
        made.clear()
        return verdict

    monkeypatch.setattr(koszul_module, "Eliminator", RecordingEliminator)
    monkeypatch.setattr(koszul_module, "koszulity_check", recording_check)
    return made


def record_bar_levels(monkeypatch):
    """The (i, t) of every bar matrix tor_dims builds."""
    levels = []

    def recording_bar_matrix(algebra, blocks, i, t, skip):
        levels.append((i, t))
        return _bar_matrix(algebra, blocks, i, t, skip)

    monkeypatch.setattr(koszul_module, "_bar_matrix", recording_bar_matrix)
    return levels


def test_tor_dims_matches_reference_without_clearing(monkeypatch):
    # Clearing must skip only columns that reduce to zero, so the rows
    # the bar eliminators of tor_dims store are those of the full feed at
    # the levels it eliminates: 4 and up, to i_max + 1, where nu(i) <= t,
    # in the degrees t >= t0 that the Koszul complex leaves open.
    made = record_bar_engine(monkeypatch)
    compared = 0
    for A, i_max, n_max in tor_sweep_algebras():
        want, elims = reference_tor_dims(A, i_max, n_max)
        t0 = first_failure(A, n_max)
        made.clear()
        assert tor_dims(A, i_max, n_max) == want, (A, i_max, n_max)
        got_rows = sorted(stored_rows(e) for e in made if e.rank)
        want_rows = sorted(stored_rows(e) for (i, t), e in elims.items()
                           if i >= 4 and t >= t0
                           and tor_pure_degree(i, A.N) <= t and e.rank)
        assert got_rows == want_rows, (A, i_max, n_max)
        compared += len(want_rows)
    assert compared > 0


def test_tor_dims_eliminates_no_level_below_its_pure_degree(monkeypatch):
    # Tor_{i,t} = 0 for t < nu(i) on every N-homogeneous algebra, which
    # the oracle shows on the sweep, so tor_dims reads those levels off
    # the block dims and builds no eliminator for them
    made = record_bar_engine(monkeypatch)
    levels = record_bar_levels(monkeypatch)
    fields = set()
    for A, i_max, n_max in tor_sweep_algebras():
        fields.add(A.field)
        want, _elims = reference_tor_dims(A, i_max, n_max)
        for (i, t), dim in want.items():
            if t < tor_pure_degree(i, A.N):
                assert dim == 0, (A, i, t)
        made.clear()
        levels.clear()
        assert tor_dims(A, i_max, n_max) == want, (A, i_max, n_max)
        assert len(made) == len(levels), (A, i_max, n_max)
        assert all(tor_pure_degree(i, A.N) <= t for i, t in levels), (
            A, levels)
    assert QQ in fields and PrimeField(7) in fields


def test_tor_dims_builds_no_bar_matrix_below_the_first_failure(monkeypatch):
    # below t0 the Koszul complex is the minimal resolution, and Tor is
    # read off it; the sweep has Koszul windows and failures at 4 to 6
    levels = record_bar_levels(monkeypatch)
    failures = set()
    for A, i_max, n_max in tor_sweep_algebras():
        t0 = first_failure(A, n_max)
        failures.add(t0 <= n_max)
        levels.clear()
        tor_dims(A, i_max, n_max)
        assert all(t >= t0 for _i, t in levels), (A, t0, levels)
    assert failures == {True, False}


@pytest.mark.parametrize("t0", [4, 6])
def test_a_forced_witness_starts_the_bar_engine_there(monkeypatch, t0):
    # the check's witness alone decides where the read-off stops: a
    # failure forced at t0 > N on a Koszul algebra leaves the table as it
    # is, and the bar engine runs in every degree from t0 on, and only there
    A = load_definition("cubic.alg")
    i_max, n_max = 4, 8
    want = tor_dims(A, i_max, n_max)
    monkeypatch.setattr(koszul_module, "koszulity_check",
                        lambda algebra, n: KoszulVerdict(False, n,
                                                         (2, t0, 1)))
    levels = record_bar_levels(monkeypatch)
    assert tor_dims(A, i_max, n_max) == want
    # nu(4) = 6: below it the engine ranks every level off the block dims
    assert {t for _i, t in levels} == set(range(max(t0, 6), n_max + 1))


def test_tor_dims_rejects_a_rank_too_high(monkeypatch, capsys):
    # one eliminated rank one too high: cubic_pair.alg first fails in
    # degree 5, and at i_max = 4 its first bar eliminator is d_4 in
    # degree 6, where Tor_3 and Tor_4 are 0, so both read -1.  It cancels
    # out of the Euler identity, which only the sign check catches.  The
    # check's own eliminators are left exact.
    from nkoszul import cli
    built = []
    check = koszulity_check

    class OffByOneEliminator(Eliminator):
        def __init__(self, field):
            super().__init__(field)
            built.append(self)

        @property
        def rank(self):
            return len(self.pivot_rows) + (self is built[0])

    def check_then_break(algebra, n_max):
        monkeypatch.setattr(koszul_module, "Eliminator", Eliminator)
        verdict = check(algebra, n_max)
        built.clear()
        monkeypatch.setattr(koszul_module, "Eliminator", OffByOneEliminator)
        return verdict

    A = load_definition("cubic_pair.alg")
    assert first_failure(A, 8) == 5
    assert tor_dims(A, 4, 8)[(3, 6)] == tor_dims(A, 4, 8)[(4, 6)] == 0
    levels = record_bar_levels(monkeypatch)
    monkeypatch.setattr(koszul_module, "koszulity_check", check_then_break)
    with pytest.raises(ContractViolation, match="negative dim Tor_"):
        tor_dims(A, 4, 8)
    assert levels[0] == (4, 6)
    path = str(DEFINITIONS / "cubic_pair.alg")
    assert cli.main(["tor", path, "--nmax", "8", "--imax", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal bug: negative dim Tor_")


def test_tor_dims_checks_the_euler_identity(monkeypatch):
    # a dim read off the Koszul complex one too low moves the alternating
    # sum: Tor_2 in degree N is dim A^!_N, and the identity reaches degree
    # nu(3) - 1 = N at i_max = 2.  The check passes first, on the right
    # dims.
    A = load_definition("cubic.alg")
    tor_dims(A, 2, 6)
    check = koszulity_check

    def check_then_break(algebra, n_max):
        verdict = check(algebra, n_max)
        bang = algebra.dual()
        dim = bang.dim
        monkeypatch.setattr(bang, "dim", lambda n: dim(n) - (n == A.N))
        return verdict

    monkeypatch.setattr(koszul_module, "koszulity_check", check_then_break)
    with pytest.raises(ContractViolation, match="Euler identity"):
        tor_dims(A, 2, 6)


def test_cli_koszulity_exits_2_when_the_series_identity_fails(monkeypatch,
                                                              capsys):
    # the complex is built on the right dual, so every homology is 0, but
    # the A^! series the check compares with is one low in degree N
    from nkoszul import cli
    dual = NHomogeneousAlgebra.dual

    def dual_with_a_series_one_low(self):
        bang = dual(self)
        if "hilbert_dims" not in vars(bang):
            dims = bang.hilbert_dims
            bang.hilbert_dims = lambda n: [d - (m == bang.N)
                                           for m, d in enumerate(dims(n))]
        return bang

    path = str(DEFINITIONS / "cubic.alg")
    assert cli.main(["koszulity", path]) == 0
    assert capsys.readouterr().out.endswith("verdict: KoszulUpTo(8)\n")
    monkeypatch.setattr(NHomogeneousAlgebra, "dual",
                        dual_with_a_series_one_low)
    assert cli.main(["koszulity", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal bug: exact Koszul complex breaks the "
                          "series identity of A and A^! in degree 3: -1")


@pytest.mark.parametrize("field, sha1", [
    (None, "100203b61834f8b1028085e838306d0810d71140"),
    ("gf:32003", "214e88d020bc0afd977292d09ad568c1a1fe1d98")])
def test_cli_tor_of_the_wide_cubic_window(monkeypatch, capsys, field, sha1):
    # cubic.alg is Koszul through degree 10, so the whole table is read
    # off the Koszul complex; the bar complex gave the same bytes.  The
    # report names its input as given, relative to the checkout.
    from nkoszul import cli
    monkeypatch.chdir(DEFINITIONS.parent.parent)
    args = ["tor", "demos/definitions/cubic.alg", "--nmax", "10",
            "--imax", "5"]
    assert cli.main(args + (["--field", field] if field else [])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


DEPENDENT_MOD_7 = """\
generators x y
degree 3
relation x.x.y - y.y.x
relation 8*x.x.y - y.y.x + 7*x.y.x
"""


def test_dependent_mod_7_tower_keeps_its_dims():
    # the coefficients 8 and 7 reduce mod 7, and the tower settles each
    # assembled row mod 7 before the eliminator takes it over
    A = parse_definition(DEPENDENT_MOD_7, field_override="gf:7").to_algebra()
    assert A.hilbert_dims(9) == [1, 2, 4, 7, 12, 20, 33, 54, 88, 143]


def closed_form_ranks(algebra, t):
    """rank d_2 and rank d_3 of the bar complex in degree t >= 2."""
    tor2 = algebra.relations.dim if t == algebra.N else 0
    return (algebra.dim(t),
            _BarBlock(algebra, 2, t).dim - algebra.dim(t) - tor2)


def test_tor_dims_closed_forms_match_reference():
    # the two relations of DEPENDENT_MOD_7 are independent over QQ and
    # equal mod 7, so Tor_2 in degree 3 drops from 2 to 1
    dependent = [parse_definition(DEPENDENT_MOD_7, field_override=name)
                 .to_algebra() for name in ("rational", "gf:7")]
    assert [A.relations.dim for A in dependent] == [2, 1]
    algebras = bar_oracle_algebras() + dependent + [
        free_algebra(2, 3), full_relations_algebra(2, 3),
        symmetric_algebra(2)]
    n_max = 6
    for A in algebras:
        # i_max <= 2 leaves no level >= 4 to eliminate
        for i_max in range(4):
            want, elims = reference_tor_dims(A, i_max, n_max)
            assert tor_dims(A, i_max, n_max) == want, (A, i_max)
            for t in range(2, n_max + 1):
                for i, rank in zip((2, 3), closed_form_ranks(A, t)):
                    if (i, t) in elims:
                        assert elims[(i, t)].rank == rank, (A, i, t)
    for A in dependent:
        assert tor_dims(A, 2, n_max)[(2, 3)] == A.relations.dim


def test_pivots_of_the_level_above_reduce_to_zero():
    # the clearing argument: a pivot j of a stored row of d_{i+1} marks a
    # column of d_i that its larger-index columns already span
    cleared = 0
    for A in bar_oracle_algebras():
        blocks = bar_blocks(A, 5, 7)
        for t in range(8):
            for i in range(1, 6):
                above = full_bar_eliminator(A, blocks, i + 1, t).pivot_rows
                cleared += len(above)
                elim = Eliminator(A.field)
                cols = reference_bar_matrix(A, blocks, i, t)
                for j in range(len(cols) - 1, -1, -1):
                    piv = elim.add(cols[j])
                    assert j not in above or piv is None, (A, i, t, j)
    assert cleared > 1000


def test_homology_leaves_no_reference_cycle():
    def exercise(A):
        ident = Morphism.identity(A)
        generalized_homology(koszul_K(ident, 4), 1)
        for sl in koszul_L(ident, 4):
            generalized_homology(sl, 1)
        ctx = ConvolutionContext(A, A)
        d_alpha_matrix(ctx, GradedMap.from_morphism(ident), 3)

    gc.disable()
    try:
        A = random_algebra(2, 3, rng_from_seed(2), dim_r=2)
        exercise(A)
        ref = weakref.ref(A)
        del A
        assert ref() is None
    finally:
        gc.enable()


def test_koszul_element_is_nilpotent():
    rng = rng_from_seed(23)
    for g, N in ((2, 2), (2, 3)):
        A = random_algebra(g, N, rng)
        f = random_isomorphism(A, rng)
        ctx = ConvolutionContext(f.source, f.target)
        xi = GradedMap.from_morphism(f)
        assert ctx.convolution_power(xi, N, N).is_zero()


def circ_powers_nonzero(f):
    """[xi_f^k != 0 for k = 1..N], with xi_f raised in circ(B^!, C).

    The presented product algebra is the slow reference encoding of
    B^! o C: xi_f is its degree-1 vector with entry c at letter * g' + j
    for each entry c of column ``letter`` of f's matrix.
    """
    product = circ(f.source.dual(), f.target)
    gp = f.target.dim_e
    xi = {letter * gp + j: c
          for letter, col in enumerate(f.matrix.cols) for j, c in col.items()}
    out, acc = [bool(xi)], xi
    for k in range(2, f.source.N + 1):
        acc = product.vector_product(k - 1, acc, 1, xi)
        out.append(bool(acc))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["QQ", "GF32003"])
def test_koszul_element_powers_match_circ_route(field):
    rng = rng_from_seed(37)
    below_n = False
    for g, N in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        # half the words as relations, so every map of the three kinds exists
        A = random_algebra(g, N, rng, field=field, dim_r=g ** N // 2)
        for make in (random_isomorphism, random_rank_deficient_morphism,
                     random_full_rank_non_isomorphism):
            f = make(A, rng)
            xi = GradedMap.from_morphism(f)
            ctx = ConvolutionContext(f.source, f.target)
            conv = [not ctx.convolution_power(xi, k, k).is_zero()
                    for k in range(1, N + 1)]
            assert conv == circ_powers_nonzero(f)
            assert not conv[-1]
            below_n = below_n or any(conv[1:-1])
    # some xi_f^k with 2 <= k < N is nonzero, so the agreement says more
    # than "both are zero"
    assert below_n


def test_convolution_coherence():
    A = commutator_algebra()
    assert convolution_check(Morphism.identity(A), 4, samples=6, seed=3)
    rng = rng_from_seed(29)
    B = random_algebra(2, 3, rng)
    f = random_isomorphism(B, rng)
    assert convolution_check(f, 5, samples=5, seed=4)
    h = _twisted_inputs()[-1]      # fractional entries: twisted scale 12
    assert convolution_check(h, 4, samples=3, seed=5)


def _power_returns_input(monkeypatch):
    monkeypatch.setattr(ConvolutionContext, "convolution_power",
                        lambda self, alpha, e, m_max: alpha)


def _k_differential_emptied(monkeypatch):
    full = oracles._k_differential_total

    def emptied(morphism, t):
        mat = full(morphism, t)
        return SparseMatrix(mat.field, mat.nrows, mat.ncols,
                            [{} for _ in mat.cols])
    monkeypatch.setattr(oracles, "_k_differential_total", emptied)


def _convolve_swapped(monkeypatch):
    convolve = ConvolutionContext.convolve
    monkeypatch.setattr(ConvolutionContext, "convolve",
                        lambda self, a, b, m_max: convolve(self, b, a, m_max))


@pytest.mark.parametrize("breakage, holds", [
    (None, True),
    (_power_returns_input, False),       # (a) xi_f^N = 0
    (_k_differential_emptied, False),    # (b) d_xi is the K(f) differential
    (_convolve_swapped, False),          # (c) d_alpha o d_beta = d_{alpha*beta}
], ids=["intact", "power", "differential", "convolve"])
def test_convolution_check_fails_on_a_broken_part(monkeypatch, breakage,
                                                   holds):
    if breakage is not None:
        breakage(monkeypatch)
    f = Morphism.identity(commutator_algebra())
    assert convolution_check(f, 4) is holds


def test_convolution_composition_order():
    # d_alpha o d_beta agrees with d of the convolution product
    A = commutator_algebra()
    ctx = ConvolutionContext(A, A)
    rng = rng_from_seed(31)
    for _ in range(5):
        a = random_graded_map(ctx, 4, rng)
        b = random_graded_map(ctx, 4, rng)
        t = rng.randrange(5)
        da = d_alpha_matrix(ctx, a, t)
        db = d_alpha_matrix(ctx, b, t)
        dab = d_alpha_matrix(ctx, ctx.convolve(a, b, t), t)
        assert compose(da, db) == dab


def test_L_chains_of_truncated_algebra():
    W = full_relations_algebra(1, 3)
    chains = {c.delta: [p.dim for p in c.positions]
              for c in koszul_L(Morphism.identity(W), 5)}
    assert chains[-3] == [1, 1, 1]
    assert chains[0] == [1, 1, 1, 0, 0, 0]
    assert chains[2] == [1, 0, 0, 0]
    for c in koszul_L(Morphism.identity(W), 5):
        c.verify_dN()
