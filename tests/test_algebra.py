"""Homogeneous algebras: graded engine, duals, products, morphisms."""

import pytest
from hypothesis import event, example, given, settings, strategies as st

import nkoszul.algebra as algebra_module
from nkoszul.algebra import (Morphism, NHomogeneousAlgebra, bullet, circ,
                             end_algebra, free_algebra,
                             full_relations_algebra, hom_algebra,
                             is_morphism, prop1_check, symmetric_algebra,
                             veronese_dims)
from nkoszul.definitions import definition_from_algebra, serialize_definition
from nkoszul.errors import DimensionMismatch
from nkoszul.fields import PrimeField, QQ
from nkoszul.linalg import Subspace
from nkoszul.sampling import (random_algebra,
                              random_full_rank_non_isomorphism,
                              random_isomorphism,
                              random_rank_deficient_morphism,
                              random_subspace, rng_from_seed)
from nkoszul.sparsela import Eliminator, SparseMatrix, primitive_row
from nkoszul.words import index_word
from oracles import (DenseMatrix, component_relations, dense_rows,
                     kron_power, reference_circ_relations,
                     reference_transported_relations, row_axpy,
                     sparse_rows, word_class)


def commutator_algebra():
    return symmetric_algebra(2, gen_names=("x", "y"))


def test_polynomial_dims():
    # independent oracle: dim K[x,y]_n = n + 1 by monomial count
    A = commutator_algebra()
    assert A.hilbert_dims(6) == [n + 1 for n in range(7)]


def test_free_and_full_dims():
    T = free_algebra(2, 2)
    assert T.hilbert_dims(4) == [1, 2, 4, 8, 16]
    Z = full_relations_algebra(2, 3)
    assert Z.hilbert_dims(4) == [1, 2, 4, 0, 0]


def test_truncated_exterior_dims():
    # single generator with d^N = 0
    for N in (2, 3, 4):
        W = full_relations_algebra(1, N)
        dims = W.hilbert_dims(N + 2)
        assert dims == [1] * N + [0] * 3


def fractional_algebra(g, N, dim_r, rng):
    """A random Schubert-cell relation space with its free entries divided."""
    base = random_subspace(QQ, g ** N, rng, dim=dim_r)
    rows = [[v if j in base.pivots else v / rng.randint(1, 4)
             for j, v in enumerate(row)] for row in dense_rows(base)]
    return NHomogeneousAlgebra(
        g, N, Subspace.from_vectors(QQ, g ** N, sparse_rows(rows)))


def test_dims_complement_relation_space():
    # dim A_n = g^n - dim(sum E^r R E^s), checked against the dense oracle
    rng = rng_from_seed(11)
    algebras = [random_algebra(2, 3, rng) for _ in range(5)]
    B = fractional_algebra(3, 3, 9, rng_from_seed(12))
    assert B.relations.dim == 9
    assert any(v.denominator != 1 for row in B.relations.rows
               for v in row.values())
    algebras.append(B)
    for A in algebras:
        for n in range(6):
            assert A.dim(n) == A.dim_e ** n - component_relations(A, n).dim


def test_normal_words_prefix_closed():
    rng = rng_from_seed(3)
    A = random_algebra(2, 2, rng, dim_r=2)
    for n in range(1, 6):
        comp = A.component(n)
        prev = set(A.component(n - 1).normal_words)
        for w in comp.normal_words:
            assert w // 2 in prev


def test_vector_product_against_word_classes():
    A = commutator_algebra()
    one = A.field.one
    xy = A.vector_product(1, {0: one}, 1, {1: one})
    yx = A.vector_product(1, {1: one}, 1, {0: one})
    assert xy and xy == yx == word_class(A, (0, 1))


def test_element_from_dead_word_is_zero():
    Z = full_relations_algebra(2, 2)
    assert word_class(Z, (0, 1)) == {}


def test_dual_of_polynomial_is_exterior():
    A = commutator_algebra()
    B = A.dual()
    assert B.hilbert_dims(4) == [1, 2, 1, 0, 0]
    # the exterior relations: x'x', y'y', x'y' + y'x'
    R = B.relations
    assert R.dim == 3
    assert R.contains_vector({0: 1})
    assert R.contains_vector({3: 1})
    assert R.contains_vector({1: 1, 2: 1})


def test_double_dual_is_identity():
    rng = rng_from_seed(5)
    for g, N in ((2, 2), (2, 3), (3, 2)):
        A = random_algebra(g, N, rng)
        assert A.dual().dual() == A


def test_dual_exchanges_zero_and_full():
    T = free_algebra(2, 3)
    assert T.dual().relations.dim == 2 ** 3
    Z = full_relations_algebra(2, 3)
    assert Z.dual().relations.dim == 0


def test_unit_objects():
    # K[t] is the unit for circ; its dual the unit for bullet
    Kt = symmetric_algebra(1, gen_names=("t",))
    A = commutator_algebra()
    P = circ(Kt, A)
    assert P.hilbert_dims(5) == A.hilbert_dims(5)
    W = Kt.dual()
    Q = bullet(W, A)
    assert Q.hilbert_dims(5) == A.hilbert_dims(5)


def test_product_duality_identity():
    # (A o B)! = A! bullet B!
    rng = rng_from_seed(9)
    for _ in range(5):
        A = random_algebra(2, 2, rng)
        B = random_algebra(2, 2, rng)
        left = circ(A, B).dual()
        right = bullet(A.dual(), B.dual())
        assert left == right


@given(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]),
       st.integers(1, 2), st.integers(1, 2), st.integers(2, 3),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
@example(QQ, 1, 1, 2, 0)
def test_circ_relations_match_the_re_eliminating_oracle(field, ga, gb, N,
                                                        seed):
    rng = rng_from_seed(seed)
    A = random_algebra(ga, N, rng, field=field)
    B = random_algebra(gb, N, rng, field=field)
    event("ambient 1" if ga * gb == 1 else "ambient > 1")
    assert circ(A, B).relations == reference_circ_relations(A, B)


def rows_fed(monkeypatch, compute):
    """compute(), and the number of rows it feeds to Eliminator.add."""
    fed = []
    add = Eliminator.add

    def counted(self, row):
        fed.append(row)
        return add(self, row)

    monkeypatch.setattr(Eliminator, "add", counted)
    result = compute()
    monkeypatch.undo()
    return len(fed), result


def test_dual_serialize_and_circ_eliminate_once(monkeypatch):
    # x^10 - y.x^9 (word 512 is y.x^9): R^perp has 1023 rows, read off
    # R's one reversed row
    line = NHomogeneousAlgebra(2, 10, Subspace.from_vectors(
        QQ, 2 ** 10, [{0: 1, 512: -1}]))
    algebras = [line]
    for field in (QQ, PrimeField(7), PrimeField(32003)):
        rng = rng_from_seed(17)
        algebras += [random_algebra(2, 3, rng, field=field) for _ in range(3)]
    for A in algebras:
        fed, bang = rows_fed(monkeypatch, A.dual)
        assert fed == A.relations.dim
        assert bang.relations.dim == A.dim_e ** A.N - fed
        fed, _ = rows_fed(monkeypatch, lambda: serialize_definition(
            definition_from_algebra(bang)))
        assert fed == 0
    for A, B in zip(algebras[1:], algebras[2:]):
        if A.field != B.field:
            continue
        fed, _ = rows_fed(monkeypatch, lambda: circ(A, B))
        N, ga, gb = A.N, A.dim_e, B.dim_e
        assert fed == A.relations.dim * gb ** N + ga ** N * B.relations.dim


def test_circ_dimension_law():
    A = commutator_algebra()
    B = commutator_algebra()
    P = circ(A, B)
    assert P.hilbert_dims(3) == [1, 4, 9, 16]
    assert prop1_check(A, B, 4)


def test_product_degree_mismatch():
    with pytest.raises(DimensionMismatch):
        circ(commutator_algebra(), free_algebra(2, 3))


def test_end_and_hom_algebras_build():
    A = commutator_algebra()
    E = end_algebra(A)
    assert E.dim_e == 4
    assert E.dim(1) == 4
    H = hom_algebra(A, free_algebra(2, 2))
    assert H.dim_e == 4


def test_veronese_dims():
    A = commutator_algebra()
    assert veronese_dims(A, 2, 3) == [1, 3, 5, 7]


def test_mod_p_agreement():
    # relation coefficients in {-1, 0, 1}: dims agree over Q and GF(32003)
    rows = [{1: 1, 2: -1}, {3: 1, 5: -1}]
    AQ = NHomogeneousAlgebra(2, 3, Subspace.from_vectors(QQ, 8, rows))
    F = PrimeField(32003)
    AF = NHomogeneousAlgebra(2, 3, Subspace.from_vectors(F, 8, rows))
    assert AQ.hilbert_dims(7) == AF.hilbert_dims(7)


def test_is_morphism_and_identity():
    A = commutator_algebra()
    T = free_algebra(2, 2)
    ident = SparseMatrix.identity(QQ, 2)
    swap = SparseMatrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert is_morphism(A, A, ident)
    assert is_morphism(A, A, swap)            # swap preserves R
    assert is_morphism(T, A, ident)           # 0 lands anywhere
    assert not is_morphism(A, T, ident)       # R does not land in 0
    f = Morphism.identity(A)
    assert f.is_isomorphism()
    # x, y -> x: a morphism of the right shape, but of rank 1
    collapse = SparseMatrix.from_rows(QQ, [[1, 1], [0, 0]])
    assert not Morphism(A, A, collapse).is_isomorphism()
    # x -> x from one generator into two: injective, but no isomorphism
    inclusion = SparseMatrix.from_rows(QQ, [[1], [0]])
    assert not Morphism(free_algebra(1, 2), T, inclusion).is_isomorphism()


def test_identity_is_a_morphism():
    # Morphism.identity skips the relation check; the check still holds
    rng = rng_from_seed(47)
    for field in (QQ, PrimeField(7)):
        for g, N in ((2, 2), (2, 3), (3, 2), (1, 4)):
            A = random_algebra(g, N, rng, field=field, span=9)
            ident = Morphism.identity(A)
            assert ident.source is A and ident.target is A
            assert ident.matrix == SparseMatrix.identity(field, g)
            assert is_morphism(A, A, ident.matrix)


def test_morphism_rejects_bad_map():
    A = commutator_algebra()
    T = free_algebra(2, 2)
    bad = [
        (A, T, SparseMatrix.from_rows(QQ, [[1, 0], [0, 1]])),  # R not into 0
        # GF(7) map of QQ algebras
        (A, A, SparseMatrix.identity(PrimeField(7), 2)),
        (A, free_algebra(2, 3), SparseMatrix.identity(QQ, 2)),  # N differs
        (A, A, SparseMatrix.identity(QQ, 3)),      # wrong shape
    ]
    for source, target, matrix in bad:
        assert not is_morphism(source, target, matrix)
        with pytest.raises(DimensionMismatch):
            Morphism(source, target, matrix)


@pytest.mark.parametrize("dim_e, degree, ambient, names, message", [
    (2, 1, 2, None, "relation degree must be at least 2"),
    (-1, 2, 1, None, "negative generator count"),
    (2, 2, 8, None, "relations live in dimension 8, expected 4"),
    (2, 2, 4, ("x",), "need 2 generator names"),
    (2, 2, 4, (), "need 2 generator names"),
])
def test_algebra_rejects_bad_presentation(dim_e, degree, ambient, names,
                                          message):
    relations = Subspace.from_vectors(QQ, ambient, [])
    with pytest.raises(DimensionMismatch) as exc:
        NHomogeneousAlgebra(dim_e, degree, relations, gen_names=names)
    assert str(exc.value) == message


def test_morphism_tensor_power():
    # the relation transport, word by word, against the dense Kronecker
    # power of the map applied to the dense relation rows
    A = commutator_algebra()
    # f(y) = x + y
    f = Morphism(A, A, SparseMatrix.from_rows(QQ, [[1, 1], [0, 1]]))
    sq = kron_power(DenseMatrix.from_sparse(f.matrix), 2)
    assert sq.ncols == 4 and sq.nrows == 4
    # (x+y) (x) (x+y) has coefficient 1 at every word of {x,y}^2
    col = [sq.rows[i][3] for i in range(4)]
    assert col == [QQ.one] * 4
    assert f.relations_image() == reference_transported_relations(A, f.matrix)

    def agrees(source, target, matrix):
        image = algebra_module._transported_relations(source, matrix)
        want = reference_transported_relations(source, matrix)
        verdict = all(target.relations.contains_vector(row)
                      for row in want.rows)
        assert image == want
        assert is_morphism(source, target, matrix) == verdict
        return verdict

    # the non-morphism of test_morphism_rejects_bad_map, and one that
    # sends x.y - y.x into R but x.x outside it
    ident = SparseMatrix.identity(QQ, 2)
    assert not agrees(A, free_algebra(2, 2), ident)
    wider = Subspace.from_vectors(QQ, 4, [{1: 1, 2: -1}, {0: 1}])
    assert not agrees(NHomogeneousAlgebra(2, 2, wider), A, ident)
    rng = rng_from_seed(61)
    verdicts = []
    for field in (QQ, PrimeField(7)):
        for g, N in ((2, 2), (2, 3), (3, 2)):
            A = random_algebra(g, N, rng, field=field)
            for make in (random_isomorphism, random_rank_deficient_morphism,
                         random_full_rank_non_isomorphism):
                f = make(A, rng)
                if f is None:
                    continue
                assert f.relations_image() == reference_transported_relations(
                    A, f.matrix)
                verdicts.append(agrees(A, f.target, f.matrix))
                verdicts.append(agrees(f.target, A, f.matrix))
    assert True in verdicts and False in verdicts


def test_relations_image_lives_in_the_target_power():
    # x -> e0 + e2, y -> e1 + e2 sends xy - yx to a vector of E'^(x)2,
    # dim 3^2 = 9, word (i, j) at index 3i + j
    f = Morphism(commutator_algebra(), full_relations_algebra(3, 2),
                 SparseMatrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]]))
    image = f.relations_image()
    assert image.ambient_dim == 9
    assert image == Subspace.from_vectors(
        QQ, 9, [{1: 1, 2: 1, 3: -1, 5: -1, 6: -1, 7: 1}])


@given(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_word_class_lives_in_component(seed, n):
    rng = rng_from_seed(seed)
    A = random_algebra(2, 2, rng)
    comp = A.component(n)
    for idx in range(2 ** n):
        cls = word_class(A, index_word(idx, 2, n))
        assert all(0 <= pos < comp.dim for pos in cls)


# -- the integer row assembly against the field-scalar one ------------------

def reference_tower(algebra, n_max):
    """Slow oracle: the tower assembled in field scalars with row_axpy.

    Returns, per degree n, (normal words, rmul_cols, rows fed at n).
    """
    field, g, N = algebra.field, algebra.dim_e, algebra.N
    tower = [((0,), None, [])]
    for n in range(1, n_max + 1):
        prev_words = tower[n - 1][0]
        elim = Eliminator(field)
        fed = []
        if n >= N and algebra.relations.dim and prev_words:
            for pu in range(len(tower[n - N][0])):
                cur = {0: {pu: field.one}}
                for k in range(1, N):
                    rmul = tower[n - N + k][1]
                    nxt = {}
                    for pidx, vec in cur.items():
                        for letter in range(g):
                            out = {}
                            for src, c in vec.items():
                                row_axpy(field, out, c, rmul[letter][src])
                            nxt[pidx * g + letter] = out
                    cur = nxt
                for rel in algebra.relations.rows:
                    row = {}
                    for widx, c in rel.items():
                        vpre, last = divmod(widx, g)
                        row_axpy(field, row, c,
                                 {tpos * g + last: tc
                                  for tpos, tc in cur[vpre].items()})
                    if row:
                        fed.append(dict(row))
                        elim.add(row)
        elim.finalize()
        pivot_rows = elim.pivot_rows
        words, col_pos = [], {}
        for col in range(len(prev_words) * g):
            if col not in pivot_rows:
                col_pos[col] = len(words)
                words.append(prev_words[col // g] * g + col % g)
        rmul = [[{col_pos[src * g + letter]: field.one}
                 if src * g + letter not in pivot_rows else
                 {col_pos[c]: field.neg(v)
                  for c, v in pivot_rows[src * g + letter].items()
                  if c != src * g + letter}
                 for src in range(len(prev_words))] for letter in range(g)]
        tower.append((tuple(words), rmul, fed))
    return tower


def tower_algebras():
    """QQ algebras with a/b coefficients and GF(7) ones with 0 mod 7 entries."""
    algebras = [fractional_algebra(2, 2, 2, rng_from_seed(41)),
                fractional_algebra(2, 3, 3, rng_from_seed(42)),
                fractional_algebra(3, 2, 4, rng_from_seed(43)),
                fractional_algebra(2, 3, 4, rng_from_seed(44)),
                fractional_algebra(3, 3, 9, rng_from_seed(12))]
    rng = rng_from_seed(45)
    for g, N, dim_r in ((2, 2, 2), (2, 3, 3), (3, 2, 4), (2, 3, 4), (3, 3, 9)):
        algebras.append(random_algebra(g, N, rng, field=PrimeField(7),
                                       dim_r=dim_r, span=14))
    return algebras


def fed_form(field, row):
    """A fed row as the eliminator stores it, up to a positive scale.

    The tower feeds raw integer rows: over GF(p) they are reduced here,
    and a row may vanish mod p (or cancel over QQ) to the empty row.
    """
    if field.kind == "rational":
        return primitive_row(row)
    return {j: r for j, v in row.items() if (r := v % field.p)}


def test_integer_assembly_matches_field_oracle(monkeypatch):
    fed = []

    class RecordingEliminator(Eliminator):
        def add(self, row):
            fed[-1].append(fed_form(self.field, row))
            return super().add(row)

    def recording_build(self, build=NHomogeneousAlgebra._build_next):
        fed.append([])
        return build(self)

    monkeypatch.setattr(algebra_module, "Eliminator", RecordingEliminator)
    monkeypatch.setattr(NHomogeneousAlgebra, "_build_next", recording_build)
    dens, vanished = [], 0
    for A in tower_algebras():
        field = A.field
        n_max = A.N + 3
        oracle = reference_tower(A, n_max)
        fed.clear()
        A.component(n_max)
        for n in range(1, n_max + 1):
            words, rmul, oracle_fed = oracle[n]
            comp = A.component(n)
            assert comp.normal_words == words
            assert comp.rmul_cols == rmul
            assert ([r for r in fed[n - 1] if r]
                    == [fed_form(field, r) for r in oracle_fed])
            vanished += fed[n - 1].count({})
            assert len(comp.int_cols) == len(rmul)
            for ints_l, cols_l in zip(comp.int_cols, rmul):
                assert len(ints_l) == len(cols_l)
                for ints, col in zip(ints_l, cols_l):
                    assert ints.keys() == col.keys()
                    for pos, v in col.items():
                        assert type(ints[pos]) is int
                        assert ints[pos] == field.mul(field.coerce(comp.den), v)
            dens.append(comp.den)
    assert max(dens) > 1
    assert vanished > 0


@pytest.mark.parametrize("kind", ["rational", "prime"], ids=["QQ", "GF(7)"])
def test_hilbert_dims_leave_the_top_degree_unfinalized(monkeypatch, kind):
    made, finalized = [], []

    class CountingEliminator(Eliminator):
        def __init__(self, field):
            super().__init__(field)
            made.append(self)

        def finalize(self):
            finalized.append(self)
            super().finalize()

    monkeypatch.setattr(algebra_module, "Eliminator", CountingEliminator)
    tables_read = 0
    for A in tower_algebras():
        if A.field.kind != kind:
            continue
        n = A.N + 3
        oracle = reference_tower(A, n)
        made.clear()
        finalized.clear()
        dims = A.hilbert_dims(n)
        assert dims == [len(words) for words, _, _ in oracle]
        # one eliminator per degree 1..n; the top one is never finalized,
        # the lower ones are up to the last degree whose tables were read
        # (none past a zero degree)
        assert len(made) == n
        assert made[-1] not in finalized
        assert finalized == made[:len(finalized)]
        tables_read += len(finalized)
        comp = A.component(n)
        assert made[-1] in finalized
        assert comp.normal_words == oracle[n][0]
        assert comp.rmul_cols == oracle[n][1]
        # the same tables as an algebra built one finished degree at a time
        B = NHomogeneousAlgebra(A.dim_e, A.N, A.relations)
        for k in range(n + 1):
            want, got = B.component(k), A.component(k)
            assert got.normal_words == want.normal_words
            assert got.rmul_cols == want.rmul_cols
            assert got.int_cols == want.int_cols
            assert (got.den, got.lden) == (want.den, want.lden)
            assert got.elim is None
    assert tables_read > 0


def test_integer_tables_keep_the_denominator():
    # x.y = 1/2 y.x and y.y = 0; the normal words of A_2 are x.x and y.x
    rows = [{1: 2, 2: -1}, {3: 1}]
    A = NHomogeneousAlgebra(2, 2, Subspace.from_vectors(QQ, 4, rows))
    comp = A.component(2)
    assert comp.den == 2
    assert comp.rmul_cols[1][0] == {1: QQ.coerce(1) / 2}   # x * y
    assert comp.int_cols[1][0] == {1: 1}
    assert comp.int_cols[0][1] == {1: 2}                   # y * x
    assert A.component(0).int_cols is None and A.component(0).den == 1
    assert A.hilbert_dims(4) == [1, 2, 2, 2, 2]


# -- the integer left multiplication against the field-scalar one -----------

def reference_lmul(algebra, n):
    """Slow oracle: left multiplication A_{n-1} -> A_n in field scalars."""
    field, g = algebra.field, algebra.dim_e
    if n == 1:
        return [[{j: field.one}] for j in range(g)]
    prev, prev2 = algebra.component(n - 1), algebra.component(n - 2)
    lm_prev = reference_lmul(algebra, n - 1)
    rmul = algebra.component(n).rmul_cols
    out = [[None] * prev.dim for _ in range(g)]
    for pos_u, widx in enumerate(prev.normal_words):
        upre, letter = divmod(widx, g)
        for j in range(g):
            vec = {}
            for src, c in lm_prev[j][prev2.word_pos[upre]].items():
                row_axpy(field, vec, c, rmul[letter][src])
            out[j][pos_u] = vec
    return out


def test_integer_lmul_matches_field_oracle():
    ldens = []
    for A in tower_algebras():
        field = A.field
        for n in range(1, A.N + 4):
            lden = A.component(n).lden
            assert lden == A.component(n - 1).lden * A.component(n).den
            oracle = reference_lmul(A, n)
            got = A.lmul(n)
            assert len(got) == len(oracle)
            for got_j, oracle_j in zip(got, oracle):
                assert len(got_j) == len(oracle_j)
                for col, want in zip(got_j, oracle_j):
                    assert col.keys() == want.keys()
                    for pos, v in want.items():
                        assert type(col[pos]) is int
                        assert col[pos] == field.mul(field.coerce(lden), v)
            if field.kind == "prime":
                assert lden == 1
            ldens.append(lden)
    assert max(ldens) > 1
