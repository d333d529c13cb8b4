"""Exact linear algebra: sparse RREF, ranks, kernels, subspace lattice,
and the sparse matrix type."""

from copy import deepcopy

import pytest
from hypothesis import given, settings, strategies as st

from nkoszul.errors import DimensionMismatch
from nkoszul.fields import PrimeField, QQ
from nkoszul.linalg import Subspace, rank, rref
from nkoszul.sparsela import SparseMatrix
from nkoszul.words import annihilator
from oracles import compose, sparse_rows, subspace_intersect


def subspace_sum(a, b):
    """The span of both canonical bases."""
    return Subspace.from_vectors(a.field, a.ambient_dim, a.rows + b.rows)


def test_rref_frozen_rational():
    rows = [{0: 2, 1: 4, 2: 6}, {0: 1, 1: 2, 2: 4}, {2: 1}]
    red, pivots = rref(QQ, [{j: QQ.coerce(v) for j, v in row.items()}
                            for row in rows])
    assert red == ({0: 1, 1: 2}, {2: 1})
    assert pivots == (0, 2)


def test_rref_frozen_gf2():
    # over GF(2) the two equal rows collapse to one
    red, pivots = rref(PrimeField(2), [{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert red == ({0: 1, 1: 1},)
    assert pivots == (0,)


def test_rref_fractions_stay_exact():
    red, pivots = rref(QQ, [{0: QQ.coerce("1/3"), 1: QQ.one},
                            {0: QQ.one, 1: QQ.coerce(3)}])
    assert red == ({0: 1, 1: 3},)
    assert pivots == (0,)


def test_prime_field_ignores_entries_that_vanish_mod_p():
    # Eliminator.add takes GF(p) rows in stored form; rank and rref
    # settle theirs, so integer entries that vanish mod p drop out
    gf7 = PrimeField(7)
    for row in ({0: 0, 2: 3}, {0: 7, 2: 3}):
        assert rank(SparseMatrix(gf7, 3, 1, [row])) == 1
        assert rref(gf7, [row]) == (({2: 1},), (2,))
    rows = [{0: 7, 2: 3}, {0: 14}, {1: 0, 2: 6}]
    assert rank(SparseMatrix(gf7, 3, 3, rows)) == 1
    assert rref(gf7, rows) == (({2: 1},), (2,))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
def test_rank_and_rref_leave_their_inputs_alone(field):
    # the rows meet each other's pivots, so an elimination in place
    # would change them; over GF(7) the 9 and the 7 are unreduced
    rows = [{0: field.coerce(2), 1: field.one},
            {0: field.one, 1: field.coerce(3), 2: field.one},
            {1: field.coerce(5), 2: field.coerce(2)}]
    if field.p:
        rows.append({0: 9, 2: 7})
    before = deepcopy(rows)
    rref(field, rows)
    assert rows == before
    matrix = SparseMatrix(field, 3, len(rows), rows)
    rank(matrix)
    assert matrix.cols == before


def kernel(rows, ncols):
    """The null space of dense rows."""
    return annihilator(Subspace.from_vectors(QQ, ncols, sparse_rows(rows)))


def test_kernel_image_frozen():
    rows = [[1, 0, 1], [0, 1, 1]]
    ker = kernel(rows, 3)
    assert ker.dim == 1
    assert ker.contains_vector({0: 1, 1: 1, 2: -1})
    assert rank(SparseMatrix.from_rows(QQ, rows)) == 2


def test_matrix_multiply_and_apply():
    a = SparseMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = SparseMatrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert compose(a, b) == SparseMatrix.from_rows(QQ, [[2, 1], [4, 3]])
    assert a.apply({0: QQ.one, 1: QQ.one}) == {0: 3, 1: 7}
    assert SparseMatrix.identity(PrimeField(7), 2) == SparseMatrix.from_rows(
        PrimeField(7), [[8, 7], [0, 1]])
    assert a != SparseMatrix.from_rows(PrimeField(7), [[1, 2], [3, 4]])
    assert a != b


def test_subspace_lattice_frozen():
    U = Subspace.from_vectors(QQ, 3, [{0: 1}, {1: 1}])
    V = Subspace.from_vectors(QQ, 3, [{1: 1}, {2: 1}])
    assert subspace_intersect(U, V).dim == 1
    assert subspace_sum(U, V).dim == 3
    assert subspace_intersect(U, V).contains_vector({1: 1})


def test_subspace_equality_is_canonical():
    U = Subspace.from_vectors(QQ, 2, [{0: 1, 1: 1}, {0: 1, 1: -1}])
    V = Subspace.from_vectors(QQ, 2, [{0: 1}, {1: 1}])
    assert U == V
    assert hash(U) == hash(V)


def test_dimension_validation():
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_rows(QQ, [[1, 2], [1]])
    a = SparseMatrix.from_rows(QQ, [[1, 2]])
    b = SparseMatrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        compose(a, b)


def test_explicit_width_must_match_the_rows():
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_rows(QQ, [[1, 2]], ncols=3)
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_rows(QQ, [])
    assert SparseMatrix.from_rows(QQ, [[1, 2]], ncols=2).ncols == 2
    assert SparseMatrix.from_rows(QQ, [], ncols=3).ncols == 3


def test_coordinates_must_lie_in_the_ambient_space():
    for bad in ({3: 1}, {0: 1, -1: 2}):
        with pytest.raises(DimensionMismatch):
            Subspace.from_vectors(QQ, 3, [bad])
        with pytest.raises(DimensionMismatch):
            Subspace.full(QQ, 3).contains_vector(bad)
    line = Subspace.from_vectors(QQ, 3, [{0: 1, 1: 1}])
    assert line.contains_vector({0: 2, 1: 2})
    assert not line.contains_vector({0: 1, 1: 2})
    assert not line.contains_vector({1: 1})
    # scalars are coerced: 8 is 1 in GF(7), and 7 is 0
    line = Subspace.from_vectors(PrimeField(7), 3, [{0: 1, 1: 1}])
    assert line.contains_vector({0: 8, 1: 1, 2: 7})


small = st.integers(min_value=-6, max_value=6)


@st.composite
def qq_matrix(draw, max_side=5):
    """Dense integer rows of an n x m matrix."""
    n = draw(st.integers(min_value=1, max_value=max_side))
    m = draw(st.integers(min_value=1, max_value=max_side))
    return draw(st.lists(
        st.lists(small, min_size=m, max_size=m), min_size=n, max_size=n))


@given(qq_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    ncols = len(rows[0])
    assert kernel(rows, ncols).dim + rank(
        SparseMatrix.from_rows(QQ, rows)) == ncols
    # rank eliminates the columns; rref back-substitutes the rows
    for field in (QQ, PrimeField(7)):
        m = SparseMatrix.from_rows(field, rows)
        sparse = [{j: field.coerce(v) for j, v in row.items()}
                  for row in sparse_rows(rows)]
        assert rank(m) == len(rref(field, sparse)[1])


@given(qq_matrix(max_side=4), qq_matrix(max_side=4))
@settings(max_examples=40, deadline=None)
def test_grassmann_identity(a, b):
    amb = max(len(a[0]), len(b[0]))
    U = Subspace.from_vectors(QQ, amb, sparse_rows(a))
    V = Subspace.from_vectors(QQ, amb, sparse_rows(b))
    both = subspace_intersect(U, V)
    total = subspace_sum(U, V)
    assert U.dim + V.dim == both.dim + total.dim


@given(qq_matrix())
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(rows):
    red, pivots = rref(QQ, sparse_rows(rows))
    assert rref(QQ, red) == (red, pivots)


@given(qq_matrix())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_map_to_zero(rows):
    mat = SparseMatrix.from_rows(QQ, rows)
    for row in kernel(rows, mat.ncols).rows:
        assert mat.apply(row) == {}
