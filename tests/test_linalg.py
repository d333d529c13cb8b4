"""Exact dense linear algebra: RREF, ranks, kernels, subspace lattice."""

import pytest
from hypothesis import given, settings, strategies as st

from nkoszul.errors import DimensionMismatch
from nkoszul.fields import GF, QQ
from nkoszul.linalg import Matrix, Subspace, kernel, rank, rref
from oracles import subspace_intersect


def subspace_sum(a, b):
    """The span of both canonical bases."""
    return Subspace.from_vectors(a.field, a.ambient_dim,
                                 a.basis.rows + b.basis.rows)


def test_rref_frozen_rational():
    mat = Matrix.from_rows(QQ, [[2, 4, 6], [1, 2, 4], [0, 0, 1]])
    red, pivots = rref(mat)
    assert [list(r) for r in red.rows] == [
        [1, 2, 0], [0, 0, 1]]
    assert list(pivots) == [0, 2]


def test_rref_frozen_gf2():
    # over GF(2) the two equal rows collapse to one
    red, pivots = rref(Matrix.from_rows(GF(2), [[1, 1], [1, 1]]))
    assert [list(r) for r in red.rows] == [[1, 1]]
    assert list(pivots) == [0]


def test_rref_fractions_stay_exact():
    mat = Matrix.from_rows(QQ, [[QQ.coerce("1/3"), 1], [1, 3]])
    red, pivots = rref(mat)
    assert [list(r) for r in red.rows] == [[1, 3]]
    assert list(pivots) == [0]


def test_kernel_image_frozen():
    f = Matrix.from_rows(QQ, [[1, 0, 1], [0, 1, 1]])
    ker = kernel(f)
    assert ker.dim == 1
    assert ker.contains_vector([1, 1, -1])
    assert rank(f) == 2


def test_matrix_multiply_and_apply():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    prod = a.mul(b)
    assert [list(r) for r in prod.rows] == [[2, 1], [4, 3]]
    assert a.apply([1, 1]) == [QQ.coerce(3), QQ.coerce(7)]


def test_subspace_lattice_frozen():
    U = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    V = Subspace.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(U, V).dim == 1
    assert subspace_sum(U, V).dim == 3
    assert subspace_intersect(U, V).contains_vector([0, 1, 0])


def test_subspace_equality_is_canonical():
    U = Subspace.from_vectors(QQ, 2, [[1, 1], [1, -1]])
    V = Subspace.from_vectors(QQ, 2, [[1, 0], [0, 1]])
    assert U == V
    assert hash(U) == hash(V)


def test_dimension_validation():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2], [1]])
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        a.mul(b)


def test_explicit_width_must_match_the_rows():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2]], ncols=3)
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors(QQ, 3, [[1, 2]])
    assert Matrix.from_rows(QQ, [[1, 2]], ncols=2).ncols == 2
    assert Matrix.from_rows(QQ, [], ncols=3).ncols == 3


small = st.integers(min_value=-6, max_value=6)


@st.composite
def qq_matrix(draw, max_side=5):
    n = draw(st.integers(min_value=1, max_value=max_side))
    m = draw(st.integers(min_value=1, max_value=max_side))
    rows = draw(st.lists(
        st.lists(small, min_size=m, max_size=m), min_size=n, max_size=n))
    return Matrix.from_rows(QQ, rows)


@given(qq_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(mat):
    assert kernel(mat).dim + rank(mat) == mat.ncols
    # rank reads the forward elimination; rref back-substitutes
    for field in (QQ, GF(7)):
        m = Matrix.from_rows(field, mat.rows)
        assert rank(m) == len(rref(m)[1])


@given(qq_matrix(max_side=4), qq_matrix(max_side=4))
@settings(max_examples=40, deadline=None)
def test_grassmann_identity(a, b):
    amb = max(a.ncols, b.ncols)
    U = Subspace.from_vectors(QQ, amb, [list(r) + [0] * (amb - a.ncols)
                                        for r in a.rows])
    V = Subspace.from_vectors(QQ, amb, [list(r) + [0] * (amb - b.ncols)
                                        for r in b.rows])
    both = subspace_intersect(U, V)
    total = subspace_sum(U, V)
    assert U.dim + V.dim == both.dim + total.dim


@given(qq_matrix())
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(mat):
    red, pivots = rref(mat)
    again, pivots2 = rref(red)
    assert [list(r) for r in red.rows] == [list(r) for r in again.rows]
    assert list(pivots) == list(pivots2)


@given(qq_matrix())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_map_to_zero(mat):
    ker = kernel(mat)
    zero = [QQ.zero] * mat.nrows
    for row in ker.basis.rows:
        assert mat.apply(list(row)) == zero
