"""Sparse elimination against the dense Gauss-Jordan oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nkoszul.errors import ContractViolation
from nkoszul.fields import GF, QQ
from nkoszul.linalg import Matrix, rref
from nkoszul.sparsela import Eliminator

SCALARS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)))


@st.composite
def qq_rows(draw):
    """Narrow dense QQ rows: integer and a/b entries, zero and dependent rows."""
    ncols = draw(st.integers(1, 12))
    row = st.lists(SCALARS, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows))
        c = draw(SCALARS)
        rows.append([x + c * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [[QQ.coerce(x) for x in rows[i]] for i in order]


def sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def dense(field, ncols, row):
    out = [field.zero] * ncols
    for j, v in row.items():
        out[j] = v
    return out


def oracle(field, ncols, rows):
    """The dense Gauss-Jordan branch of linalg.rref (narrow matrices)."""
    assert ncols < 200
    red, pivots = rref(Matrix(field, len(rows), ncols, rows))
    return list(pivots), red.rows


def fed(field, rows):
    elim = Eliminator(field)
    for row in rows:
        elim.add(sparse(row))
    return elim


@settings(max_examples=80, deadline=None)
@given(qq_rows())
def test_rref_matches_dense_oracle(case):
    ncols, rows = case
    pivots, red = oracle(QQ, ncols, rows)
    elim = fed(QQ, rows)
    elim.finalize()
    assert elim.pivots() == pivots
    assert [dense(QQ, ncols, elim.pivot_rows[p]) for p in pivots] == red


@settings(max_examples=80, deadline=None)
@given(qq_rows())
def test_rank_and_pivot_rows_before_finalize(case):
    ncols, rows = case
    pivots, red = oracle(QQ, ncols, rows)
    elim = fed(QQ, rows)
    assert elim.rank == len(pivots)
    assert elim.pivots() == pivots
    # the unfinalized rows are echelon rows spanning the same space
    stored = [dense(QQ, ncols, elim.pivot_rows[p]) for p in pivots]
    for p in pivots:
        assert min(elim.pivot_rows[p]) == p
    assert oracle(QQ, ncols, stored) == (pivots, red)


@settings(max_examples=40, deadline=None)
@given(qq_rows())
def test_finalize_is_idempotent_and_yields_field_scalars(case):
    ncols, rows = case
    elim = fed(QQ, rows)
    elim.finalize()
    first = {p: dict(row) for p, row in elim.pivot_rows.items()}
    elim.finalize()
    assert elim.pivot_rows == first
    scalar_type = type(QQ.one)
    for p, row in elim.pivot_rows.items():
        assert row[p] == QQ.one
        assert all(type(v) is scalar_type and v for v in row.values())
    with pytest.raises(ContractViolation):
        elim.add({0: QQ.one})


@settings(max_examples=40, deadline=None)
@given(qq_rows())
def test_prime_field_matches_dense_oracle(case):
    ncols, rows = case
    F = GF(7)
    rows = [[F.coerce(x) if x.denominator % 7 else F.zero for x in row]
            for row in rows]
    pivots, red = oracle(F, ncols, rows)
    elim = fed(F, rows)
    assert elim.pivots() == pivots
    elim.finalize()
    assert [dense(F, ncols, elim.pivot_rows[p]) for p in pivots] == red


def test_add_reports_pivot_or_none():
    elim = Eliminator(QQ)
    half = QQ.coerce("1/2")
    assert elim.add({1: half, 3: QQ.coerce(3)}) == 1
    assert elim.add({1: QQ.one, 3: QQ.coerce(6)}) is None
    assert elim.add({}) is None
    assert elim.add({0: QQ.coerce("-2/3"), 1: QQ.one}) == 0
    assert elim.rank == 2
    elim.finalize()
    assert elim.pivot_rows == {0: {0: QQ.one, 3: QQ.coerce(9)},
                               1: {1: QQ.one, 3: QQ.coerce(6)}}
