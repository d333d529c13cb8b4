"""Sparse elimination, and linalg.rref built on it, against a dense
Gauss-Jordan oracle; the sparse accumulate apply_cols against row_axpy."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import (event, example, given, settings, strategies as st,
                        target)

from nkoszul.errors import ContractViolation
from nkoszul.fields import PrimeField, QQ
from nkoszul.linalg import reversed_subspace, rref
from nkoszul.sampling import random_subspace, rng_from_seed
from nkoszul.sparsela import Eliminator, apply_cols, over_common_denominator
from oracles import dense_rows, row_axpy, sparse_rows

SCALARS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)))
# about half the entries zero, so stored rows meet pivots a new row lacks
SPARSE_SCALARS = st.one_of(st.just(0), SCALARS)
GF7 = PrimeField(7)


@st.composite
def qq_rows(draw, scalars=SCALARS):
    """Narrow dense QQ rows: integer and a/b entries, zero and dependent rows."""
    ncols = draw(st.integers(1, 12))
    row = st.lists(scalars, min_size=ncols, max_size=ncols)
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


def gauss_jordan_rref(field, rows, ncols):
    """Dense Gauss-Jordan RREF: (pivot columns, nonzero reduced rows).

    The slow oracle for Eliminator and for linalg.rref, which reads its
    canonical form from an Eliminator.  Works on a copy of rows.
    """
    rows = [row[:] for row in rows]
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = None
        for i in range(prow, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = field.inv(rows[prow][col])
        if inv != field.one:
            rows[prow] = [field.mul(inv, x) for x in rows[prow]]
        for i in range(len(rows)):
            if i != prow and rows[i][col]:
                c = rows[i][col]
                src = rows[prow]
                dst = rows[i]
                for j in range(col, ncols):
                    if src[j]:
                        dst[j] = field.add(dst[j],
                                           field.neg(field.mul(c, src[j])))
        pivots.append(col)
        prow += 1
        if prow == len(rows):
            break
    return pivots, rows[:prow]


def mod7(rows):
    """QQ rows mapped to GF(7); an entry with denominator 7 becomes 0."""
    return [[GF7.coerce(x) if x.denominator % 7 else GF7.zero for x in row]
            for row in rows]


def fed(field, rows):
    elim = Eliminator(field)
    for row in rows:
        elim.add(sparse(row))
    return elim


def multipass_pivot_rows(field, rows):
    """The stored rows before finalize(), by a slow multi-pass loop.

    Each pass clears the pivot columns of the row in ascending order, and
    passes repeat until fill-in brings no stored pivot column back.  Rows
    are reduced in field scalars, then stored as Eliminator stores them:
    over GF(p) with pivot entry 1; over QQ as the primitive integer row
    that is a positive multiple of the reduced row.
    """
    stored = {}
    for row in rows:
        row = sparse(row)
        while True:
            hits = sorted(j for j in row if j in stored)
            if not hits:
                break
            for j in hits:
                if j in row:
                    prow = stored[j]
                    c = field.mul(row[j], field.inv(prow[j]))
                    for k, v in prow.items():
                        s = field.add(row.get(k, field.zero),
                                      field.neg(field.mul(c, v)))
                        if s:
                            row[k] = s
                        else:
                            row.pop(k, None)
        if not row:
            continue
        piv = min(row)
        if field.kind == "rational":
            den = lcm(*(Fraction(v).denominator for v in row.values()))
            nums = {k: int(v * den) for k, v in row.items()}
            g = gcd(*nums.values())
            stored[piv] = {k: v // g for k, v in nums.items()}
        else:
            inv = field.inv(row[piv])
            stored[piv] = {k: field.mul(inv, v) for k, v in row.items()}
    return stored


@settings(max_examples=80, deadline=None)
@given(qq_rows())
def test_rref_matches_dense_oracle(case):
    ncols, rows = case
    pivots, red = gauss_jordan_rref(QQ, rows, ncols)
    elim = fed(QQ, rows)
    elim.finalize()
    assert sorted(elim.pivot_rows) == pivots
    assert [dense(QQ, ncols, elim.pivot_rows[p]) for p in pivots] == red


@st.composite
def wide_qq_rows(draw):
    """At least 200 columns and 8 rows, each row a few entries on a
    shared handful of columns, so rows meet each other's pivots; zero and
    dependent rows included."""
    ncols = draw(st.integers(200, 260))
    hot = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=14,
                        unique=True))
    nonzero = st.one_of(st.integers(1, 6), st.integers(-6, -1),
                        st.builds(Fraction, st.integers(1, 9),
                                  st.integers(2, 8)))
    entries = st.dictionaries(st.sampled_from(hot), nonzero, max_size=5)
    rows = [dense(QQ, ncols, {j: QQ.coerce(v) for j, v in row.items()})
            for row in draw(st.lists(entries, min_size=8, max_size=12))]
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows))
        c = QQ.coerce(draw(SCALARS))
        rows.append([x + c * y for x, y in zip(a, b)])
    return ncols, rows


@settings(max_examples=80, deadline=None)
@given(st.one_of(qq_rows(SPARSE_SCALARS), wide_qq_rows()),
       st.sampled_from([QQ, GF7]))
@example((5, []), QQ)
@example((250, []), GF7)
def test_linalg_rref_matches_dense_oracle(case, field):
    ncols, rows = case
    if field is GF7:
        rows = mod7(rows)
    event("at least 200 columns" if ncols >= 200 else "narrow")
    pivots, red = gauss_jordan_rref(field, rows, ncols)
    got_rows, got = rref(field, sparse_rows(rows))
    assert list(got) == pivots
    assert [dense(field, ncols, row) for row in got_rows] == red
    scalar_type = type(field.one)
    assert all(type(v) is scalar_type
               for row in got_rows for v in row.values())


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF(7)"])
def test_descending_rref_is_the_reversed_rref(field):
    for seed in range(40):
        rng = rng_from_seed(seed)
        amb = rng.choice([2, 4, 8, 9, 16, 27])
        rel = random_subspace(field, amb, rng)
        flipped = [row[::-1] for row in dense_rows(rel)]
        pivots, red = gauss_jordan_rref(field, flipped, amb)
        got = reversed_subspace(rel)
        assert list(got.pivots) == pivots
        assert dense_rows(got) == red


@settings(max_examples=80, deadline=None)
@given(qq_rows())
def test_rank_and_pivot_rows_before_finalize(case):
    ncols, rows = case
    pivots, red = gauss_jordan_rref(QQ, rows, ncols)
    elim = fed(QQ, rows)
    assert elim.rank == len(pivots)
    assert sorted(elim.pivot_rows) == pivots
    # the unfinalized rows are echelon rows spanning the same space
    stored = [dense(QQ, ncols, elim.pivot_rows[p]) for p in pivots]
    for p in pivots:
        assert min(elim.pivot_rows[p]) == p
    assert gauss_jordan_rref(QQ, stored, ncols) == (pivots, red)


@settings(max_examples=40, deadline=None)
@given(qq_rows())
def test_finalize_is_idempotent_and_yields_field_scalars(case):
    _ncols, rows = case
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


@settings(max_examples=80, deadline=None)
@given(qq_rows())
def test_prime_field_rank_and_pivot_rows_before_finalize(case):
    ncols, rows = case
    rows = mod7(rows)
    pivots, red = gauss_jordan_rref(GF7, rows, ncols)
    elim = fed(GF7, rows)
    assert elim.rank == len(pivots)
    assert sorted(elim.pivot_rows) == pivots
    for p in pivots:
        assert min(elim.pivot_rows[p]) == p
        assert elim.pivot_rows[p][p] == 1
    stored = [dense(GF7, ncols, elim.pivot_rows[p]) for p in pivots]
    assert gauss_jordan_rref(GF7, stored, ncols) == (pivots, red)


@settings(max_examples=40, deadline=None)
@given(qq_rows())
def test_prime_field_matches_dense_oracle(case):
    ncols, rows = case
    rows = mod7(rows)
    pivots, red = gauss_jordan_rref(GF7, rows, ncols)
    elim = fed(GF7, rows)
    assert sorted(elim.pivot_rows) == pivots
    elim.finalize()
    assert [dense(GF7, ncols, elim.pivot_rows[p]) for p in pivots] == red


def column_by_column_rref(elim):
    """The RREF of a forward-reduced Eliminator, by the slow column loop.

    For each pivot column, from the largest down, every stored row that
    holds it is cleared of it, rescanning all rows; the clearing runs in
    field scalars, and each row is then scaled to pivot entry one.  It
    works on a copy and leaves elim as it was.
    """
    field = elim.field
    rows = {piv: {j: field.coerce(v) for j, v in row.items()}
            for piv, row in elim.pivot_rows.items()}
    for piv in sorted(rows, reverse=True):
        src = rows[piv]
        for other, row in rows.items():
            if other < piv and piv in row:
                c = field.mul(row[piv], field.inv(src[piv]))
                for k, v in src.items():
                    s = field.add(row.get(k, field.zero),
                                  field.neg(field.mul(c, v)))
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
    return {piv: {j: field.mul(v, field.inv(row[piv]))
                  for j, v in row.items()}
            for piv, row in rows.items()}


def pivot_hits(elim):
    """Most other pivot columns a stored row holds before finalize()."""
    rows = elim.pivot_rows
    return max((sum(1 for j in row if j != piv and j in rows)
                for piv, row in rows.items()), default=0)


@settings(max_examples=60, deadline=None)
@given(st.one_of(qq_rows(), qq_rows(SPARSE_SCALARS)),
       st.sampled_from([QQ, GF7]))
def test_one_pass_finalize_matches_column_by_column(case, field):
    _ncols, rows = case
    if field is GF7:
        rows = mod7(rows)
    elim = fed(field, rows)
    hits = pivot_hits(elim)
    target(hits)
    event("three or more pivot hits" if hits >= 3 else "fewer pivot hits")
    want = column_by_column_rref(elim)
    elim.finalize()
    assert elim.pivot_rows == want


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF(7)"])
def test_one_pass_finalize_frozen_case(field):
    rows = [{0: 2, 1: 3, 2: -1, 3: 4, 5: 1},
            {1: 1, 2: Fraction(1, 2), 3: -2, 4: 3},
            {2: 3, 3: 1, 4: -1, 5: 2},
            {3: Fraction(2, 3), 4: 1, 5: 5}]
    elim = Eliminator(field)
    for row in rows:
        elim.add({j: field.coerce(v) for j, v in row.items()})
    assert sorted(elim.pivot_rows) == [0, 1, 2, 3]
    assert pivot_hits(elim) == 3         # row 0 holds pivots 1, 2 and 3
    want = column_by_column_rref(elim)
    elim.finalize()
    assert elim.pivot_rows == want
    c = field.coerce
    if field is QQ:
        assert elim.pivot_rows == {
            0: {0: c(1), 4: c("-313/24"), 5: c("-943/24")},
            1: {1: c(1), 4: c("77/12"), 5: c("191/12")},
            2: {2: c(1), 4: c("-5/6"), 5: c("-11/6")},
            3: {3: c(1), 4: c("3/2"), 5: c("15/2")}}
    else:
        assert elim.pivot_rows == {0: {0: 1, 4: 3, 5: 3}, 1: {1: 1, 5: 6},
                                   2: {2: 1, 4: 5, 5: 4},
                                   3: {3: 1, 4: 5, 5: 4}}
    dense_rows = [dense(field, 6, {j: c(v) for j, v in row.items()})
                  for row in rows]
    pivots, red = gauss_jordan_rref(field, dense_rows, 6)
    assert [dense(field, 6, elim.pivot_rows[p]) for p in pivots] == red


@settings(max_examples=100, deadline=None)
@given(qq_rows(SPARSE_SCALARS), st.sampled_from([QQ, GF7]))
def test_single_pass_stores_the_multipass_rows(case, field):
    _ncols, rows = case
    if field is GF7:
        rows = mod7(rows)
    elim = fed(field, rows)
    assert elim.pivot_rows == multipass_pivot_rows(field, rows)


def test_fill_in_brings_a_pivot_the_row_lacked():
    # clearing column 0 of {0: 1, 3: 1} with the row stored at pivot 0
    # creates column 1, which is itself a stored pivot
    elim = Eliminator(QQ)
    assert elim.add({0: QQ.coerce(2), 1: QQ.coerce(3)}) == 0
    assert elim.add({1: QQ.one, 2: QQ.coerce(5)}) == 1
    assert elim.add({0: QQ.one, 3: QQ.one}) == 2
    assert elim.pivot_rows == {0: {0: 2, 1: 3}, 1: {1: 1, 2: 5},
                               2: {2: 15, 3: 2}}

    elim = Eliminator(GF7)
    assert elim.add({0: 2, 1: 3}) == 0
    assert elim.add({1: 1, 2: 5}) == 1
    assert elim.add({0: 1, 3: 1}) == 2
    assert elim.pivot_rows == {0: {0: 1, 1: 5}, 1: {1: 1, 2: 5},
                               2: {2: 1, 3: 2}}


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF(7)"])
def test_row_cancels_to_empty_after_fill_in(field):
    # {0: 1, 2: -2} = P0 - 2*P1; clearing column 0 creates column 1
    elim = Eliminator(field)
    one, two = field.one, field.coerce(2)
    assert elim.add({0: one, 1: two}) == 0
    assert elim.add({1: one, 2: one}) == 1
    assert elim.add({0: one, 2: field.neg(two)}) is None
    assert elim.rank == 2
    assert sorted(elim.pivot_rows) == [0, 1]


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


# -- apply_cols against the field-method oracle ------------------------------

QQ_ENTRIES = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                       st.integers(1, 4))
# unreduced weights and entries, some of them 0 mod 7
GF7_ENTRIES = st.one_of(st.integers(-30, 30), st.sampled_from([7, -14, 21]))
GF7_UNITS = st.integers(-30, 30).filter(lambda c: c % 7)


@st.composite
def column_sums(draw, entries, units, inverse):
    """(cols, vec): sparse columns and a sparse vector over their indices.

    One more column, when drawn, cancels the contribution of another in
    full, so some sums cancel whatever the other entries are.
    """
    nsrc = draw(st.integers(1, 5))
    col = st.dictionaries(st.integers(0, 6), entries, max_size=5)
    cols = draw(st.lists(col, min_size=nsrc, max_size=nsrc))
    vec = draw(st.dictionaries(st.integers(0, nsrc - 1), entries))
    if vec and draw(st.booleans()):
        src = draw(st.sampled_from(sorted(vec)))
        c = draw(units)
        cols.append({j: -vec[src] * v * inverse(c)
                     for j, v in cols[src].items()})
        vec[len(cols) - 1] = c
    return cols, vec


def check_apply_cols(field, cols, vec):
    before = ([dict(col) for col in cols], dict(vec))
    got = apply_cols(field.p, cols, vec)
    assert ([dict(col) for col in cols], dict(vec)) == before
    want = {}
    for src, c in vec.items():
        row_axpy(field, want, c, cols[src])
    # row_axpy keeps a first product that is 0 mod p; apply_cols drops it
    assert got == {j: v for j, v in want.items() if v}
    return got


@given(column_sums(QQ_ENTRIES, QQ_ENTRIES, lambda c: 1 / c))
@example(([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(-1, 4)}],
          {0: Fraction(1), 1: Fraction(2)}))
def test_apply_cols_matches_row_axpy_over_qq(case):
    cols, vec = case
    got = check_apply_cols(QQ, cols, vec)
    assert all(type(v) is Fraction for v in got.values())


@given(column_sums(GF7_ENTRIES, GF7_UNITS, lambda c: pow(c, -1, 7)))
@example(([{0: 3, 1: 7}, {0: 2, 2: -14}], {0: 3, 1: 6}))
def test_apply_cols_matches_row_axpy_over_gf7(case):
    cols, vec = case
    got = check_apply_cols(GF7, cols, vec)
    assert all(0 < v < 7 for v in got.values())


def test_over_common_denominator_keeps_prime_field_tables():
    tables = [[{0: 3}, {}], [{1: 6}]]
    out, den = over_common_denominator(GF7, tables)
    assert out is tables and den == 1


def test_over_common_denominator_on_integer_tables():
    out, den = over_common_denominator(
        QQ, [[{0: QQ.coerce(3)}, {}], [{1: QQ.coerce(-2)}]])
    assert den == 1
    assert out == [[{0: 3}, {}], [{1: -2}]]
    assert all(type(v) is int for table in out for col in table
               for v in col.values())


def test_over_common_denominator_takes_the_lcm():
    tables = [[{0: Fraction(1, 2), 2: Fraction(-5, 3)}], [{1: Fraction(7, 4)}]]
    out, den = over_common_denominator(QQ, tables)
    assert den == 12
    assert out == [[{0: 6, 2: -20}], [{1: 21}]]
