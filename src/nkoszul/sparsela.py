"""Sparse exact row reduction: the package's one elimination kernel.

Rows are dicts {column index: nonzero scalar}, because graded pieces of
tensor algebras are huge and mostly empty.  ``Eliminator`` is the only
elimination loop: the graded tower, the complex ranks and Tor feed it
sparse rows, and ``linalg`` reads every canonical form (``rref`` and the
subspaces built on it) from its finalized rows.

``Eliminator`` reduces each incoming row in a single ascending pass over
the stored pivot columns it meets, fill-in included, with one clearing
step per field.  Over GF(p) the step is an inlined ``row -= c*prow mod
p`` on field scalars, and the row is taken over as given: it must come
in the stored form (scalars in [1, p), no zeros), which each feeder
settles once, where it makes the row, and it is reduced in place.
Over QQ the eliminator works fraction-free: each incoming row is
copied, cleared of denominators and of its content, reduced as an
integer row (Bareiss-style, ``row := (p*row - c*prow) / gcd(c, p)``),
and loses its content once more at the end of the pass.  Only
``Eliminator.finalize`` turns the stored rows back into field scalars,
after back-substituting in one pass per row, from the largest pivot
down, with the same clearing step.

``apply_cols`` is the package's one sparse accumulate: a sparse vector
pushed through sparse columns in one loop for every field, settled mod
p once at the end.  Like ``settled`` it takes the characteristic
``field.p``, 0 over QQ.  ``over_common_denominator`` turns QQ tables of
sparse columns into integer tables over one denominator.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import ContractViolation, DimensionMismatch


def settled(vec, p):
    """An integer row without its zeros, reduced mod p unless p is 0."""
    if p:
        return {j: r for j, v in vec.items() if (r := v % p)}
    return {j: v for j, v in vec.items() if v}


def apply_cols(p, cols, vec):
    """Sum of c * cols[src] over the entries src: c of vec, as a new dict.

    p is the characteristic ``field.p``.  The scalars (ints, or Fractions
    over QQ) are multiplied and added as given, and a sum that is exactly
    0 is dropped.  Over GF(p) the sums are reduced mod p once, at the
    end, so the scalars given need not be; over QQ (p = 0) they are
    returned as accumulated.  Neither vec nor the columns are changed.
    """
    out = {}
    get = out.get
    for src, c in vec.items():
        for j, v in cols[src].items():
            s = get(j, 0) + c * v
            if s:
                out[j] = s
            elif j in out:
                del out[j]
    return settled(out, p) if p else out


def over_common_denominator(field, tables):
    """(int_tables, den): tables of sparse columns as ints over one denominator.

    tables is a list of tables, each a list of sparse columns.  Over QQ,
    den is the lcm of the denominators of all their entries and
    int_tables[l][s] is den times tables[l][s]; over GF(p) the tables are
    returned as they are, with den 1.
    """
    if field.p:
        return tables, 1
    den = lcm(*{v.denominator for table in tables for col in table
                for v in col.values()})
    return [[{j: v.numerator * (den // v.denominator)
              for j, v in col.items()} for col in table]
            for table in tables], den


def transpose_cols(cols, tgt_dim):
    """Per factor: sparse columns of a map into tgt_dim, as its rows."""
    out = []
    for col_l in cols:
        rows = [{} for _ in range(tgt_dim)]
        for src, entries in enumerate(col_l):
            for tgt, c in entries.items():
                rows[tgt][src] = c
        out.append(rows)
    return out


def primitive_row(row):
    """The integer row proportional to a QQ row, with content 1."""
    den = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        out = {j: v.numerator for j, v in row.items() if v}
    else:
        out = {j: v.numerator * (den // v.denominator)
               for j, v in row.items() if v}
    remove_content(out)
    return out


def remove_content(row):
    """Divide an integer row, in place, by the gcd of its entries."""
    if row:
        content = gcd(*row.values())
        if content != 1:
            for j in row:
                row[j] //= content


def int_eliminate(row, j, prow, pivot_rows, heap):
    """row := (p*row - c*prow) / gcd(c, p) in place, which clears column j.

    Here c = row[j] and p = prow[j]; both rows hold integers.  The
    combination is negated when p < 0, so row's multiplier is positive.
    Every column the step creates that is a key of pivot_rows is pushed
    onto heap.  It is not ``apply_cols``: it works on row in place, scales
    it, and must see each column the step creates.
    """
    c, p = row[j], prow[j]
    g = gcd(c, p)
    if p < 0:
        g = -g
    c //= g
    p //= g
    if p != 1:
        for k in row:
            row[k] *= p
    get = row.get
    for k, v in prow.items():
        cur = get(k)
        if cur is None:
            row[k] = -c * v
            if k in pivot_rows:
                heappush(heap, k)
        else:
            s = cur - c * v
            if s:
                row[k] = s
            else:
                del row[k]


def gf_eliminator(p):
    """The GF(p) twin of int_eliminate: row -= row[j] * prow, mod p.

    prow has entry 1 at j, so the row is not scaled and keeps its
    scalars in [1, p).
    """
    def gf_eliminate(row, j, prow, pivot_rows, heap):
        c = row[j]
        get = row.get
        for k, v in prow.items():
            cur = get(k)
            if cur is None:
                row[k] = -c * v % p
                if k in pivot_rows:
                    heappush(heap, k)
            else:
                s = (cur - c * v) % p
                if s:
                    row[k] = s
                else:
                    del row[k]
    return gf_eliminate


class Eliminator:
    """Incremental Gaussian elimination with ascending column pivots.

    Feed rows with add(); finalize() back-substitutes so the stored rows
    become the unique RREF of everything fed in.  Callers that need only
    the rank or the pivot columns need not finalize.

    add() reduces a row in one ascending pass: a heap holds the row's
    columns that are stored pivots, and the smallest one is cleared next.
    Clearing column j only creates columns right of j (a stored row is zero
    left of its pivot), so a cleared column never comes back, and each new
    column that is a stored pivot is pushed as it appears.

    ``pivot_rows`` maps each pivot column to its stored row and may be read
    at any time.  Over GF(p) every stored row has entry 1 at its pivot.
    Over QQ, until finalize(), the stored rows are primitive integer rows
    forming an echelon basis of the rows fed so far; a pivot entry is any
    nonzero integer, and ``rank`` and the pivot columns are already exact.
    After finalize() the stored rows are, over every field, the canonical
    RREF in the field's scalar type, each with entry ``field.one`` at its
    pivot.
    """

    def __init__(self, field):
        self.field = field
        self.pivot_rows = {}  # pivot column -> row dict
        self._integer_rows = not field.p
        self._finalized = False
        self._clear = (int_eliminate if self._integer_rows
                       else gf_eliminator(field.p))

    def add(self, row):
        """Reduce and store row; returns its pivot column or None.

        Over GF(p) the row must come in the stored form, scalars in
        [1, p) and no zeros (``settled`` gives it), and is taken over:
        it is reduced in place and may become a stored row.  Over QQ the
        row is left as it is, and a primitive integer copy is reduced.
        """
        if self._finalized:
            raise ContractViolation("eliminator already finalized")
        integer = self._integer_rows
        if integer:
            row = primitive_row(row)
        pivot_rows = self.pivot_rows
        heap = [j for j in row if j in pivot_rows]
        if heap:
            heapify(heap)
            clear = self._clear
            while heap:
                j = heappop(heap)
                if j in row:
                    clear(row, j, pivot_rows[j], pivot_rows, heap)
            if integer:
                remove_content(row)
        if not row:
            return None
        piv = min(row)
        if not integer and row[piv] != 1:
            p = self.field.p
            inv = pow(row[piv], -1, p)
            for j in row:
                row[j] = row[j] * inv % p
        pivot_rows[piv] = row
        return piv

    @property
    def rank(self):
        return len(self.pivot_rows)

    def finalize(self):
        """Back-substitute to full RREF (idempotent).

        One pass per stored row, in descending pivot order.  Every row
        below the current one (larger pivot) is already reduced, so it is
        zero at every other pivot column: clearing a pivot hit of the
        current row creates no new one, and each hit is cleared once.
        Over QQ the row loses its content once, after its last hit.
        """
        if self._finalized:
            return
        pivot_rows = self.pivot_rows
        clear = self._clear
        for piv in sorted(pivot_rows, reverse=True):
            row = pivot_rows[piv]
            hits = [j for j in row if j != piv and j in pivot_rows]
            for j in hits:
                # a reduced stored row brings no pivots to queue
                clear(row, j, pivot_rows[j], (), None)
            if hits and self._integer_rows:
                remove_content(row)
        if self._integer_rows:
            ratio, one = self.field.ratio, self.field.one
            for piv, row in pivot_rows.items():
                p = row[piv]
                for j in row:
                    row[j] = ratio(row[j], p)
                row[piv] = one
        self._finalized = True


class SparseMatrix:
    """Column-major sparse matrix: cols[j] = {row index: nonzero scalar}.

    The package's one matrix type: morphisms on generators, the complex
    differentials and the convolution operators.
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field, nrows, ncols, cols):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        """The matrix with the given dense rows, scalars coerced into field."""
        if ncols is None:
            if not rows:
                raise DimensionMismatch("empty matrix needs an explicit width")
            ncols = len(rows[0])
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch("row width != ncols")
            for j, x in enumerate(row):
                x = field.coerce(x)
                if x:
                    cols[j][i] = x
        return cls(field, len(rows), ncols, cols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{j: field.one} for j in range(n)])

    def apply(self, vec):
        """Apply to a sparse vector dict, returning a new dict."""
        return apply_cols(self.field.p, self.cols, vec)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.cols == other.cols)

    def __repr__(self):
        return "SparseMatrix(%d x %d over %r)" % (
            self.nrows, self.ncols, self.field)
