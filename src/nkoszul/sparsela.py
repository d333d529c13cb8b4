"""Sparse exact row reduction for wide, word-indexed coordinate spaces.

Rows are dicts {column index: nonzero scalar}.  The public dense module
is the reference implementation; this one exists because graded pieces
of tensor algebras are huge and mostly empty.

Over GF(p) the eliminator works on field scalars throughout.  Over QQ it
works fraction-free: each incoming row is cleared of denominators and of
its content once, and is then reduced as a primitive integer row
(Bareiss-style, ``row := (p*row - c*prow) / gcd(c, p)``).  Only
``Eliminator.finalize`` turns the stored rows back into field scalars.
"""

from math import gcd, lcm

from .errors import ContractViolation, DimensionMismatch


def row_axpy(field, target, c, source):
    """target += c * source, in place, dropping entries that cancel."""
    add, mul = field.add, field.mul
    for j, v in source.items():
        cur = target.get(j)
        if cur is None:
            target[j] = mul(c, v)
        else:
            s = add(cur, mul(c, v))
            if s:
                target[j] = s
            else:
                del target[j]


def row_scale(field, row, c):
    mul = field.mul
    for j in list(row):
        row[j] = mul(c, row[j])


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


def int_eliminate(row, j, prow):
    """row := (p*row - c*prow) / gcd(c, p) in place, which clears column j.

    Here c = row[j] and p = prow[j]; both rows hold integers.  The
    combination is negated when p < 0, so row's multiplier is positive.
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
        else:
            s = cur - c * v
            if s:
                row[k] = s
            else:
                del row[k]


class Eliminator:
    """Incremental Gaussian elimination with ascending column pivots.

    Feed rows with add(); finalize() back-substitutes so the stored rows
    become the unique RREF of everything fed in.

    ``pivot_rows`` maps each pivot column to its stored row and may be read
    at any time.  Over GF(p) every stored row has entry 1 at its pivot.
    Over QQ, until finalize(), the stored rows are primitive integer rows
    forming an echelon basis of the rows fed so far; a pivot entry is any
    nonzero integer, and ``rank`` and ``pivots()`` are already exact.
    After finalize() the stored rows are, over every field, the canonical
    RREF in the field's scalar type, each with entry ``field.one`` at its
    pivot.
    """

    def __init__(self, field):
        self.field = field
        self.pivot_rows = {}  # pivot column -> row dict
        self._integer_rows = field.kind == "rational"
        self._finalized = False
        if self._integer_rows:
            self._clear = int_eliminate
        else:
            neg = field.neg

            def clear(row, j, prow):
                # prow has entry 1 at j
                row_axpy(field, row, neg(row[j]), prow)
            self._clear = clear

    def reduce(self, row):
        """Eliminate all known pivots from row (row is consumed).

        The row is given in the stored form: field scalars over GF(p), a
        primitive integer row over QQ.
        """
        pivot_rows = self.pivot_rows
        clear = self._clear
        while True:
            # ascending: a stored row is zero left of its pivot, so no
            # column cleared in this pass comes back (in dict order,
            # fill-in re-creates columns already cleared)
            hits = sorted(j for j in row if j in pivot_rows)
            if not hits:
                return row
            for j in hits:
                if j in row:
                    clear(row, j, pivot_rows[j])
            if self._integer_rows:
                remove_content(row)
            # new fill-in may have introduced fresh pivot columns

    def add(self, row):
        """Reduce and store row; returns its pivot column or None."""
        if self._finalized:
            raise ContractViolation("eliminator already finalized")
        row = self.reduce(primitive_row(row) if self._integer_rows
                          else dict(row))
        if not row:
            return None
        piv = min(row)
        c = row[piv]
        if not self._integer_rows and c != self.field.one:
            row_scale(self.field, row, self.field.inv(c))
        self.pivot_rows[piv] = row
        return piv

    @property
    def rank(self):
        return len(self.pivot_rows)

    def pivots(self):
        return sorted(self.pivot_rows)

    def finalize(self):
        """Back-substitute to full RREF (idempotent)."""
        if self._finalized:
            return
        pivot_rows = self.pivot_rows
        clear = self._clear
        for piv in sorted(pivot_rows, reverse=True):
            src = pivot_rows[piv]
            for other_piv, row in pivot_rows.items():
                if other_piv < piv and piv in row:
                    clear(row, piv, src)
                    if self._integer_rows:
                        remove_content(row)
        if self._integer_rows:
            ratio, one = self.field.ratio, self.field.one
            for piv, row in pivot_rows.items():
                p = row[piv]
                for j in row:
                    row[j] = ratio(row[j], p)
                row[piv] = one
        self._finalized = True


def subspace_rows(subspace):
    """Canonical basis of a dense Subspace as a list of sparse dict rows."""
    return [{j: v for j, v in enumerate(row) if v}
            for row in subspace.basis.rows]


def pivot_rows_to_subspace(field, ambient, pivot_rows):
    """Finalized RREF rows (dict {pivot: row}) as a canonical dense Subspace."""
    from .linalg import Matrix, Subspace
    pivots = sorted(pivot_rows)
    zero = field.zero
    rows = []
    for piv in pivots:
        dense = [zero] * ambient
        for j, v in pivot_rows[piv].items():
            dense[j] = v
        rows.append(dense)
    mat = Matrix(field, len(rows), ambient, rows)
    return Subspace(field, ambient, mat, tuple(pivots))


class SparseMatrix:
    """Column-major sparse matrix: cols[j] = {row index: scalar}."""

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field, nrows, ncols, cols=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [{} for _ in range(ncols)]

    def apply(self, vec):
        """Apply to a sparse vector dict, returning a new dict."""
        field = self.field
        out = {}
        cols = self.cols
        for j, c in vec.items():
            row_axpy(field, out, c, cols[j])
        return out

    def compose(self, other):
        """self after other (matrix product, column by column)."""
        if other.nrows != self.ncols:
            raise DimensionMismatch("sparse composition shape mismatch")
        out = [self.apply(col) for col in other.cols]
        return SparseMatrix(self.field, self.nrows, other.ncols, out)

    def is_zero(self):
        return all(not col for col in self.cols)

    def rank(self):
        elim = Eliminator(self.field)
        for col in self.cols:
            if col:
                elim.add(col)
        return elim.rank

    def __repr__(self):
        return "SparseMatrix(%d x %d over %r)" % (
            self.nrows, self.ncols, self.field)
