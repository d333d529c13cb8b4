"""Dense exact linear algebra over an abstract field.

Everything is canonical-form based: a subspace is stored as the reduced
row echelon form of any spanning set (zero rows dropped, pivots on the
leftmost possible columns), so two subspaces are equal iff their stored
matrices are equal entry for entry.  The canonical forms come from
``sparsela.Eliminator``, the package's one elimination kernel:
``rref`` feeds it a matrix's rows and reads back its finalized rows.
"""

from .errors import DimensionMismatch
from .sparsela import Eliminator


class Matrix:
    """Dense matrix with entries in a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        rows = [[field.coerce(x) for x in row] for row in rows]
        if ncols is None:
            if not rows:
                raise DimensionMismatch("empty matrix needs an explicit width")
            ncols = len(rows[0])
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("row width != ncols")
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def transpose(self):
        rows = [[self.rows[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        return Matrix(self.field, self.ncols, self.nrows, rows)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        f = self.field
        zero = f.zero
        out = []
        bt = other.transpose().rows
        for row in self.rows:
            new = []
            for col in bt:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                new.append(acc)
            out.append(new)
        return Matrix(f, self.nrows, other.ncols, out)

    def apply(self, vec):
        """Matrix times column vector, given and returned as a list."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length != ncols")
        f = self.field
        vec = [f.coerce(x) for x in vec]
        out = []
        for row in self.rows:
            acc = f.zero
            for a, b in zip(row, vec):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def kron(self, other):
        """Kronecker product; row (i,k) col (j,l) gets a_ij * b_kl."""
        f = self.field
        rows = []
        for arow in self.rows:
            for brow in other.rows:
                row = []
                for a in arow:
                    if a:
                        row.extend(f.mul(a, b) if b else f.zero for b in brow)
                    else:
                        row.extend([f.zero] * other.ncols)
                rows.append(row)
        return Matrix(f, self.nrows * other.nrows,
                      self.ncols * other.ncols, rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "Matrix(%d x %d over %r)" % (self.nrows, self.ncols, self.field)


def _eliminated(matrix):
    """An Eliminator fed the rows of a dense matrix, not finalized."""
    elim = Eliminator(matrix.field)
    for row in matrix.rows:
        elim.add({j: v for j, v in enumerate(row) if v})
    return elim


def rref(matrix):
    """Reduced row echelon form.

    Returns (Matrix, pivots): zero rows dropped, each pivot entry 1 with
    zeros above and below, pivots strictly increasing.  The result is the
    canonical representative of the row space.
    """
    elim = _eliminated(matrix)
    elim.finalize()
    sub = pivot_rows_to_subspace(matrix.field, matrix.ncols, elim.pivot_rows)
    return sub.basis, sub.pivots


def rank(matrix):
    """Rank, read from the forward elimination without back-substituting."""
    return _eliminated(matrix).rank


class Subspace:
    """Subspace of a coordinate space, held in canonical RREF form."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        red, piv = rref(Matrix.from_rows(field, vectors, ncols=ambient_dim))
        return cls(field, ambient_dim, red, piv)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim,
                   Matrix.from_rows(field, [], ncols=ambient_dim), ())

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim),
                   tuple(range(ambient_dim)))

    @property
    def dim(self):
        return self.basis.nrows

    def coordinates_of(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside."""
        f = self.field
        vec = [f.coerce(x) for x in vec]
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        coords = [vec[p] for p in self.pivots]
        # residual check: vec - sum coords_i * basis_i must vanish
        for j in range(self.ambient_dim):
            acc = vec[j]
            for c, row in zip(coords, self.basis.rows):
                if c and row[j]:
                    acc = f.sub(acc, f.mul(c, row[j]))
            if acc:
                return None
        return coords

    def contains_vector(self, vec):
        return self.coordinates_of(vec) is not None

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.field == other.field
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of %d over %r)" % (
            self.dim, self.ambient_dim, self.field)


def subspace_rows(subspace):
    """Canonical basis of a dense Subspace as a list of sparse dict rows."""
    return [{j: v for j, v in enumerate(row) if v}
            for row in subspace.basis.rows]


def pivot_rows_to_subspace(field, ambient, pivot_rows):
    """Finalized RREF rows (dict {pivot: row}) as a canonical dense Subspace."""
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


def kernel(matrix):
    """Kernel of a matrix acting on columns, as a canonical Subspace."""
    red, pivots = rref(matrix)
    fld = matrix.field
    n = matrix.ncols
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    vectors = []
    for j in free:
        vec = [fld.zero] * n
        vec[j] = fld.one
        for i, p in enumerate(pivots):
            if red.rows[i][j]:
                vec[p] = fld.neg(red.rows[i][j])
        vectors.append(vec)
    return Subspace.from_vectors(fld, n, vectors)
