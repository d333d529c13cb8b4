"""Exact linear algebra over an abstract field.

A subspace is held in canonical form: the reduced row echelon form of any
spanning set, as sparse rows {column: scalar} (zero rows dropped, pivots
on the leftmost possible columns), so two subspaces are equal iff their
pivots and rows are equal.  The canonical forms come from
``sparsela.Eliminator``, the package's one elimination kernel: ``rref``
feeds it sparse rows and reads back its finalized rows.  A linear map is
a ``sparsela.SparseMatrix`` of sparse columns, which ``rank`` takes as it
is.
"""

from .errors import DimensionMismatch
from .sparsela import Eliminator, apply_cols, settled


def _eliminated(field, rows):
    """An eliminator fed the rows, which are left as they are.

    Over GF(p) ``Eliminator.add`` reduces its row in place, so it gets a
    settled copy; over QQ it makes its own primitive copy.
    """
    elim = Eliminator(field)
    p = field.p
    for row in rows:
        elim.add(settled(row, p) if p else row)
    return elim


def rref(field, rows):
    """Reduced row echelon form of sparse rows {column: field scalar}.

    Returns (rows, pivots): the nonzero rows of the canonical RREF of the
    row space as dicts, in increasing pivot order, each with entry
    ``field.one`` at its pivot and no entry at another pivot.  The rows
    given are not changed, and over GF(p) their integer scalars need not
    be reduced mod p.
    """
    elim = _eliminated(field, rows)
    elim.finalize()
    pivots = tuple(sorted(elim.pivot_rows))
    return tuple(elim.pivot_rows[p] for p in pivots), pivots


def rank(matrix):
    """Rank of a ``SparseMatrix``, from eliminating its columns.

    It is read from the forward elimination, without back-substituting,
    and the matrix is not changed.
    """
    return _eliminated(matrix.field, matrix.cols).rank


def _settled_row(field, ambient_dim, row):
    """A sparse row with its scalars coerced into field and no zeros."""
    out = {}
    for j, v in row.items():
        if not 0 <= j < ambient_dim:
            raise DimensionMismatch(
                "coordinate %r outside dimension %d" % (j, ambient_dim))
        v = field.coerce(v)
        if v:
            out[j] = v
    return out


class Subspace:
    """Subspace of a coordinate space, held in canonical RREF form.

    ``rows`` are the RREF rows as sparse dicts, in the order of
    ``pivots``: what ``rref`` returns for any spanning set.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient_dim, rows):
        """The span of sparse rows {coordinate: scalar}."""
        return cls(field, ambient_dim, *rref(
            field, [_settled_row(field, ambient_dim, row) for row in rows]))

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim,
                   tuple({j: field.one} for j in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.pivots)

    def contains_vector(self, vec):
        """Does the sparse vector {coordinate: scalar} lie in the subspace?

        Its entries at the pivots are its only possible coordinates in
        the canonical basis.
        """
        vec = _settled_row(self.field, self.ambient_dim, vec)
        coords = {i: vec[p] for i, p in enumerate(self.pivots) if p in vec}
        return apply_cols(self.field.p, self.rows, coords) == vec

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.field == other.field
                and self.pivots == other.pivots
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self):
        return "Subspace(dim %d of %d over %r)" % (
            self.dim, self.ambient_dim, self.field)


def reversed_subspace(subspace):
    """The subspace with coordinate j renamed last - j, in canonical form.

    Renamed back, its rows are the input's RREF taken in descending
    coordinate order, each pivot at the greatest coordinate of its row;
    one elimination of the input's rows gives it.
    """
    last = subspace.ambient_dim - 1
    return Subspace(subspace.field, subspace.ambient_dim, *rref(
        subspace.field,
        [{last - j: c for j, c in row.items()} for row in subspace.rows]))
