"""Slow reference computations that tests compare the library against."""

from nkoszul.errors import DimensionMismatch
from nkoszul.linalg import Subspace
from nkoszul.words import (annihilator, index_word, interleave_index,
                           tensor_subspace)


def sparse_rows(rows):
    """Dense rows (lists of scalars) as sparse dict rows without zeros."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def dense_rows(subspace):
    """The canonical rows of a subspace as dense lists of field scalars."""
    zero = subspace.field.zero
    out = []
    for row in subspace.rows:
        dense = [zero] * subspace.ambient_dim
        for j, v in row.items():
            dense[j] = v
        out.append(dense)
    return out


class DenseMatrix:
    """Dense matrix with entries in a fixed field, acting on columns."""

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

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

    @classmethod
    def from_sparse(cls, matrix):
        """The dense form of a ``SparseMatrix``."""
        m = cls.zeros(matrix.field, matrix.nrows, matrix.ncols)
        for j, col in enumerate(matrix.cols):
            for i, v in col.items():
                m.rows[i][j] = v
        return m

    def transpose(self):
        rows = [[self.rows[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        return DenseMatrix(self.field, self.ncols, self.nrows, rows)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        f = self.field
        bt = other.transpose().rows
        out = []
        for row in self.rows:
            new = []
            for col in bt:
                acc = f.zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                new.append(acc)
            out.append(new)
        return DenseMatrix(f, self.nrows, other.ncols, out)

    def apply(self, vec):
        """Matrix times a column vector, given and returned as a list."""
        return [row[0] for row in self.mul(DenseMatrix(
            self.field, len(vec), 1, [[v] for v in vec])).rows]

    def kernel(self):
        """The null space of the rows, as a ``Subspace``."""
        return annihilator(Subspace.from_vectors(self.field, self.ncols,
                                                 sparse_rows(self.rows)))

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)


def operator_matrix(op):
    """The dense matrix of a reduction operator S on all of E^(x)n.

    It is the identity except in the columns of the leading words, which
    hold their rewrites.
    """
    m = DenseMatrix.identity(op.relations.field, op.relations.ambient_dim)
    for lead, col in op.rewrites.items():
        m.rows[lead][lead] = m.field.zero
        for i, v in col.items():
            m.rows[i][lead] = v
    return m


def kron(a, b):
    """Kronecker product of dense matrices; row (i,k) col (j,l) is a_ij*b_kl."""
    f = a.field
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            row = []
            for x in arow:
                if x:
                    row.extend(f.mul(x, y) if y else f.zero for y in brow)
                else:
                    row.extend([f.zero] * b.ncols)
            rows.append(row)
    return DenseMatrix(f, a.nrows * b.nrows, a.ncols * b.ncols, rows)


def kron_power(matrix, k):
    """The k-th Kronecker power of a dense matrix."""
    power = DenseMatrix.identity(matrix.field, 1)
    for _ in range(k):
        power = kron(power, matrix)
    return power


def reference_transported_relations(algebra, matrix):
    """Image of the relations under the dense N-th Kronecker power of matrix.

    matrix is a ``SparseMatrix``, as a morphism holds it.
    """
    power = kron_power(DenseMatrix.from_sparse(matrix), algebra.N)
    images = [power.apply(row) for row in dense_rows(algebra.relations)]
    return Subspace.from_vectors(algebra.field, power.nrows,
                                 sparse_rows(images))


def reference_annihilator(subspace):
    """The annihilator read off the ascending canonical rows, then
    eliminated a second time.

    Each non-pivot column j gives e_j minus the entry of every row in
    column j at that row's pivot; the library reads the same vectors off
    the reversed canonical form, where they need no elimination.
    """
    field, pivots = subspace.field, subspace.pivots
    taken = set(pivots)
    vectors = {j: {j: field.one} for j in range(subspace.ambient_dim)
               if j not in taken}
    for p, row in zip(pivots, subspace.rows):
        for j, v in row.items():
            if j != p:
                vectors[j][p] = field.neg(v)
    return Subspace.from_vectors(field, subspace.ambient_dim,
                                 vectors.values())


def reference_circ_relations(a, b):
    """R (x) E'^N + E^N (x) R' eliminated in separated coordinates, then
    interleaved and eliminated again."""
    field, N, ga, gb = a.field, a.N, a.dim_e, b.dim_e
    ra = tensor_subspace(a.relations, Subspace.full(field, gb ** N))
    rb = tensor_subspace(Subspace.full(field, ga ** N), b.relations)
    sep = Subspace.from_vectors(field, ra.ambient_dim, ra.rows + rb.rows)
    return Subspace.from_vectors(
        field, sep.ambient_dim,
        [{interleave_index(j, N, ga, gb): c for j, c in row.items()}
         for row in sep.rows])


def shuffle_map(field, n_blocks, dim_a, dim_b):
    """The deinterleaving isomorphism (A (x) B)^(x)n -> A^(x)n (x) B^(x)n.

    Sends the k-th pair factor a (x) b to the k-th slot of each side; its
    matrix is the permutation with entry 1 at (separated, interleaved).
    """
    total = (dim_a * dim_b) ** n_blocks
    perm = [interleave_index(s, n_blocks, dim_a, dim_b) for s in range(total)]
    mat = DenseMatrix.zeros(field, total, total)
    for sep, inter in enumerate(perm):
        mat.rows[sep][inter] = field.one
    return mat


def component_relations(algebra, n):
    """The degree-n relation space sum_{r+s=n-N} E^r (x) R (x) E^s.

    Every row u (x) r (x) w is spelled out in E^(x)n, so this is for
    desk-scale degrees; the graded engine never forms it.
    """
    g, N, field = algebra.dim_e, algebra.N, algebra.field
    rows = []
    for r in range(n - N + 1):
        right = g ** (n - N - r)
        tail = g ** N * right
        for u in range(g ** r):
            for rel in algebra.relations.rows:
                for w in range(right):
                    rows.append({u * tail + v * right + w: c
                                 for v, c in rel.items()})
    return Subspace.from_vectors(field, g ** n, rows)


def word_class(algebra, word):
    """Class of the word (tuple of letters) in the algebra, as a sparse dict."""
    return algebra._times_word({0: algebra.field.one}, 0, word)


def dual_component(algebra, m):
    """W_m = (B^!_m)* as a canonical subspace of E^(x)m (desk scale)."""
    if m < 0:
        raise DimensionMismatch("negative degree")
    g = algebra.dim_e
    bang = algebra.dual()
    # row u: basis vector u of W_m in word coordinates, dual to class u
    rows = [{} for _ in range(bang.dim(m))]
    for widx in range(g ** m):
        for u, c in word_class(bang, index_word(widx, g, m)).items():
            rows[u][widx] = c
    return Subspace.from_vectors(algebra.field, g ** m, rows)


def subspace_intersect(a, b):
    """Intersection, computed from the kernel of the stacked system."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise DimensionMismatch("subspace intersect: ambient mismatch")
    f = a.field
    da, db = a.dim, b.dim
    if da == 0 or db == 0:
        return Subspace.zero(f, a.ambient_dim)
    a_rows, b_rows = dense_rows(a), dense_rows(b)
    # columns: coefficients (lam, mu); kernel rows satisfy lam*A = mu*B
    rows = []
    for j in range(a.ambient_dim):
        row = [a_rows[i][j] for i in range(da)]
        row += [f.neg(b_rows[i][j]) for i in range(db)]
        rows.append(row)
    ker = DenseMatrix(f, len(rows), da + db, rows).kernel()
    vectors = []
    for coeffs in dense_rows(ker):
        vec = [f.zero] * a.ambient_dim
        for i in range(da):
            c = coeffs[i]
            if c:
                row = a_rows[i]
                for j in range(a.ambient_dim):
                    if row[j]:
                        vec[j] = f.add(vec[j], f.mul(c, row[j]))
        vectors.append(vec)
    return Subspace.from_vectors(f, a.ambient_dim, sparse_rows(vectors))


def row_axpy(field, target, c, source):
    """target += c * source, in place, with the field's own add and mul.

    An entry that cancels is dropped; a product that is zero on its own
    (mod p) is kept as 0.
    """
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
