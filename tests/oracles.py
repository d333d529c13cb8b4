"""Slow reference computations that tests compare the library against."""

from nkoszul.errors import DimensionMismatch
from nkoszul.linalg import Matrix, Subspace, kernel
from nkoszul.words import index_word, interleaving_permutation


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
    return Matrix(f, a.nrows * b.nrows, a.ncols * b.ncols, rows)


def kron_power(matrix, k):
    """The k-th Kronecker power of a dense matrix."""
    power = Matrix.identity(matrix.field, 1)
    for _ in range(k):
        power = kron(power, matrix)
    return power


def reference_transported_relations(algebra, matrix):
    """Image of the relations under the dense N-th Kronecker power of matrix."""
    power = kron_power(matrix, algebra.N)
    images = [power.apply(row) for row in dense_rows(algebra.relations)]
    return Subspace.from_vectors(algebra.field, power.nrows,
                                 sparse_rows(images))


def shuffle_map(field, n_blocks, dim_a, dim_b):
    """The deinterleaving isomorphism (A (x) B)^(x)n -> A^(x)n (x) B^(x)n.

    Sends the k-th pair factor a (x) b to the k-th slot of each side; its
    matrix is the permutation with entry 1 at (separated, interleaved).
    """
    perm = interleaving_permutation(n_blocks, dim_a, dim_b)
    total = len(perm)
    mat = Matrix.zeros(field, total, total)
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
    ker = kernel(Matrix.from_rows(f, rows, ncols=da + db))
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
