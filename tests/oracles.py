"""Slow reference computations that tests compare the library against."""

from nkoszul.errors import DimensionMismatch
from nkoszul.linalg import Matrix, Subspace, kernel


def subspace_intersect(a, b):
    """Intersection, computed from the kernel of the stacked system."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise DimensionMismatch("subspace intersect: ambient mismatch")
    f = a.field
    da, db = a.dim, b.dim
    if da == 0 or db == 0:
        return Subspace.zero(f, a.ambient_dim)
    # columns: coefficients (lam, mu); kernel rows satisfy lam*A = mu*B
    rows = []
    for j in range(a.ambient_dim):
        row = [a.basis.rows[i][j] for i in range(da)]
        row += [f.neg(b.basis.rows[i][j]) for i in range(db)]
        rows.append(row)
    ker = kernel(Matrix.from_rows(f, rows, ncols=da + db))
    vectors = []
    for coeffs in ker.basis.rows:
        vec = [f.zero] * a.ambient_dim
        for i in range(da):
            c = coeffs[i]
            if c:
                row = a.basis.rows[i]
                for j in range(a.ambient_dim):
                    if row[j]:
                        vec[j] = f.add(vec[j], f.mul(c, row[j]))
        vectors.append(vec)
    return Subspace.from_vectors(f, a.ambient_dim, vectors)


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
