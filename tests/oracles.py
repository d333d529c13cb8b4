"""Slow reference computations that tests compare the library against."""

import random

from nkoszul.algebra import Morphism, NHomogeneousAlgebra
from nkoszul.errors import DimensionMismatch
from nkoszul.koszul import (ConvolutionContext, GradedMap, _BarBlock,
                            koszul_K, kron_sum_apply)
from nkoszul.linalg import Subspace
from nkoszul.sampling import random_invertible_matrix, transported_algebra
from nkoszul.sparsela import Eliminator, SparseMatrix, transpose_cols
from nkoszul.words import (annihilator, index_word, interleave_index,
                           tensor_subspace, word_index)


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


def compose(a, b):
    """a after b: the product of two ``SparseMatrix`` maps, by columns."""
    if b.nrows != a.ncols:
        raise DimensionMismatch("sparse composition shape mismatch")
    return SparseMatrix(a.field, a.nrows, b.ncols,
                        [a.apply(col) for col in b.cols])


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


def bar_elements(block):
    """(composition, position tuple) of every bar-block basis element."""
    for comp, (_off, dims) in block.offsets.items():
        poss = [0] * len(dims)
        while True:
            yield comp, tuple(poss)
            for j in range(len(dims) - 1, -1, -1):
                poss[j] += 1
                if poss[j] < dims[j]:
                    break
                poss[j] = 0
            else:
                break


def bar_index(block, comp, poss):
    off, dims = block.offsets[comp]
    idx = 0
    for pos, d in zip(poss, dims):
        idx = idx * d + pos
    return off + idx


def reference_bar_matrix(algebra, blocks, i, t):
    """Slow oracle for _bar_matrix: one basis element at a time, by tuples."""
    field = algebra.field
    src = blocks[(i, t)]
    tgt = blocks[(i - 1, t)]
    neg, add = field.neg, field.add
    cols = []
    for comp, poss in bar_elements(src):
        col = {}
        for j in range(i - 1):
            merged = comp[:j] + (comp[j] + comp[j + 1],) + comp[j + 2:]
            if merged in tgt.offsets:
                prod = algebra.basis_product(comp[j], poss[j],
                                             comp[j + 1], poss[j + 1])
                odd = j % 2     # the term of merge position j has sign (-1)^j
                for pos_m, c in prod.items():
                    new_poss = poss[:j] + (pos_m,) + poss[j + 2:]
                    tix = bar_index(tgt, merged, new_poss)
                    term = neg(c) if odd else c
                    cur = col.get(tix)
                    if cur is None:
                        col[tix] = term
                    else:
                        s = add(cur, term)
                        if s:
                            col[tix] = s
                        else:
                            del col[tix]
        cols.append(col)
    return cols


def bar_blocks(algebra, i_max, n_max):
    return {(i, t): _BarBlock(algebra, i, t)
            for i in range(i_max + 2) for t in range(n_max + 1)}


def full_bar_eliminator(algebra, blocks, i, t):
    """Every column of the level-i bar matrix fed, last column first."""
    elim = Eliminator(algebra.field)
    for col in reversed(reference_bar_matrix(algebra, blocks, i, t)):
        if col:
            elim.add(col)
    return elim


def reference_tor_dims(algebra, i_max, n_max):
    """Oracle for tor_dims: no clearing, every column of every bar matrix.

    Returns (table, eliminators), eliminators[(i, t)] holding the rows of
    the level-i matrix in degree t.
    """
    blocks = bar_blocks(algebra, i_max, n_max)
    elims = {(i, t): full_bar_eliminator(algebra, blocks, i, t)
             for i in range(1, i_max + 2) for t in range(n_max + 1)}
    ranks = {key: elim.rank for key, elim in elims.items()}
    table = {(i, t): (blocks[(i, t)].dim - ranks.get((i, t), 0)
                      - ranks[(i + 1, t)])
             for i in range(i_max + 1) for t in range(n_max + 1)}
    return table, elims


def monomial_subspace(field, dim_e, n, words):
    """Span of unit vectors at the given words inside E^(x)n."""
    rows = []
    for w in map(tuple, words):
        if len(w) != n:
            raise DimensionMismatch("word %r does not have n = %d letters"
                                    % (w, n))
        rows.append({word_index(w, dim_e): 1})
    return Subspace.from_vectors(field, dim_e ** n, rows)


def random_full_rank_non_isomorphism(algebra, rng):
    """Invertible on generators, but relations land strictly inside target's.

    The target is the transported algebra with extra relations adjoined,
    so the image of the relation space is a proper subspace of the target
    relations.  Returns None when the relation space is already full.
    """
    amb = algebra.relations.ambient_dim
    if algebra.relations.dim >= amb:
        return None
    mat = random_invertible_matrix(algebra.field, algebra.dim_e, rng)
    transported = transported_algebra(algebra, mat).relations
    # adjoin one random vector outside the transported relations
    while True:
        extra = {j: rng.randint(-3, 3) for j in range(amb)}
        if not transported.contains_vector(extra):
            break
    bigger = Subspace.from_vectors(algebra.field, amb,
                                   transported.rows + (extra,))
    target = NHomogeneousAlgebra(algebra.dim_e, algebra.N, bigger)
    return Morphism(algebra, target, mat)


# -- the convolution operators d_alpha, checked against K(f) ---------------


def _block_offsets(target, bang, t):
    """Offsets of the blocks C_{t-m} (x) W_m, m = 0..t, then their total."""
    offsets = [0]
    for m in range(t + 1):
        offsets.append(offsets[-1] + target.dim(t - m) * bang.dim(m))
    return offsets


def d_alpha_matrix(ctx, alpha, t):
    """The operator of alpha on the total-degree-t part of C (x) (B^!)*.

    ctx is the ``ConvolutionContext`` of B and C.  Block from W_m to
    W_{m-k} sends c (x) u-hat to the sum over coproduct components of
    (c * alpha_k(a-hat)) (x) b-hat: the Kronecker sum over basis elements
    a of B^!_k of right multiplication by alpha_k(a-hat) on C and the
    transpose of left multiplication by a on B^!.
    """
    field, one = ctx.field, ctx.field.one
    offsets = _block_offsets(ctx.target, ctx.bang, t)
    cols = [dict() for _ in range(offsets[-1])]
    for m in range(t + 1):
        wm = ctx.bang.dim(m)
        cs = ctx.target.dim(t - m)
        if wm == 0 or cs == 0:
            continue
        for k in sorted(alpha.components):
            mk = m - k
            if mk < 0:
                continue
            wmk = ctx.bang.dim(mk)
            if wmk == 0 or ctx.target.dim(t - mk) == 0:
                continue
            xs, ys = [], []
            for a, va in enumerate(alpha.component(k)):
                if not va:
                    continue
                xs.append([ctx.target.vector_product(t - m, {c: one}, k, va)
                           for c in range(cs)])
                ys.append([ctx.bang.basis_product(k, a, mk, b)
                           for b in range(wmk)])
            ys = transpose_cols(ys, wm)
            for j in range(cs * wm):
                col = cols[offsets[m] + j]
                for i, v in kron_sum_apply(field.p, xs, ys, wm, wmk,
                                           {j: one}).items():
                    col[offsets[mk] + i] = v
    return SparseMatrix(field, offsets[-1], offsets[-1], cols)


def convolution_check(morphism, m_max, samples=20, seed=0):
    """Coherence of the convolution structure with the complex differentials.

    The convolution context is that of the morphism's source and target.
    Verifies (a) alpha^{*N} = 0 for the morphism-derived alpha = xi_f
    (the power lives in degree N alone), (b) d_alpha equals the K(f)
    differential on slices t <= m_max, and (c) d_alpha o d_beta =
    d_{alpha*beta} for random graded maps.
    """
    ctx = ConvolutionContext(morphism.source, morphism.target)
    alpha = GradedMap.from_morphism(morphism)
    N = morphism.source.N
    if not ctx.convolution_power(alpha, N, N).is_zero():
        return False
    for t in range(m_max + 1):
        dmat = d_alpha_matrix(ctx, alpha, t)
        if dmat != _k_differential_total(morphism, t):
            return False
    rng = random.Random(seed)
    for _ in range(samples):
        a = random_graded_map(ctx, m_max, rng)
        b = random_graded_map(ctx, m_max, rng)
        t = rng.randrange(m_max + 1)
        da = d_alpha_matrix(ctx, a, t)
        db = d_alpha_matrix(ctx, b, t)
        dab = d_alpha_matrix(ctx, ctx.convolve(a, b, t), t)
        if compose(da, db) != dab:
            return False
    return True


def random_graded_map(ctx, m_max, rng):
    """A graded map (B^!)* -> C with small random entries through m_max."""
    comps = {}
    field = ctx.field
    for m in range(m_max + 1):
        wm = ctx.bang.dim(m)
        cm = ctx.target.dim(m)
        if wm == 0 or cm == 0:
            continue
        cols = [{} for _ in range(wm)]
        # entries drawn row by row, as for a dense cm x wm matrix
        for i in range(cm):
            for col in cols:
                v = rng.randint(-3, 3)
                if v:
                    col[i] = field.coerce(v)
        comps[m] = cols
    return GradedMap(comps)


def _k_differential_total(morphism, t):
    """All K(f)^t differentials assembled as one endo-sized sparse matrix."""
    sl = koszul_K(morphism, t)
    offsets = _block_offsets(morphism.target, morphism.source.dual(), t)
    total = offsets[-1]
    cols = [dict() for _ in range(total)]
    for m in range(1, t + 1):
        mat = sl.differential(t - m)  # position t - m holds W_m
        for j, col in enumerate(mat.cols):
            src = cols[offsets[m] + j]
            for i, v in col.items():
                src[offsets[m - 1] + i] = v
    return SparseMatrix(morphism.source.field, total, total, cols)
