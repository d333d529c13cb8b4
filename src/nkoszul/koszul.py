"""Koszul N-complexes of homogeneous-algebra morphisms.

For a morphism f: B -> C, the chain complex K(f) lives on C (x) (B^!)*
and lowers the dual-side degree (first letter split off, pushed through
f, multiplied into C); the cochain complex L(f) lives on B^! (x) C and
raises it.  Both satisfy d^N = 0.

Every differential here -- K, L and the convolution operators d_alpha --
is multiplication by one element, so it is a sum of Kronecker products
sum_l X_l (x) Y_l: an action on C tensored with a first-letter split (or
its transpose) on the dual side.  ``kron_sum_apply`` is the one routine
that applies such a sum; its transpose is sum_l X_l^T (x) Y_l^T.  It
knows no field: it multiplies and adds the scalars it is given and
settles the sums once, mod p over GF(p).

The factors of the K and L maps are integer tables: ``int_cols`` and the
integer ``lmul`` of the algebras, and for a morphism other than the
identity its matrix cleared of denominators.  So over QQ the map out of
position k is applied as s_k times the exact one, for a positive integer
scale s_k (1 over GF(p)).  Ranks and zero tests do not see the scale;
``differential`` divides it out.

The dual-side component W_m = (B^!_m)* is the annihilator of the
degree-m relations of B^!; its natural basis is dual to the normal-word
classes of B^!, so all of its structure (dimensions, first-letter
splits, coproduct coefficients) reads off the dual algebra's engine.
"""

from collections import namedtuple
from math import lcm

from .algebra import GradedElement, Morphism, _modulus, _settled, circ
from .errors import ContractViolation, DimensionMismatch
from .linalg import Matrix
from .sparsela import Eliminator, SparseMatrix, pivot_rows_to_subspace, row_axpy
from .words import index_word

DualComponent = namedtuple("DualComponent", ["m", "space"])

PositionInfo = namedtuple("PositionInfo",
                          ["label", "c_degree", "w_degree", "dim",
                           "c_dim", "w_dim"])


def kron_sum_apply(p, xs, ys, y_src, y_tgt, vec):
    """Apply sum_l X_l (x) Y_l to a sparse vector, returning a new dict.

    xs[l][x] and ys[l][y] are the sparse columns of X_l and Y_l.  Source
    coordinates are x * y_src + y, target coordinates x' * y_tgt + y'.
    The scalars (ints, or Fractions over QQ) are multiplied and summed
    as they are; the sums are reduced mod p unless p is 0, and zeros
    dropped, once at the end.
    """
    factors = tuple(zip(xs, ys))
    out = {}
    get = out.get
    for idx, coeff in vec.items():
        x, y = divmod(idx, y_src)
        for xcols, ycols in factors:
            ycol = ycols[y]
            if not ycol:
                continue
            xcol = xcols[x]
            if not xcol:
                continue
            for tx, cx in xcol.items():
                base = tx * y_tgt
                cxo = coeff * cx
                for ty, cy in ycol.items():
                    tix = base + ty
                    out[tix] = get(tix, 0) + cxo * cy
    return _settled(out, p)


def _transpose_cols(cols, tgt_dim):
    """Per factor: sparse columns of a map into tgt_dim, as its rows."""
    out = []
    for col_l in cols:
        rows = [{} for _ in range(tgt_dim)]
        for src, entries in enumerate(col_l):
            for tgt, c in entries.items():
                rows[tgt][src] = c
        out.append(rows)
    return out


class DualSide:
    """Dual-side components W_m of an algebra, with first-letter splits."""

    def __init__(self, algebra):
        # dim_e rather than the algebra itself: the algebra caches this
        # object, and a back reference would make a reference cycle
        self.dim_e = algebra.dim_e
        self.bang = algebra.dual()
        self._splits = {}

    def dim(self, m):
        return self.bang.dim(m)

    def split_rows(self, m):
        """Per letter: for each W_m basis vector, its W_{m-1} component.

        Basis vectors of W_m are dual to normal-word classes of the dual
        algebra, so the first-letter component is the transposed
        left-multiplication matrix of the dual algebra: integer, scaled
        by the dual algebra's ``lden`` in degree m.
        """
        rows = self._splits.get(m)
        if rows is None:
            rows = _transpose_cols(self.bang.lmul(m), self.bang.dim(m))
            self._splits[m] = rows
        return rows

    def ambient_rows(self, m):
        """Basis of W_m expanded in word coordinates (desk scale)."""
        g = self.dim_e
        wm = self.bang.dim(m)
        rows = [{} for _ in range(wm)]
        for widx in range(g ** m):
            vec = self.bang.word_class(index_word(widx, g, m))
            for u, c in vec.items():
                rows[u][widx] = c
        return rows


def dual_side(algebra):
    side = getattr(algebra, "_dual_side", None)
    if side is None:
        side = DualSide(algebra)
        algebra._dual_side = side
    return side


def dual_component(algebra, m):
    """W_m as a canonical subspace of E^(x)m (desk scale)."""
    if m < 0:
        raise DimensionMismatch("negative degree")
    field = algebra.field
    ambient = algebra.dim_e ** m
    elim = Eliminator(field)
    for row in dual_side(algebra).ambient_rows(m):
        elim.add(dict(row))
    elim.finalize()
    return DualComponent(m, pivot_rows_to_subspace(field, ambient,
                                                   elim.pivot_rows))


def _integer_matrix(field, matrix):
    """(rows, scale): a dense field matrix as ints, scale times the matrix.

    Over QQ the scale is the lcm of the entries' denominators; over GF(p)
    the rows are the matrix's own and the scale is 1.
    """
    if field.kind != "rational":
        return matrix.rows, 1
    scale = lcm(*(int(v.denominator) for row in matrix.rows for v in row))
    return [[int(v.numerator) * (scale // int(v.denominator)) for v in row]
            for row in matrix.rows], scale


def _is_identity_matrix(matrix):
    if matrix.nrows != matrix.ncols:
        return False
    one, field = matrix.field.one, matrix.field
    for i, row in enumerate(matrix.rows):
        for j, v in enumerate(row):
            if (v != one) if i == j else bool(v):
                return False
    return True


class _KoszulSlice:
    """Positions of one chain of K(f) or L(f) and the maps k -> k+1.

    A subclass lays out ``positions`` and names the factors of the map out
    of a position: ``_forward(src, tgt)`` and ``_transposed(src, tgt)``
    return ((xs, ys, y_src, y_tgt), s) -- the integer factors for
    ``kron_sum_apply`` and the positive scale s of the map they apply,
    the same both ways.  Maps leaving the materialized positions are zero.
    """

    def __init__(self, morphism):
        self.morphism = morphism
        self.source = morphism.source
        self.target = morphism.target
        self.field = self.source.field
        self.N = self.source.N
        self.side = dual_side(self.source)
        self.bang = self.side.bang
        self._p = _modulus(self.field)
        self._identity = (self.source is self.target
                          and _is_identity_matrix(morphism.matrix))
        self._twists = {}
        self._ops = {}
        self._ops_t = {}
        self._scales = {}
        self._mats = {}
        self._ranks = {}

    def position_dim(self, k):
        if 0 <= k < len(self.positions):
            return self.positions[k].dim
        return 0

    def _twisted(self, kind, degree):
        """Multiplication by f(x_letter), C_{degree-1} -> C_degree, per letter.

        kind is "rmul" (right multiplication, for K) or "lmul" (left, for
        L).  Returns (cols, scale): integer columns, scale times the
        exact map.  Cached, since the forward and transposed maps both
        use it.
        """
        key = (kind, degree)
        hit = self._twists.get(key)
        if hit is None:
            target = self.target
            comp = target.component(degree)
            if kind == "rmul":
                cols, scale = comp.int_cols, comp.den
            else:
                cols, scale = target.lmul(degree), comp.lden
            if not self._identity:
                fmat, fscale = _integer_matrix(self.field,
                                               self.morphism.matrix)
                base, p = cols, self._p
                cols = []
                for letter in range(self.source.dim_e):
                    col_l = []
                    for src in range(target.dim(degree - 1)):
                        vec = {}
                        get = vec.get
                        for j in range(target.dim_e):
                            c = fmat[j][letter]
                            if c:
                                for t, v in base[j][src].items():
                                    vec[t] = get(t, 0) + c * v
                        col_l.append(_settled(vec, p))
                    cols.append(col_l)
                scale *= fscale
            hit = self._twists[key] = (cols, scale)
        return hit

    def _op(self, cache, build, k):
        """Cache and return the factors of the map out of position k.

        () stands for the zero map.  The map's scale goes to _scales.
        """
        op = ()
        if 0 <= k < len(self.positions) - 1:
            src, tgt = self.positions[k], self.positions[k + 1]
            if src.dim and tgt.dim:
                op, self._scales[k] = build(src, tgt)
        cache[k] = op
        return op

    def scale(self, k):
        """s_k, the positive integer the position-k map is applied times.

        1 over GF(p) and for a zero map.
        """
        if k not in self._ops:
            self._op(self._ops, self._forward, k)
        return self._scales.get(k, 1)

    def apply_differential(self, k, vec):
        """Apply s_k * d at position k to a sparse vector, as a new dict.

        s_k is ``scale(k)``.  Over QQ an integer vector maps to an
        integer vector; ranks and zero tests are those of d itself.
        """
        op = self._ops.get(k)
        if op is None:
            op = self._op(self._ops, self._forward, k)
        if not op or not vec:
            return {}
        return kron_sum_apply(self._p, *op, vec)

    def apply_transposed(self, k, vec):
        """Apply s_k times the transposed position-k map to a vector on k+1.

        s_k is ``scale(k)``, the scale of ``apply_differential(k, .)``.
        """
        op = self._ops_t.get(k)
        if op is None:
            op = self._op(self._ops_t, self._transposed, k)
        if not op or not vec:
            return {}
        return kron_sum_apply(self._p, *op, vec)

    def differential(self, k):
        """The exact map at position k as a sparse matrix (cached)."""
        mat = self._mats.get(k)
        if mat is None:
            src_dim = self.position_dim(k)
            cols = [self.apply_differential(k, {j: 1})
                    for j in range(src_dim)]
            field = self.field
            if field.kind == "rational":
                s, ratio = self.scale(k), field.ratio
                cols = [{i: ratio(v, s) for i, v in col.items()}
                        for col in cols]
            mat = SparseMatrix(field, self.position_dim(k + 1), src_dim,
                               cols)
            self._mats[k] = mat
        return mat

    def rank_power(self, k, e):
        """Rank of d^e out of position k (zero once the window leaves the slice)."""
        key = (k, e)
        r = self._ranks.get(key)
        if r is None:
            r = 0
            if k + e < len(self.positions) and self.position_dim(k):
                elim = Eliminator(self.field)
                for j in range(self.position_dim(k)):
                    vec = {j: 1}
                    for step in range(e):
                        vec = self.apply_differential(k + step, vec)
                        if not vec:
                            break
                    if vec:
                        elim.add(vec)
                r = elim.rank
            self._ranks[key] = r
        return r

    def verify_dN(self):
        """Exact check that every in-range N-fold composite vanishes.

        Windows containing a zero position factor through 0 and are
        skipped; otherwise the composite is driven from whichever end of
        the window is smaller (forward maps or their transposes).
        """
        N = self.N
        for k in range(len(self.positions) - N):
            dims = [self.position_dim(k + j) for j in range(N + 1)]
            if any(d == 0 for d in dims):
                continue
            forward = dims[0] <= dims[-1]
            for j in range(dims[0] if forward else dims[-1]):
                vec = {j: 1}
                for step in range(N):
                    if forward:
                        vec = self.apply_differential(k + step, vec)
                    else:
                        vec = self.apply_transposed(k + N - 1 - step, vec)
                    if not vec:
                        break
                if vec:
                    raise ContractViolation(
                        "d^N != 0 %s position %d %s %d"
                        % (self._where(), k, "column" if forward else "row",
                           j))
        return True


class NComplexSlice(_KoszulSlice):
    """Total-degree-n slice of K(f); position k holds C_{n-m} (x) W_m, m = n-k.

    Coordinates at a position: index = c_position * w_dim + w_position.
    Differentials go k -> k+1 (the dual-side degree drops by one): the
    twisted right multiplication on C tensored with the first-letter split.
    """

    # bench/spans.py traces these through each class's own __dict__
    apply_differential = _KoszulSlice.apply_differential
    apply_transposed = _KoszulSlice.apply_transposed
    rank_power = _KoszulSlice.rank_power
    verify_dN = _KoszulSlice.verify_dN

    def __init__(self, morphism, n):
        super().__init__(morphism)
        self.n = n
        self.positions = []
        for k in range(n + 1):
            m = n - k
            c_dim = self.target.dim(k)
            w_dim = self.side.dim(m)
            self.positions.append(PositionInfo(m, k, m, c_dim * w_dim,
                                               c_dim, w_dim))

    def _forward(self, src, tgt):
        xs, s = self._twisted("rmul", tgt.c_degree)
        m = src.w_degree
        return ((xs, self.side.split_rows(m), src.w_dim, tgt.w_dim),
                s * self.bang.component(m).lden)

    def _transposed(self, src, tgt):
        xs, s = self._twisted("rmul", tgt.c_degree)
        m = src.w_degree
        return ((_transpose_cols(xs, tgt.c_dim), self.bang.lmul(m),
                 tgt.w_dim, src.w_dim), s * self.bang.component(m).lden)

    def _where(self):
        return "at slice n=%d" % self.n

    def __repr__(self):
        return "NComplexSlice(n=%d, dims=%r)" % (
            self.n, [p.dim for p in self.positions])


def koszul_K(morphism, n):
    if n < 0:
        raise DimensionMismatch("negative total degree")
    return NComplexSlice(morphism, n)


class LComplexSlice(_KoszulSlice):
    """One constant-(s-m) chain of L(f) on B^!_m (x) C_s, m ascending.

    Materialized for m <= bound and s <= bound; coordinates at a position:
    index = b_position * c_dim + c_position.  Differentials: left
    multiplication on B^! tensored with the twisted left multiplication
    on C.
    """

    # bench/spans.py traces these through each class's own __dict__
    apply_differential = _KoszulSlice.apply_differential
    apply_transposed = _KoszulSlice.apply_transposed
    rank_power = _KoszulSlice.rank_power
    verify_dN = _KoszulSlice.verify_dN

    def __init__(self, morphism, delta, bound):
        super().__init__(morphism)
        self.delta = delta
        self.bound = bound
        self.positions = []
        for m in range(max(0, -delta), min(bound, bound - delta) + 1):
            s = m + delta
            b_dim = self.bang.dim(m)
            c_dim = self.target.dim(s)
            self.positions.append(PositionInfo(m, s, m, b_dim * c_dim,
                                               c_dim, b_dim))

    def _forward(self, src, tgt):
        ys, s = self._twisted("lmul", tgt.c_degree)
        m = tgt.w_degree
        return ((self.bang.lmul(m), ys, src.c_dim, tgt.c_dim),
                self.bang.component(m).lden * s)

    def _transposed(self, src, tgt):
        ys, s = self._twisted("lmul", tgt.c_degree)
        m = tgt.w_degree
        return ((self.side.split_rows(m), _transpose_cols(ys, tgt.c_dim),
                 tgt.c_dim, src.c_dim), self.bang.component(m).lden * s)

    def _where(self):
        return "on L chain delta=%d" % self.delta

    def __repr__(self):
        return "LComplexSlice(delta=%d, dims=%r)" % (
            self.delta, [p.dim for p in self.positions])


def koszul_L(morphism, max_degree):
    """The cochain complex L(f), materialized up to the degree bound.

    Returns the family of constant-(s-m) chains with both the dual-side
    degree m and the coefficient degree s bounded by max_degree.
    """
    family = []
    for delta in range(-max_degree, max_degree + 1):
        sl = LComplexSlice(morphism, delta, max_degree)
        if any(p.dim for p in sl.positions):
            family.append(sl)
    return family


class HomologyReport:
    """Generalized homology dimensions, keyed by (p, position label)."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def is_zero(self):
        return all(v == 0 for v in self.entries.values())

    def nonzero(self):
        return {key: v for key, v in self.entries.items() if v}

    def __getitem__(self, key):
        return self.entries[key]

    def __repr__(self):
        return "HomologyReport(%r)" % (self.entries,)


def generalized_homology(slice_, p):
    """dim Ker(d^p)/Im(d^{N-p}) at every position of a slice.

    Maps beyond either end of the slice are zero.
    """
    N = slice_.N
    if not 1 <= p <= N - 1:
        raise DimensionMismatch("p must satisfy 1 <= p <= N-1")
    entries = {}
    for k in range(len(slice_.positions)):
        info = slice_.positions[k]
        if info.dim == 0:
            entries[(p, info.label)] = 0
            continue
        rank_out = slice_.rank_power(k, p)
        k_in = k - (N - p)
        rank_in = slice_.rank_power(k_in, N - p) if k_in >= 0 else 0
        entries[(p, info.label)] = info.dim - rank_out - rank_in
    return HomologyReport(entries)


def slice_acyclic(slice_):
    """All generalized homologies vanish at all positions."""
    return all(generalized_homology(slice_, p).is_zero()
               for p in range(1, slice_.N))


def lemma2_check(morphism):
    """(K(f)^{N-1} acyclic, K(f)^N acyclic, f is an isomorphism)."""
    N = morphism.source.N
    a1 = slice_acyclic(koszul_K(morphism, N - 1))
    a2 = slice_acyclic(koszul_K(morphism, N))
    return (a1, a2, morphism.is_isomorphism())


class ContractedComplex:
    """Ordinary complex C_{p,r}: blocks A (x) W_{k(i)}, alternating d^p, d^{N-p}.

    k(2j) = jN + r and k(2j+1) = (j+1)N - p + r; the map into an odd
    degree is d^p, into an even degree d^{N-p}.  Blocks are materialized
    per total degree t <= n_max.
    """

    def __init__(self, algebra, p, r, i_max, n_max=None):
        N = algebra.N
        if not 0 <= r <= N - 2 or not r + 1 <= p <= N - 1:
            raise DimensionMismatch(
                "(p, r) = (%d, %d) outside 0 <= r <= N-2, r+1 <= p <= N-1"
                % (p, r))
        self.algebra = algebra
        self.p = p
        self.r = r
        self.i_max = i_max
        self.n_max = 2 * N + 2 if n_max is None else n_max
        self._slices = {}
        self._id = Morphism.identity(algebra)

    def k_index(self, i):
        j, odd = divmod(i, 2)
        N = self.algebra.N
        return j * N + self.r + ((N - self.p) if odd else 0)

    def step(self, i):
        """Exponent of d for the map from block i to block i-1."""
        return self.p if i % 2 == 0 else self.algebra.N - self.p

    def slice(self, t):
        sl = self._slices.get(t)
        if sl is None:
            sl = koszul_K(self._id, t)
            self._slices[t] = sl
        return sl

    def block_dim(self, i, t):
        k = self.k_index(i)
        if k > t:
            return 0
        return self.slice(t).position_dim(t - k)

    def rank_map(self, i, t):
        """Rank of the map block i -> block i-1 in total degree t."""
        if i < 1:
            return 0
        k = self.k_index(i)
        if k > t:
            return 0
        return self.slice(t).rank_power(t - k, self.step(i))

    def homology_dim(self, i, t):
        return (self.block_dim(i, t) - self.rank_map(i, t)
                - self.rank_map(i + 1, t))

    def h0_dims(self, t_max=None):
        t_max = self.n_max if t_max is None else t_max
        return [self.block_dim(0, t) - self.rank_map(1, t)
                for t in range(t_max + 1)]

    def expected_h0_dims(self, t_max=None):
        """Graded dims of sum_{0<=j<=N-p-1} E^(x)j (x) E^(x)r."""
        t_max = self.n_max if t_max is None else t_max
        g, N = self.algebra.dim_e, self.algebra.N
        out = []
        for t in range(t_max + 1):
            j = t - self.r
            out.append(g ** t if 0 <= j <= N - self.p - 1 else 0)
        return out

    def exact_at(self, i, t):
        return self.homology_dim(i, t) == 0

    def __repr__(self):
        return "ContractedComplex(p=%d, r=%d of %r)" % (
            self.p, self.r, self.algebra)


def contracted(algebra, p, r, i_max, n_max=None):
    return ContractedComplex(algebra, p, r, i_max, n_max)


KoszulVerdict = namedtuple("KoszulVerdict", ["koszul", "n_max", "witness"])


def koszulity_check(algebra, n_max):
    """Exactness of C_{N-1,0} at all degrees i > 0, total degree <= n_max.

    The verdict carries its window; a failure carries (i, t, dim).
    """
    N = algebra.N
    if n_max < N:
        raise DimensionMismatch("n_max must be at least N")
    cx = ContractedComplex(algebra, N - 1, 0, i_max=None, n_max=n_max)
    for t in range(n_max + 1):
        i = 1
        while cx.k_index(i) <= t:
            h = cx.homology_dim(i, t)
            if h:
                return KoszulVerdict(False, n_max, (i, t, h))
            i += 1
    return KoszulVerdict(True, n_max, None)


def verdict_string(verdict):
    if verdict.koszul:
        return "KoszulUpTo(%d)" % verdict.n_max
    i, t, h = verdict.witness
    return "NotKoszul(i=%d, degree=%d, dim=%d)" % (i, t, h)


# -- bar-complex Tor ------------------------------------------------------


def _compositions(total, parts):
    """All ways to write total as an ordered sum of `parts` integers >= 1."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _BarBlock:
    """Basis of (A_+)^(x)i in one total degree: compositions x normal words.

    The compositions come in the ascending order of ``_compositions``,
    each with a run of dims[0] * ... * dims[-1] indices from its offset;
    inside a run the positions (p_0, ..., p_{i-1}) of the parts are
    mixed-radix digits, p_0 the most significant.
    """

    def __init__(self, algebra, i, t):
        self.offsets = {}        # composition -> (offset, dims)
        off = 0
        for comp in _compositions(t, i):
            dims = tuple(algebra.dim(n) for n in comp)
            size = 1
            for d in dims:
                size *= d
            if size == 0:
                continue
            self.offsets[comp] = (off, dims)
            off += size
        self.dim = off


def _bar_matrix(algebra, blocks, i, t, skip):
    """Columns of the differential (A_+)^(x)i -> (A_+)^(x)(i-1) in degree t.

    The term of merge position j multiplies parts j and j+1, with sign
    (-1)^j.  With pre = dims[0] * ... * dims[j-1] and suf = dims[j+2] *
    ... * dims[-1], it sends source column off + ((q*da + a)*db + b)*suf
    + r (0 <= q < pre, 0 <= r < suf) to rows toff + (q*dm + pos_m)*suf + r
    of the merged composition, one per term c * pos_m of the product of
    basis classes a and b.  Distinct j give distinct merged compositions
    and distinct pos_m distinct rows, so every entry is written once.

    The columns whose indices are in ``skip`` are left empty: nothing is
    written into them.  ``tor_dims`` passes the columns that the level
    above proves dependent.
    """
    neg, product = algebra.field.neg, algebra.basis_product
    src, tgt = blocks[(i, t)], blocks[(i - 1, t)]
    cols = [{} for _ in range(src.dim)]
    for comp, (off, dims) in src.offsets.items():
        pre = 1
        for j in range(i - 1):
            da, db = dims[j], dims[j + 1]
            merged = comp[:j] + (comp[j] + comp[j + 1],) + comp[j + 2:]
            hit = tgt.offsets.get(merged)
            if hit is not None:
                toff, dm = hit[0], hit[1][j]
                suf = 1
                for d in dims[j + 2:]:
                    suf *= d
                for a in range(da):
                    for b in range(db):
                        prod = product(comp[j], a, comp[j + 1], b)
                        if not prod:
                            continue
                        terms = [(pos_m * suf, neg(c) if j % 2 else c)
                                 for pos_m, c in prod.items()]
                        for q in range(pre):
                            s0 = off + ((q * da + a) * db + b) * suf
                            t0 = toff + q * dm * suf
                            for r in range(suf):
                                if s0 + r in skip:
                                    continue
                                col = cols[s0 + r]
                                for shift, c in terms:
                                    col[t0 + shift + r] = c
            pre *= da
    return cols


def tor_dims(algebra, i_max, n_max):
    """dim Tor_i(K, K) in each total degree, from the normalized bar complex.

    Returns {(i, t): dim} for 0 <= i <= i_max, 0 <= t <= n_max.

    Each degree t is ranked from the top level i_max + 1 down to 1, with
    clearing (Chen-Kerber 2011): the pivot columns of level i + 1 are
    neither built into d_i nor fed.  That is exact over every field and
    in any feed order.  A row v stored by the eliminator of d_{i+1} lies
    in im d_{i+1}, and its pivot j is its smallest index.  Since
    d_i(v) = 0, column j of d_i is a combination of columns with larger
    index, so by descending induction on j the columns kept span what
    all the columns span.

    The feed order decides what the skip saves.  The columns follow
    _compositions' ascending layout and are fed last column first: that
    gives less fill-in (on the tor-bar benchmark inputs, before clearing,
    about a quarter fewer stored entries and about 45 % less elimination
    time than ascending order), and column j comes after every larger
    column, so it would reduce to zero.  Skipping it removes only that
    wasted reduction: the eliminator stores the same rows as without
    clearing.  Fed in ascending order, column j would come first and be
    stored, and skipping it would change the rows the others meet.
    """
    field = algebra.field
    blocks = {}
    for i in range(i_max + 2):
        for t in range(n_max + 1):
            blocks[(i, t)] = _BarBlock(algebra, i, t)
    ranks = {}
    for t in range(n_max + 1):
        cleared = set()
        for i in range(i_max + 1, 0, -1):
            if blocks[(i, t)].dim == 0 or blocks[(i - 1, t)].dim == 0:
                ranks[(i, t)], cleared = 0, set()
                continue
            # rebinding elim frees the rows of level i + 1 before d_i is
            # built: only their pivot set is needed
            elim = Eliminator(field)
            for col in reversed(_bar_matrix(algebra, blocks, i, t, cleared)):
                if col:
                    elim.add(col)
            ranks[(i, t)] = elim.rank
            cleared = set(elim.pivot_rows)
    table = {}
    for i in range(i_max + 1):
        for t in range(n_max + 1):
            table[(i, t)] = (blocks[(i, t)].dim - ranks.get((i, t), 0)
                             - ranks.get((i + 1, t), 0))
    return table


def tor_pure_degree(i, N):
    """The only degree a pure Tor_i may occupy: jN for i=2j, jN+1 for i=2j+1."""
    j, odd = divmod(i, 2)
    return j * N + odd


def tor_purity(algebra, i_max, n_max):
    """(is_pure, table): every nonzero Tor_i sits in its pure degree."""
    table = tor_dims(algebra, i_max, n_max)
    N = algebra.N
    pure = all(t == tor_pure_degree(i, N)
               for (i, t), dim in table.items() if dim)
    return pure, table


# -- convolution of graded maps and the operators d_alpha -----------------


class KoszulElement:
    """xi_f: the degree-1 element of B^! o C attached to a morphism f."""

    def __init__(self, morphism):
        self.morphism = morphism
        bang = morphism.source.dual()
        self.product_algebra = circ(bang, morphism.target)
        field = morphism.source.field
        g, gp = morphism.source.dim_e, morphism.target.dim_e
        coords = [field.zero] * (g * gp)
        for letter in range(g):
            for j in range(gp):
                coords[letter * gp + j] = morphism.matrix.rows[j][letter]
        self.element = GradedElement(1, tuple(coords))

    def power_is_zero(self):
        """(xi_f)^N = 0 in the product algebra."""
        alg = self.product_algebra
        acc = self.element
        for _ in range(alg.N - 1):
            acc = alg.multiply(acc, self.element)
        return all(not c for c in acc.coords)


class GradedMap:
    """A degree-0 map (B^!)* -> C given by one matrix per degree."""

    def __init__(self, components):
        self.components = {m: mat for m, mat in components.items()
                           if not mat.is_zero()}

    def component(self, m):
        return self.components.get(m)

    def degrees(self):
        return sorted(self.components)

    def is_zero(self):
        return not self.components

    @classmethod
    def from_morphism(cls, morphism):
        return cls({1: morphism.matrix})


def _column(mat, j):
    """Column j of a dense Matrix as a sparse dict."""
    return {i: row[j] for i, row in enumerate(mat.rows) if row[j]}


def _block_offsets(target, side, t):
    """Offsets of the blocks C_{t-m} (x) W_m, m = 0..t, then their total."""
    offsets = [0]
    for m in range(t + 1):
        offsets.append(offsets[-1] + target.dim(t - m) * side.dim(m))
    return offsets


class ConvolutionContext:
    """Convolution algebra structure on degree-0 maps (B^!)* -> C."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self.side = dual_side(source)
        self.bang = self.side.bang
        self.field = source.field

    def convolve(self, alpha, beta, m_max):
        """alpha * beta up to degree m_max.

        The product weights the leading coproduct factor with beta and the
        trailing one with alpha; with that orientation the induced
        operators compose as d_alpha o d_beta = d_{alpha * beta}.
        """
        field = self.field
        out = {}
        for m in range(m_max + 1):
            wm = self.side.dim(m)
            cm = self.target.dim(m)
            if wm == 0:
                continue
            cols = [dict() for _ in range(wm)]
            for k in range(m + 1):
                l = m - k
                amat = beta.component(k)
                bmat = alpha.component(l)
                if amat is None or bmat is None:
                    continue
                wk, wl = self.side.dim(k), self.side.dim(l)
                for a in range(wk):
                    va = _column(amat, a)
                    if not va:
                        continue
                    for b in range(wl):
                        vb = _column(bmat, b)
                        if not vb:
                            continue
                        # coproduct coefficients: the (a,b) entry of Delta
                        # is the (a*b -> u) structure constant of the dual
                        pv = self.bang.basis_product(k, a, l, b)
                        if not pv:
                            continue
                        cprod = self.target.vector_product(k, va, l, vb)
                        if not cprod:
                            continue
                        for u, du in pv.items():
                            row_axpy(field, cols[u], du, cprod)
            mat = Matrix.zeros(field, cm, wm)
            for u, col in enumerate(cols):
                for i, v in col.items():
                    mat.rows[i][u] = v
            out[m] = mat
        return GradedMap(out)

    def convolution_power(self, alpha, e, m_max):
        acc = alpha
        for _ in range(e - 1):
            acc = self.convolve(alpha, acc, m_max)
        return acc

    def d_alpha_matrix(self, alpha, t):
        """The operator of alpha on the total-degree-t part of C (x) (B^!)*.

        Block from W_m to W_{m-k} sends c (x) u-hat to the sum over
        coproduct components of (c * alpha_k(a-hat)) (x) b-hat: the
        Kronecker sum over basis elements a of B^!_k of right
        multiplication by alpha_k(a-hat) on C and the transpose of left
        multiplication by a on B^!.
        """
        field, one = self.field, self.field.one
        p = _modulus(field)
        offsets = _block_offsets(self.target, self.side, t)
        cols = [dict() for _ in range(offsets[-1])]
        for m in range(t + 1):
            wm = self.side.dim(m)
            cs = self.target.dim(t - m)
            if wm == 0 or cs == 0:
                continue
            for k in alpha.degrees():
                mk = m - k
                if mk < 0:
                    continue
                wmk = self.side.dim(mk)
                if wmk == 0 or self.target.dim(t - mk) == 0:
                    continue
                amat = alpha.component(k)
                xs, ys = [], []
                for a in range(self.side.dim(k)):
                    va = _column(amat, a)
                    if not va:
                        continue
                    xs.append([self.target.vector_product(t - m, {c: one},
                                                          k, va)
                               for c in range(cs)])
                    ys.append([self.bang.basis_product(k, a, mk, b)
                               for b in range(wmk)])
                ys = _transpose_cols(ys, wm)
                for j in range(cs * wm):
                    col = cols[offsets[m] + j]
                    for i, v in kron_sum_apply(p, xs, ys, wm, wmk,
                                               {j: one}).items():
                        col[offsets[mk] + i] = v
        return SparseMatrix(field, offsets[-1], offsets[-1], cols)


def _sparse_equal(a, b):
    return (a.nrows == b.nrows and a.ncols == b.ncols
            and all(ca == cb for ca, cb in zip(a.cols, b.cols)))


def convolution_check(source, target, morphism, m_max, samples=20, seed=0):
    """Coherence of the convolution structure with the complex differentials.

    Verifies (a) alpha^{*N} = 0 up to degree m_max for the morphism-derived
    alpha, (b) d_alpha equals the K(f) differential on slices t <= m_max,
    and (c) d_alpha o d_beta = d_{alpha*beta} for random graded maps.
    """
    import random
    ctx = ConvolutionContext(source, target)
    N = source.N
    alpha = GradedMap.from_morphism(morphism)
    power = ctx.convolution_power(alpha, N, m_max)
    if not power.is_zero():
        return False
    for t in range(m_max + 1):
        dmat = ctx.d_alpha_matrix(alpha, t)
        if not _sparse_equal(dmat, _k_differential_total(morphism, t)):
            return False
    rng = random.Random(seed)
    for _ in range(samples):
        a = _random_graded_map(ctx, m_max, rng)
        b = _random_graded_map(ctx, m_max, rng)
        t = rng.randrange(m_max + 1)
        da = ctx.d_alpha_matrix(a, t)
        db = ctx.d_alpha_matrix(b, t)
        dab = ctx.d_alpha_matrix(ctx.convolve(a, b, t), t)
        if not _sparse_equal(da.compose(db), dab):
            return False
    return True


def _random_graded_map(ctx, m_max, rng):
    comps = {}
    field = ctx.field
    for m in range(m_max + 1):
        wm = ctx.side.dim(m)
        cm = ctx.target.dim(m)
        if wm == 0 or cm == 0:
            continue
        mat = Matrix.zeros(field, cm, wm)
        for i in range(cm):
            for j in range(wm):
                mat.rows[i][j] = field.coerce(rng.randint(-3, 3))
        comps[m] = mat
    return GradedMap(comps)


def _k_differential_total(morphism, t):
    """All K(f)^t differentials assembled as one endo-sized sparse matrix."""
    sl = koszul_K(morphism, t)
    offsets = _block_offsets(morphism.target, dual_side(morphism.source), t)
    total = offsets[-1]
    cols = [dict() for _ in range(total)]
    for m in range(1, t + 1):
        mat = sl.differential(t - m)  # position t - m holds W_m
        for j, col in enumerate(mat.cols):
            src = cols[offsets[m] + j]
            for i, v in col.items():
                src[offsets[m - 1] + i] = v
    return SparseMatrix(morphism.source.field, total, total, cols)
