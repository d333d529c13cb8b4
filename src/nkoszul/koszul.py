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
settles the sums once, mod p over GF(p).  Every other sparse sum here --
the twisted factors of K(f) and L(f) and the convolution product -- is
``sparsela.apply_cols``.

The factors of the K and L maps are integer tables: ``int_cols`` and the
integer ``lmul`` of the algebras, and for a morphism other than the
identity its matrix, cleared of denominators by
``sparsela.over_common_denominator``.  So over QQ the map out of
position k is applied as s_k times the exact one, for a positive integer
scale s_k (1 over GF(p)).  Ranks and zero tests do not see the scale;
``differential`` divides it out.

The dual-side component W_m = (B^!_m)* is the annihilator of the
degree-m relations of B^!; its natural basis is dual to the normal-word
classes of B^!, so all of its structure reads off the dual algebra
``bang`` = B^!: its dimension is ``bang.dim(m)``, its first-letter split
is ``bang.lmul(m)`` (left multiplication in B^!) transposed, and its
coproduct coefficients are ``bang.basis_product``.

On K(id) the free part of W is known without elimination: W_m = E^(x)m
for m < N and W_N = R.  So ``NComplexSlice.rank_power`` reads three
families of ranks off the tower's dims -- m < N (the product into A is
onto), k + e < N (the split of W_m is injective) and m = N, e = N - 1
(the images are the relation rows of the tower) -- and eliminates for
every other rank, for L and for K(f) with f not the identity.
"""

from collections import namedtuple
from itertools import combinations

from .algebra import Morphism
from .errors import ContractViolation, DimensionMismatch
from .sparsela import (Eliminator, SparseMatrix, apply_cols,
                       over_common_denominator, settled, transpose_cols)

PositionInfo = namedtuple("PositionInfo",
                          ["c_degree", "w_degree", "dim",
                           "c_dim", "w_dim"])


def kron_sum_apply(p, xs, ys, y_src, y_tgt, vec):
    """Apply sum_l X_l (x) Y_l to a sparse vector, returning a new dict.

    xs[l][x] and ys[l][y] are the sparse columns of X_l and Y_l.  Source
    coordinates are x * y_src + y, target coordinates x' * y_tgt + y'.
    The scalars (ints, or Fractions over QQ) are multiplied and summed
    as they are; the sums are reduced mod p unless p is 0, and zeros
    dropped, once at the end.  It settles like ``apply_cols`` and
    differs only in the fan-out: each source entry goes through a
    Kronecker product of two columns instead of through one column.
    Over GF(p) the output is in the form ``Eliminator.add`` takes over,
    so ``rank_power`` feeds it as it is.
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
    return settled(out, p)


class _KoszulSlice:
    """Positions of one chain of K(f) or L(f) and the maps k -> k+1.

    A subclass lays out ``positions`` and names the factors of the map out
    of a position: ``_forward(src, tgt)`` returns ((xs, ys, y_src, y_tgt),
    s) -- the integer factors for ``kron_sum_apply`` and the positive scale
    s of the map they apply.  The transposed map is derived from them:
    sum_l X_l^T (x) Y_l^T, with the same scale.  Maps leaving the
    materialized positions are zero.
    """

    def __init__(self, morphism):
        self.morphism = morphism
        source = morphism.source
        self.target = morphism.target
        self.field = source.field
        self.N = source.N
        self.bang = source.dual()
        self._identity = (source is self.target
                          and morphism.matrix == SparseMatrix.identity(
                              self.field, source.dim_e))
        self._ops = {}
        self._ranks = {}

    def position_dim(self, k):
        if 0 <= k < len(self.positions):
            return self.positions[k].dim
        return 0

    def _twisted(self, cols, scale):
        """Multiplication by f(x_letter) per letter, from the target's table.

        cols[letter] are the integer columns of multiplication by x_letter
        in the target, scale times the exact map.  Returns (cols, scale)
        for the letters pushed through f: the same table when f is the
        identity.
        """
        if self._identity:
            return cols, scale
        # f(x_letter) = sum_j c_j x_j, so its column at src is
        # sum_j c_j * cols[j][src]
        (fcols,), fscale = over_common_denominator(
            self.field, [self.morphism.matrix.cols])
        by_src = list(zip(*cols))
        return ([[apply_cols(self.field.p, at_src, fcol) for at_src in by_src]
                 for fcol in fcols], scale * fscale)

    def _op(self, k, transposed=False):
        """The map out of position k, or its transpose, cached.

        Returns (factors, s) for ``kron_sum_apply`` and the map's scale, or
        None for the zero map.  The transpose swaps each factor's rows and
        columns: X_l maps into the x-part of position k+1, of dimension
        dim(k+1) / y_tgt.
        """
        key = (k, transposed)
        if key in self._ops:
            return self._ops[key]
        op = None
        if transposed:
            forward = self._op(k)
            if forward is not None:
                (xs, ys, y_src, y_tgt), s = forward
                x_tgt = self.position_dim(k + 1) // y_tgt
                op = ((transpose_cols(xs, x_tgt), transpose_cols(ys, y_tgt),
                       y_tgt, y_src), s)
        elif 0 <= k < len(self.positions) - 1:
            src, tgt = self.positions[k], self.positions[k + 1]
            if src.dim and tgt.dim:
                op = self._forward(src, tgt)
        self._ops[key] = op
        return op

    def scale(self, k):
        """s_k, the positive integer the position-k map is applied times.

        1 over GF(p) and for a zero map.
        """
        op = self._op(k)
        return 1 if op is None else op[1]

    def apply_differential(self, k, vec):
        """Apply s_k * d at position k to a sparse vector, as a new dict.

        s_k is ``scale(k)``.  Over QQ an integer vector maps to an
        integer vector; ranks and zero tests are those of d itself.
        """
        op = self._op(k)
        if op is None or not vec:
            return {}
        return kron_sum_apply(self.field.p, *op[0], vec)

    def apply_transposed(self, k, vec):
        """Apply s_k times the transposed position-k map to a vector on k+1.

        s_k is ``scale(k)``, the scale of ``apply_differential(k, .)``.
        """
        op = self._op(k, True)
        if op is None or not vec:
            return {}
        return kron_sum_apply(self.field.p, *op[0], vec)

    def differential(self, k):
        """The exact map at position k as a sparse matrix."""
        src_dim = self.position_dim(k)
        cols = [self.apply_differential(k, {j: 1})
                for j in range(src_dim)]
        field = self.field
        if not field.p:
            s, ratio = self.scale(k), field.ratio
            cols = [{i: ratio(v, s) for i, v in col.items()}
                    for col in cols]
        return SparseMatrix(field, self.position_dim(k + 1), src_dim, cols)

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

    def homology_at(self, k, p):
        """dim Ker(d^p)/Im(d^{N-p}) at position k; maps off the slice are zero."""
        dim = self.position_dim(k)
        if not dim:
            return 0
        k_in = k - (self.N - p)
        rank_in = self.rank_power(k_in, self.N - p) if k_in >= 0 else 0
        return dim - self.rank_power(k, p) - rank_in

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
    verify_dN = _KoszulSlice.verify_dN

    def __init__(self, morphism, n):
        if n < 0:
            raise DimensionMismatch("negative total degree")
        super().__init__(morphism)
        self.n = n
        self.positions = []
        for k in range(n + 1):
            m = n - k
            c_dim = self.target.dim(k)
            w_dim = self.bang.dim(m)
            self.positions.append(PositionInfo(k, m, c_dim * w_dim,
                                               c_dim, w_dim))

    def rank_power(self, k, e):
        """Rank of d^e out of position k (zero once the window leaves the slice).

        On K(id) the free part of W needs no elimination.  With m = n - k,
        g = dim E and 0 < e <= m, position k is A_k (x) W_m and W_m = E^m
        for m < N, W_N = R:

        - F1, m < N: d^e is mu (x) id on A_k (x) E^e (x) E^(m-e), and the
          product mu: A_k (x) E^e -> A_(k+e) is onto (A is generated in
          degree 1), so the rank is dim A_(k+e) * g^(m-e).
        - F2, k + e < N: mu is the identity of E^(k+e), and the split
          W_m -> E^e (x) W_(m-e) is injective (the dual of the product
          A^!_e (x) A^!_(m-e) -> A^!_m, which is onto), so the rank is the
          dimension of position k.
        - F3, m = N, e = N - 1: d^e(a (x) r) is the image of a * r in
          A_(k+N-1) (x) E, and those images are the degree-(k+N) relation
          rows of the tower, so the rank is g * dim A_(k+N-1) - dim A_(k+N).

        Every other rank, and every rank of K(f) for f other than the
        identity, is found by elimination.
        """
        m, N = self.n - k, self.N
        if self._identity and 0 < e <= m and k >= 0:
            if m < N:
                return self.position_dim(k + e)
            if k + e < N:
                return self.position_dim(k)
            if m == N and e == N - 1:
                A = self.target
                return A.dim_e * A.dim(k + N - 1) - A.dim(k + N)
        return _KoszulSlice.rank_power(self, k, e)

    def _forward(self, src, tgt):
        comp = self.target.component(tgt.c_degree)
        xs, s = self._twisted(comp.int_cols, comp.den)
        m = src.w_degree
        # the first-letter split of W_m: left multiplication in B^!,
        # transposed
        split = transpose_cols(self.bang.lmul(m), src.w_dim)
        return ((xs, split, src.w_dim, tgt.w_dim),
                s * self.bang.component(m).lden)

    def _where(self):
        return "at slice n=%d" % self.n

    def __repr__(self):
        return "NComplexSlice(n=%d, dims=%r)" % (
            self.n, [p.dim for p in self.positions])


def koszul_K(morphism, n):
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
        self.positions = []
        for m in range(max(0, -delta), min(bound, bound - delta) + 1):
            s = m + delta
            b_dim = self.bang.dim(m)
            c_dim = self.target.dim(s)
            self.positions.append(PositionInfo(s, m, b_dim * c_dim,
                                               c_dim, b_dim))

    def _forward(self, src, tgt):
        c = tgt.c_degree
        ys, s = self._twisted(self.target.lmul(c),
                              self.target.component(c).lden)
        m = tgt.w_degree
        return ((self.bang.lmul(m), ys, src.c_dim, tgt.c_dim),
                self.bang.component(m).lden * s)

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


def generalized_homology(slice_, p):
    """dim Ker(d^p)/Im(d^{N-p}) at every position of a slice.

    Returns {(p, w_degree): dim}, keyed by each position's dual-side
    degree m.  Maps beyond either end of the slice are zero.
    """
    if not 1 <= p <= slice_.N - 1:
        raise DimensionMismatch("p must satisfy 1 <= p <= N-1")
    return {(p, info.w_degree): slice_.homology_at(k, p)
            for k, info in enumerate(slice_.positions)}


def slice_acyclic(slice_):
    """All generalized homologies vanish at all positions."""
    return not any(any(generalized_homology(slice_, p).values())
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
    degree is d^p, into an even degree d^{N-p}.  Every homological degree
    i is available; each total degree t is one K(id) slice, built on first
    use.
    """

    def __init__(self, algebra, p, r):
        N = algebra.N
        if not 0 <= r <= N - 2 or not r + 1 <= p <= N - 1:
            raise DimensionMismatch(
                "(p, r) = (%d, %d) outside 0 <= r <= N-2, r+1 <= p <= N-1"
                % (p, r))
        self.algebra = algebra
        self.p = p
        self.r = r
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

    def homology_dim(self, i, t):
        # block i is position t - k(i) of the slice, d^step(i) leaves it
        # and step(i) + step(i+1) = N: the slice's homology there
        k = self.k_index(i)
        if k > t:
            return 0
        return self.slice(t).homology_at(t - k, self.step(i))

    def h0_dims(self, t_max):
        return [self.homology_dim(0, t) for t in range(t_max + 1)]

    def expected_h0_dims(self, t_max):
        """Graded dims of sum_{0<=j<=N-p-1} E^(x)j (x) E^(x)r."""
        g, N = self.algebra.dim_e, self.algebra.N
        out = []
        for t in range(t_max + 1):
            j = t - self.r
            out.append(g ** t if 0 <= j <= N - self.p - 1 else 0)
        return out

    def __repr__(self):
        return "ContractedComplex(p=%d, r=%d of %r)" % (
            self.p, self.r, self.algebra)


KoszulVerdict = namedtuple("KoszulVerdict", ["koszul", "n_max", "witness"])


def koszulity_check(algebra, n_max):
    """Exactness of C_{N-1,0} at all degrees i > 0, total degree <= n_max.

    The verdict carries its window; a failure carries (i, t, dim).
    """
    N = algebra.N
    if n_max < N:
        raise DimensionMismatch("n_max must be at least N")
    cx = ContractedComplex(algebra, N - 1, 0)
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
    """All ways to write total as an ordered sum of `parts` integers >= 1.

    Ascending, as the gaps between parts - 1 ascending cut points.
    """
    if parts == 0 or total == 0:
        return [()] if parts == total else []
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            for cuts in combinations(range(1, total), parts - 1)]


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
    above proves dependent.  Each entry is a settled product coefficient
    or its negative, so over GF(p) every column is in the form
    ``Eliminator.add`` takes over, and is fed as it is.
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

    The ranks of d_1, d_2 and d_3 are read off the presentation; no bar
    matrix is built for them.  d_1 is zero.  For t >= 2, d_2 is onto A_t,
    since A is generated in degree 1, so rank d_2 = dim A_t.  Tor_2 is
    the space of minimal relations: R in degree N and 0 elsewhere, since
    the ideal (R) has nothing below degree N (Berger 2001).  So rank d_3
    = dim (A_+)^(x)2 - dim A_t - [t = N] dim R in degree t >= 2.

    The levels above are read off the same theorem where it decides
    them.  Every generator of the minimal resolution of K at level i
    sits in degree >= nu(i) = ``tor_pure_degree(i, N)`` (Berger 2001;
    Anick 1986: every i-chain has length >= nu(i)), so Tor_{i,t} = 0 for
    t < nu(i) on every N-homogeneous algebra.  Each level i >= 4 with
    nu(i) > t therefore has rank d_i = dim B_{i,t} - rank d_{i+1} in
    degree t, from B_{t+1,t} = 0 down; only block dims are read.  Only
    the levels min(i_max + 1, L - 1) down to 4 build a bar matrix, L the
    lowest level with nu(L) > t.

    Each degree ranks those levels from the top down with clearing
    (Chen-Kerber 2011): the pivot columns of level i + 1 are neither
    built into d_i nor fed.  The top eliminated level has no eliminated
    level above it, so nothing is cleared there.  Clearing is exact over
    every field and in any feed order.  A row v stored by the eliminator
    of d_{i+1} lies in im d_{i+1}, and its pivot j is its smallest index.
    Since d_i(v) = 0, column j of d_i is a combination of columns with
    larger index, so by descending induction on j the columns kept span
    what all the columns span.

    The feed order decides what the skip saves.  The columns follow
    _compositions' ascending layout and are fed last column first: that
    gives less fill-in (on the tor-bar benchmark inputs, before clearing,
    about a quarter fewer stored entries and about 45 % less elimination
    time than ascending order), and column j comes after every larger
    column, so it would reduce to zero.  Skipping it removes only that
    wasted reduction: the eliminator stores the same rows as without
    clearing.  Fed in ascending order, column j would come first and be
    stored, and skipping it would change the rows the others meet.

    The table is checked on dims alone, and ``ContractViolation`` is
    raised on a failure.  Every dim must be >= 0.  And the Euler
    identity of the bar complex, H_A(z) * sum_i (-1)^i Tor_i(z) = 1,
    must hold in each degree t <= min(n_max, max(i_max, nu(i_max+1) - 1)):
    sum_{s <= t} sum_{i <= min(s, i_max)} (-1)^i Tor_{i,s} dim A_{t-s}
    = [t = 0].  Below nu(i_max + 1) no Tor_i with i > i_max is nonzero,
    so truncating at i_max drops no term.  The identity checks the
    ranks read off the presentation and the theorem against the Hilbert
    series.  An eliminated rank cancels out of it, as it lowers Tor_i and
    Tor_{i-1} alike; a rank too high shows where it makes a dim negative.
    """
    field, N = algebra.field, algebra.N
    dims = algebra.hilbert_dims(n_max)
    # bar[i][t] = dim (A_+)^(x)i in degree t, by the first part's degree
    bar = [[1] + [0] * n_max]
    for _ in range(max(i_max + 1, n_max)):
        below = bar[-1]
        bar.append([sum(dims[s] * below[t - s] for s in range(1, t + 1))
                    for t in range(n_max + 1)])
    blocks = {}
    ranks = {}
    for t in range(n_max + 1):
        if t >= 2 and i_max >= 1:
            # rank d_2 and rank d_3 from the presentation, as above
            ranks[(2, t)] = dims[t]
            ranks[(3, t)] = (bar[2][t] - dims[t]
                             - (algebra.relations.dim if t == N else 0))
        # Tor_{i,t} = 0 below nu(i), as above
        i = t
        while i >= 4 and tor_pure_degree(i, N) > t:
            ranks[(i, t)] = bar[i][t] - ranks.get((i + 1, t), 0)
            i -= 1
        top = min(i, i_max + 1)
        for k in range(3, top + 1):
            blocks[(k, t)] = _BarBlock(algebra, k, t)
        cleared = set()
        for i in range(top, 3, -1):
            if bar[i][t] == 0 or bar[i - 1][t] == 0:
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
            dim = (bar[i][t] - ranks.get((i, t), 0)
                   - ranks.get((i + 1, t), 0))
            if dim < 0:
                raise ContractViolation(
                    "negative dim Tor_%d = %d in degree %d" % (i, dim, t))
            table[(i, t)] = dim
    window = min(n_max, max(i_max, tor_pure_degree(i_max + 1, N) - 1))
    for t in range(window + 1):
        euler = sum((-1) ** i * table[(i, s)] * dims[t - s]
                    for s in range(t + 1) for i in range(min(s, i_max) + 1))
        if euler != (t == 0):
            raise ContractViolation(
                "Tor table breaks the Euler identity of the bar complex "
                "in degree %d: %d" % (t, euler))
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


class GradedMap:
    """A degree-0 map (B^!)* -> C, held as sparse columns per degree.

    ``component(m)`` is a list with one dict {C_m position: scalar} per
    basis vector of W_m, or None when the degree-m map is zero.
    """

    def __init__(self, components):
        self.components = {m: cols for m, cols in components.items()
                           if any(cols)}

    def component(self, m):
        return self.components.get(m)

    def is_zero(self):
        return not self.components

    @classmethod
    def from_morphism(cls, morphism):
        """xi_f, the degree-1 element of B^! o C: f's matrix in degree 1."""
        return cls({1: morphism.matrix.cols})


def _block_offsets(target, bang, t):
    """Offsets of the blocks C_{t-m} (x) W_m, m = 0..t, then their total."""
    offsets = [0]
    for m in range(t + 1):
        offsets.append(offsets[-1] + target.dim(t - m) * bang.dim(m))
    return offsets


class ConvolutionContext:
    """Convolution algebra structure on degree-0 maps (B^!)* -> C."""

    def __init__(self, source, target):
        self.target = target
        self.bang = source.dual()
        self.field = source.field

    def convolve(self, alpha, beta, m_max):
        """alpha * beta up to degree m_max.

        The product weights the leading coproduct factor with beta and the
        trailing one with alpha; with that orientation the induced
        operators compose as d_alpha o d_beta = d_{alpha * beta}.
        """
        p = self.field.p
        out = {}
        for m in range(m_max + 1):
            wm = self.bang.dim(m)
            if wm == 0:
                continue
            # cols[u] = sum over (k, a, b) of coproduct coefficient u of
            # a*b times beta_k(a-hat) * alpha_l(b-hat)
            products = {}
            weights = [{} for _ in range(wm)]
            for k in range(m + 1):
                l = m - k
                acols = beta.component(k)
                bcols = alpha.component(l)
                if acols is None or bcols is None:
                    continue
                for a, va in enumerate(acols):
                    if not va:
                        continue
                    for b, vb in enumerate(bcols):
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
                        key = (k, a, b)
                        products[key] = cprod
                        for u, du in pv.items():
                            weights[u][key] = du
            out[m] = [apply_cols(p, products, w) for w in weights]
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
        p = field.p
        offsets = _block_offsets(self.target, self.bang, t)
        cols = [dict() for _ in range(offsets[-1])]
        for m in range(t + 1):
            wm = self.bang.dim(m)
            cs = self.target.dim(t - m)
            if wm == 0 or cs == 0:
                continue
            for k in sorted(alpha.components):
                mk = m - k
                if mk < 0:
                    continue
                wmk = self.bang.dim(mk)
                if wmk == 0 or self.target.dim(t - mk) == 0:
                    continue
                xs, ys = [], []
                for a, va in enumerate(alpha.component(k)):
                    if not va:
                        continue
                    xs.append([self.target.vector_product(t - m, {c: one},
                                                          k, va)
                               for c in range(cs)])
                    ys.append([self.bang.basis_product(k, a, mk, b)
                               for b in range(wmk)])
                ys = transpose_cols(ys, wm)
                for j in range(cs * wm):
                    col = cols[offsets[m] + j]
                    for i, v in kron_sum_apply(p, xs, ys, wm, wmk,
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
    import random
    ctx = ConvolutionContext(morphism.source, morphism.target)
    alpha = GradedMap.from_morphism(morphism)
    N = morphism.source.N
    if not ctx.convolution_power(alpha, N, N).is_zero():
        return False
    for t in range(m_max + 1):
        dmat = ctx.d_alpha_matrix(alpha, t)
        if dmat != _k_differential_total(morphism, t):
            return False
    rng = random.Random(seed)
    for _ in range(samples):
        a = _random_graded_map(ctx, m_max, rng)
        b = _random_graded_map(ctx, m_max, rng)
        t = rng.randrange(m_max + 1)
        da = ctx.d_alpha_matrix(a, t)
        db = ctx.d_alpha_matrix(b, t)
        dab = ctx.d_alpha_matrix(ctx.convolve(a, b, t), t)
        if da.compose(db) != dab:
            return False
    return True


def _random_graded_map(ctx, m_max, rng):
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
