"""Output checks of the benchmark, independent of the code under test.

Each check returns a list of error strings (empty when the output is right).
The arithmetic here is the benchmark's own: exact Fraction row reduction for
small relation spaces and dense NumPy elimination mod p for complexes.  The
checks rest on properties any correct answer has, not on stored copies of
earlier output; only reports with no closed form are compared to a reference
file (see workloads.CliDemos).
"""

from fractions import Fraction


# -- report parsing -----------------------------------------------------------

def parse_report(text):
    """Key/value text report as {key: value string}; blocks keep their lines."""
    out = {}
    key = None
    for line in text.splitlines():
        if line.startswith("  ") and key is not None:
            out[key] = (out[key] + "\n" if out[key] else "") + line[2:]
            continue
        key, _, value = line.partition(":")
        out[key] = value.strip()
    return out


def int_list(value):
    return [int(v) for v in value.split()]


def json_as_text(value):
    """Render one --json value the way the text report prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    if isinstance(value, str):
        return value.rstrip("\n")
    return str(value)


def text_json_errors(text, json_obj):
    """The text and --json renderings of one report carry the same pairs."""
    parsed = parse_report(text)
    rendered = {k: json_as_text(v) for k, v in json_obj.items()}
    if parsed != rendered:
        keys = sorted(k for k in set(parsed) | set(rendered)
                      if parsed.get(k) != rendered.get(k))
        return ["text and --json reports differ at %s" % ", ".join(keys)]
    return []


def parse_definition_text(text):
    """(generator count, degree, relation rows) of a definition file.

    Rows are {word index: Fraction}; the field line is ignored, because the
    benchmark always states the field on the command line.
    """
    names, degree, rows = None, None, []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "generators":
            names = {n: i for i, n in enumerate(tokens[1:])}
        elif tokens[0] == "degree":
            degree = int(tokens[1])
        elif tokens[0] == "relation":
            row = {}
            sign = 1
            for tok in tokens[1:]:
                if tok in "+-":
                    sign = 1 if tok == "+" else -1
                    continue
                coeff, _, word = tok.rpartition("*")
                value = sign * Fraction(coeff or 1)
                index = 0
                for letter in word.split("."):
                    index = index * len(names) + names[letter]
                row[index] = row.get(index, 0) + value
                sign = 1
            rows.append({j: c for j, c in row.items() if c})
    return len(names), degree, rows


# -- exact and modular linear algebra ----------------------------------------

def rref_qq(rows):
    """Canonical reduced echelon form of Fraction rows, as a sorted tuple."""
    pivots = {}
    for row in rows:
        row = dict(row)
        for j in sorted(row):
            if j in pivots and row.get(j):
                c = row[j]
                for k, v in pivots[j].items():
                    row[k] = row.get(k, 0) - c * v
                row = {k: v for k, v in row.items() if v}
        if not row:
            continue
        lead = min(row)
        inv = 1 / Fraction(row[lead])
        row = {k: v * inv for k, v in row.items()}
        for other in pivots.values():
            c = other.get(lead)
            if c:
                for k, v in row.items():
                    other[k] = other.get(k, 0) - c * v
                for k in [k for k, v in other.items() if not v]:
                    del other[k]
        pivots[lead] = row
    return tuple(tuple(sorted(pivots[p].items())) for p in sorted(pivots))


def rank_mod_p(matrix, p):
    """Rank of an integer matrix over GF(p) by dense elimination."""
    import numpy as np  # imported on first use, so peak memory is the program's
    m = np.array(matrix, dtype=np.int64) % p
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        below = np.nonzero(m[rank + 1:, col])[0] + rank + 1
        if below.size:
            m[below] = (m[below] - np.outer(m[below, col], m[rank])) % p
        rank += 1
    return rank


def rows_to_dense(rows, ncols, p):
    """Fraction rows {col: value} as an int64 matrix mod p."""
    import numpy as np
    out = np.zeros((max(len(rows), 1), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            v = Fraction(v)
            out[i, j] = v.numerator * pow(v.denominator, -1, p) % p
    return out


def sparse_to_dense(matrix, p):
    """A column-dict sparse matrix (entries ints mod p) as a dense array."""
    import numpy as np
    out = np.zeros((matrix.nrows, matrix.ncols), dtype=np.int64)
    for j, col in enumerate(matrix.cols):
        for i, v in col.items():
            out[i, j] = int(v) % p
    return out


def power_mod_p(mats, k, e, p):
    """Dense product d_{k+e-1} ... d_k of consecutive maps, or None if empty."""
    prod = None
    for step in range(e):
        d = mats.get(k + step)
        if d is None:
            return None
        prod = d if prod is None else (d @ prod) % p
    return prod


def rank_power(mats, k, e, p):
    prod = power_mod_p(mats, k, e, p)
    if prod is None or prod.size == 0:
        return 0
    return rank_mod_p(prod, p)


# -- tower: Hilbert dimensions certified from both sides ---------------------

def tower_lower_bound_errors(algebra, rows, dims):
    """Reported dims are at most the true ones.

    The map from words to normal-word coordinates given by the algebra's
    right-multiplication tables must send every normal word to its own basis
    vector (so it is onto) and every u.r, u a normal word and r a relation
    row from the input file, to zero (so it factors through the quotient).
    Then dim A_n >= the number of normal words.  Together with the upper
    bound from a large prime this certifies the QQ dimension.
    """
    errors = []
    g, N = algebra.dim_e, algebra.N
    one = algebra.field.one
    for n in range(1, len(dims)):
        comp = algebra.component(n)
        prev = algebra.component(n - 1)
        if comp.dim != dims[n]:
            errors.append("degree %d: report says %d, tables have %d"
                          % (n, dims[n], comp.dim))
            continue
        for pos, word in enumerate(comp.normal_words):
            prefix, letter = divmod(word, g)
            src = prev.word_pos.get(prefix)
            if src is None or comp.rmul_cols[letter][src] != {pos: one}:
                errors.append("degree %d: normal word %d is not a basis vector"
                              % (n, word))
                break
    for n in range(N, len(dims)):
        base = algebra.component(n - N)
        for pu in range(base.dim):
            classes = {0: {pu: one}}
            for k in range(1, N + 1):
                comp = algebra.component(n - N + k)
                nxt = {}
                for prefix, vec in classes.items():
                    for letter in range(g):
                        out = {}
                        cols = comp.rmul_cols[letter]
                        for src, c in vec.items():
                            for t, v in cols[src].items():
                                out[t] = out.get(t, 0) + c * v
                        nxt[prefix * g + letter] = {t: v for t, v in out.items()
                                                    if v}
                classes = nxt
            for r in rows:
                total = {}
                for w, c in r.items():
                    for t, v in classes[w].items():
                        total[t] = total.get(t, 0) + c * v
                if any(total.values()):
                    errors.append("degree %d: a relation times a normal word "
                                  "is nonzero" % n)
                    return errors
    return errors


def tower_upper_bound_errors(dims, dims_mod_p):
    """dim over QQ <= dim over GF(p) for an integer presentation; require =."""
    if dims != dims_mod_p:
        return ["QQ dims %s differ from the large-prime dims %s"
                % (dims, dims_mod_p)]
    return []


def closed_form_errors(label, dims, expected):
    if dims != expected:
        return ["%s: dims %s, expected %s" % (label, dims, expected)]
    return []


# -- N-complexes --------------------------------------------------------------

def dense_maps(slice_, p):
    """{position: dense differential} for every map with nonzero ends."""
    mats = {}
    for k in range(len(slice_.positions) - 1):
        if slice_.position_dim(k) and slice_.position_dim(k + 1):
            mats[k] = sparse_to_dense(slice_.differential(k), p)
    return mats


def dN_errors(label, mats, npos, N, p):
    """Every N consecutive maps compose to zero (dense product mod p)."""
    for k in range(npos - N):
        prod = power_mod_p(mats, k, N, p)
        if prod is not None and prod.any():
            return ["%s: d^%d != 0 from position %d" % (label, N, k)]
    return []


def homology_at(mats, dims, k, q, N, p):
    """dim Ker d^q / Im d^(N-q) at position k of a K slice."""
    rank_in = rank_power(mats, k - (N - q), N - q, p) if k >= N - q else 0
    return dims[k] - rank_power(mats, k, q, p) - rank_in


def contracted_at(slices, N, q, r, i, t, p):
    """Homology of C_{q,r} at block i, total degree t (dense recomputation).

    Block i sits at dual-side degree k(i) (k(2j) = jN + r,
    k(2j+1) = (j+1)N - q + r) of the slice of total degree t; the map out of
    an even block is d^q and out of an odd block d^(N-q).
    """
    def kk(i):
        j, odd = divmod(i, 2)
        return j * N + r + ((N - q) if odd else 0)

    def block(i):
        return slices[t][1][t - kk(i)] if kk(i) <= t else 0

    def rank_map(i):
        if i < 1 or kk(i) > t:
            return 0
        step = q if i % 2 == 0 else N - q
        return rank_power(slices[t][0], t - kk(i), step, p)

    return block(i) - rank_map(i) - rank_map(i + 1)


# -- Tor ----------------------------------------------------------------------

def tor_errors(table, g, N, dim_r, nmax, imax):
    """Tor_0 = K, Tor_1 = E in degree 1, Tor_2 = R in degree N only."""
    errors = []
    want = {0: {0: 1}, 1: {1: g}, 2: {N: dim_r} if dim_r else {}}
    for i, row in want.items():
        if i > imax:
            continue
        expect = [row.get(t, 0) for t in range(nmax + 1)]
        if table[i] != expect:
            errors.append("Tor_%d is %s, expected %s" % (i, table[i], expect))
    return errors


def tor_euler_errors(table, dims, imax):
    """H_A(t) * sum_i (-1)^i Tor_i(t) = 1, in every degree t <= imax."""
    for t in range(min(len(dims) - 1, imax) + 1):
        total = 0
        for s in range(t + 1):
            chi = sum((-1) ** i * table[i][s] for i in range(len(table)))
            total += chi * dims[t - s]
        if total != (1 if t == 0 else 0):
            return ["Euler characteristic of Tor fails in degree %d" % t]
    return []


def tor_koszul_errors(table, dual_dims, N, nmax):
    """For Koszul A: dim Tor_2j = dim A!_jN, dim Tor_2j+1 = dim A!_jN+1."""
    for i, row in enumerate(table):
        j, odd = divmod(i, 2)
        t = j * N + odd
        if t <= nmax and row[t] != dual_dims[t]:
            return ["Koszul algebra: Tor_%d in degree %d is %d, dim A^! is %d"
                    % (i, t, row[t], dual_dims[t])]
    return []


def purity_errors(pure, verdict, nmax, imax):
    """`pure` agrees with the Koszulity verdict whose witness is in the window."""
    if verdict.startswith("KoszulUpTo"):
        return [] if pure == "true" else ["Koszul up to %d but Tor impure"
                                          % nmax]
    i = int(verdict.split("i=")[1].split(",")[0])
    t = int(verdict.split("degree=")[1].split(",")[0])
    if t <= nmax and i + 1 <= imax and pure != "false":
        return ["%s inside the Tor window, but Tor is pure" % verdict]
    return []
