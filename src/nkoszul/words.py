"""Words over a finite alphabet as coordinates of tensor powers.

A word of length n over an alphabet of size g is a tuple of letters in
range(g); it indexes a basis vector of the n-th tensor power of a
g-dimensional space via the base-g expansion (leftmost letter most
significant), so lexicographic word order matches index order.  A word
is spelled from its index, by ``word_speller``, only when it is printed.
"""

import functools

from .errors import DimensionMismatch
from .linalg import Subspace, reversed_subspace


def word_index(word, alphabet_size):
    """Index of a word (tuple of letters) in the length-len(word) basis."""
    idx = 0
    for letter in word:
        if not 0 <= letter < alphabet_size:
            raise DimensionMismatch(
                "letter %r outside alphabet of size %d" % (letter, alphabet_size))
        idx = idx * alphabet_size + letter
    return idx


def index_word(idx, alphabet_size, length):
    """Inverse of word_index for words of the given length."""
    if not 0 <= idx < alphabet_size ** length:
        raise DimensionMismatch("index %d out of range" % idx)
    letters = []
    for _ in range(length):
        idx, r = divmod(idx, alphabet_size)
        letters.append(r)
    return tuple(reversed(letters))


def word_speller(names, length):
    """The function spelling a word index as its letters joined by ".".

    The empty word is "1".  A word is joined from two halves, of ceil(n/2)
    and floor(n/2) letters, each spelled once per speller.
    """
    g, low = len(names), length // 2
    size, base = g ** length, g ** low

    @functools.lru_cache(maxsize=None)
    def half(idx, n):
        return ".".join(names[letter] for letter in index_word(idx, g, n))

    def spell(idx):
        if not 0 <= idx < size:
            raise DimensionMismatch("index %d out of range" % idx)
        if not low:
            return half(idx, length) if length else "1"
        high, rest = divmod(idx, base)
        return half(high, length - low) + "." + half(rest, low)

    return spell


def interleave_index(sep_index, n_blocks, dim_a, dim_b):
    """Separated index (word over A then word over B) -> interleaved index.

    The separated basis vector e_u (x) e_v of A^(x)n (x) B^(x)n maps to the
    basis vector of (A (x) B)^(x)n whose k-th factor is a_{u_k} (x) b_{v_k};
    the shuffle moves positions, never values.
    """
    u_index, v_index = divmod(sep_index, dim_b ** n_blocks)
    u = index_word(u_index, dim_a, n_blocks)
    v = index_word(v_index, dim_b, n_blocks)
    pair_dim = dim_a * dim_b
    idx = 0
    for a, b in zip(u, v):
        idx = idx * pair_dim + (a * dim_b + b)
    return idx


def interleaved_span(field, rows, n_blocks, dim_a, dim_b):
    """The span in (A (x) B)^(x)n of rows of A^(x)n (x) B^(x)n.

    Each row key is interleaved on its own, so the cost follows the rows'
    entries, never the (dim_a * dim_b)^n words of the ambient space.
    """
    return Subspace.from_vectors(
        field, (dim_a * dim_b) ** n_blocks,
        [{interleave_index(sep, n_blocks, dim_a, dim_b): c
          for sep, c in row.items()} for row in rows])


def annihilator(subspace):
    """The subspace of the dual space pairing to zero with the input.

    Coordinates of the dual space are taken in the dual basis, so the
    annihilator of a subspace of words is again a subspace of words.  It
    is read off the reversed canonical form, whose row r_p has leading
    (greatest) word p: each other word j gives e_j - sum_p r_p[j] e_p.
    Every such p exceeds j and no other row holds j or p, so these rows
    are already canonical.
    """
    field, last = subspace.field, subspace.ambient_dim - 1
    reverse = reversed_subspace(subspace)
    leads = {last - p for p in reverse.pivots}
    rows = {j: {j: field.one} for j in range(last + 1) if j not in leads}
    # leading words in increasing order, so each row's keys ascend
    for p, row in zip(reversed(reverse.pivots), reversed(reverse.rows)):
        for j, c in row.items():
            if j != p:
                rows[last - j][last - p] = field.neg(c)
    return Subspace(field, subspace.ambient_dim, tuple(rows.values()),
                    tuple(rows))


def tensor_subspace(a, b):
    """S (x) T inside the tensor product of the ambient spaces.

    The Kronecker product of two RREF bases is again an RREF basis (pivot
    of row (i,k) sits at column (p_i, q_k), and pivot columns stay unit),
    so the canonical form needs no further reduction.
    """
    if a.field != b.field:
        raise DimensionMismatch("tensor_subspace: field mismatch")
    mul, width = a.field.mul, b.ambient_dim
    rows = tuple({i * width + j: mul(u, v)
                  for i, u in ra.items() for j, v in rb.items()}
                 for ra in a.rows for rb in b.rows)
    pivots = tuple(p * width + q for p in a.pivots for q in b.pivots)
    return Subspace(a.field, a.ambient_dim * width, rows, pivots)


def block_embed(relations, dim_e, left, right):
    """E^(x)left (x) R (x) E^(x)right as a subspace of E^(x)(left+N+right)."""
    field = relations.field
    sub = relations
    if right:
        sub = tensor_subspace(sub, Subspace.full(field, dim_e ** right))
    if left:
        sub = tensor_subspace(Subspace.full(field, dim_e ** left), sub)
    return sub
