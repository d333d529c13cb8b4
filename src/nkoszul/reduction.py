"""Lexicographic reduction operators on tensor degrees of a free algebra.

A subspace R of E^(x)n determines an idempotent S on E^(x)n that fixes
words outside the leading-word set of R and rewrites each leading word
into strictly lexicographically smaller ones, with Ker S = R.  Pivoting
here runs over DESCENDING lex word order (pivot = greatest word of each
relation) -- the opposite of the linear-algebra default -- because
rewrites must decrease words.  S is held as its rewrites alone, so its
cost follows dim R and the rewrites' sizes, never dim E^(x)n.
"""

from collections import namedtuple

from .errors import ContractViolation, DimensionMismatch
from .linalg import Subspace, reversed_subspace
from .sparsela import apply_cols
from .words import block_embed, index_word


class ReductionOperator:
    """Idempotent rewrite operator attached to a relation subspace.

    ``rewrites`` maps each leading word to its image under S, a sparse
    column {word: scalar} of strictly smaller words; S fixes every other
    word.  Words are indices into the ambient space of ``relations``.
    """

    def __init__(self, rewrites, relations):
        self.rewrites = rewrites
        self.leading_words = sorted(rewrites)
        self.relations = relations

    def apply(self, vector):
        """S applied to a sparse vector {word: scalar}, as a new dict."""
        one = self.relations.field.one
        cols = {w: self.rewrites.get(w, {w: one}) for w in vector}
        return apply_cols(self.relations.field.p, cols, vector)

    def __repr__(self):
        return "ReductionOperator(leading=%r)" % (self.leading_words,)


def reduction_operator(relations):
    """Build S from R, then verify descent, idempotence and Ker S = R.

    S acts on the word indices of R's ambient space, so it needs no n.
    """
    field, last = relations.field, relations.ambient_dim - 1
    # S sends each leading word to minus the rest of its relation
    reverse = reversed_subspace(relations)
    rewrites = {last - p: {last - w: field.neg(c)
                           for w, c in row.items() if w != p}
                for p, row in zip(reverse.pivots, reverse.rows)}
    for lead, col in rewrites.items():
        if any(w >= lead for w in col):
            raise ContractViolation(
                "rewrite of word %d does not descend" % lead)
    op = ReductionOperator(rewrites, relations)
    if any(op.apply(col) != col for col in rewrites.values()):
        raise ContractViolation("operator is not idempotent")
    # S is idempotent, so Ker S = Im(1 - S), spanned by e_a - S(e_a)
    # over the leading words a (the other words give 0)
    kernel = Subspace.from_vectors(
        field, relations.ambient_dim,
        [{lead: field.one, **{w: field.neg(c) for w, c in col.items()}}
         for lead, col in rewrites.items()])
    if kernel != relations:
        raise ContractViolation("kernel differs from the relation space")
    return op


Lemma3Result = namedtuple("Lemma3Result", ["equal", "conclusion"])


def lemma3_check(relations, r, dim_e):
    """Decide R (x) E^r = E^r (x) R; equality forces R = 0 or R = E^(x)n.

    Returns (equal, conclusion) with conclusion one of "Zero", "Full",
    "NotEqual".  Equality with 0 < dim R < full raises, since that would
    contradict the dichotomy.  R must lie in E^(x)n for some n >= 1, with
    dim E = dim_e.
    """
    if r < 1:
        raise DimensionMismatch("r must be at least 1")
    amb = relations.ambient_dim
    power = dim_e
    while 1 < power < amb:
        power *= dim_e
    if power != amb:
        raise DimensionMismatch(
            "ambient dimension %d is no power of dim E = %d" % (amb, dim_e))
    left = block_embed(relations, dim_e, 0, r)
    right = block_embed(relations, dim_e, r, 0)
    if left != right:
        return Lemma3Result(False, "NotEqual")
    if relations.dim == 0:
        return Lemma3Result(True, "Zero")
    if relations.dim == amb:
        return Lemma3Result(True, "Full")
    raise ContractViolation(
        "commuting relation space of intermediate dimension %d" % relations.dim)


def monomial_rotation_closure(words, r, alphabet_size):
    """Close a set of words under left-truncation by r letters plus any suffix.

    If the span of the word set commutes with E^(x)r, every word reachable
    this way must also lie in it, so closure = all words certifies that
    the monomial equality case forces fullness.  The words must share
    one length n >= r, with letters in range(alphabet_size).
    """
    if r < 1:
        raise DimensionMismatch("r must be at least 1")
    words = [tuple(w) for w in words]
    n = len(words[0]) if words else r
    for w in words:
        if len(w) != n:
            raise DimensionMismatch("word %r does not have n = %d letters"
                                    % (w, n))
        if not all(0 <= letter < alphabet_size for letter in w):
            raise DimensionMismatch("word %r has a letter outside alphabet "
                                    "of size %d" % (w, alphabet_size))
    if r > n:
        raise DimensionMismatch("r = %d exceeds the n = %d letters of the "
                                "words" % (r, n))
    closure = set(words)
    suffixes = [index_word(i, alphabet_size, r) for i in range(alphabet_size ** r)]
    frontier = list(closure)
    while frontier:
        word = frontier.pop()
        stem = word[r:]
        for s in suffixes:
            new = stem + s
            if new not in closure:
                closure.add(new)
                frontier.append(new)
    return closure
