"""Lexicographic reduction operators on tensor degrees of a free algebra.

A subspace R of E^(x)n determines an idempotent S on E^(x)n that fixes
words outside the leading-word set of R and rewrites each leading word
into strictly lexicographically smaller ones, with Ker S = R.  Pivoting
here runs over DESCENDING lex word order (pivot = greatest word of each
relation) -- the opposite of the linear-algebra default -- because
rewrites must decrease words.
"""

from collections import namedtuple

from .errors import ContractViolation, DimensionMismatch
from .linalg import Matrix, Subspace, kernel
from .sparsela import Eliminator
from .words import block_embed, index_word, word_index


class ReductionOperator:
    """Idempotent rewrite operator attached to a relation subspace."""

    def __init__(self, n, operator, leading_words, relations):
        self.n = n
        self.S = operator
        self.leading_words = leading_words
        self.relations = relations

    def apply(self, vector):
        return self.S.apply(vector)

    def image_words(self):
        """The words fixed by S; they span Im(S)."""
        lead = set(self.leading_words)
        return [w for w in range(self.S.ncols) if w not in lead]

    def __repr__(self):
        return "ReductionOperator(n=%d, leading=%r)" % (
            self.n, list(self.leading_words))


def _descending_rref(relations):
    """RREF with pivots at the greatest word of each relation.

    Returns {leading word: relation row as a dict}, each row 1 at its own
    leading word and 0 at every other leading word.  Word w is fed to the
    eliminator as column last - w, so its ascending pivots are the
    greatest words.
    """
    last = relations.ambient_dim - 1
    elim = Eliminator(relations.field)
    for row in relations.rows:
        elim.add({last - w: c for w, c in row.items()})
    elim.finalize()
    return {last - p: {last - j: c for j, c in row.items()}
            for p, row in elim.pivot_rows.items()}


def reduction_operator(relations, word_length):
    """Build S from R, then verify idempotence, descent and Ker S = R."""
    field = relations.field
    amb = relations.ambient_dim
    reduced = _descending_rref(relations)
    mat = Matrix.identity(field, amb)
    for lead, row in reduced.items():
        # S sends the leading word to minus the rest of its relation
        for w, c in row.items():
            mat.rows[w][lead] = field.neg(c)
        mat.rows[lead][lead] = field.zero
    for a in range(amb):
        col = [mat.rows[i][a] for i in range(amb)]
        if a in reduced:
            if any(col[w] for w in range(a, amb)):
                raise ContractViolation("rewrite of word %d does not descend" % a)
        else:
            if any(col[w] for w in range(amb) if w != a) or col[a] != field.one:
                raise ContractViolation("word %d should be fixed" % a)
    if mat.mul(mat) != mat:
        raise ContractViolation("operator is not idempotent")
    if kernel(mat) != relations:
        raise ContractViolation("kernel differs from the relation space")
    return ReductionOperator(word_length, mat, sorted(reduced), relations)


Lemma3Result = namedtuple("Lemma3Result", ["equal", "conclusion"])


def lemma3_check(relations, r, dim_e):
    """Decide R (x) E^r = E^r (x) R; equality forces R = 0 or R = E^(x)n.

    Returns (equal, conclusion) with conclusion one of "Zero", "Full",
    "NotEqual".  Equality with 0 < dim R < full raises, since that would
    contradict the dichotomy.
    """
    if r < 1:
        raise DimensionMismatch("r must be at least 1")
    amb = relations.ambient_dim
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
    the monomial equality case forces fullness.
    """
    if r < 1:
        raise DimensionMismatch("r must be at least 1")
    closure = set(tuple(w) for w in words)
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


def monomial_subspace(field, dim_e, n, words):
    """Span of unit vectors at the given words inside E^(x)n."""
    return Subspace.from_vectors(
        field, dim_e ** n, [{word_index(tuple(w), dim_e): 1} for w in words])
