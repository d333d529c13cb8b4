"""Reduction operators and the commuting-subspace dichotomy."""

import re
from itertools import combinations

import pytest

import nkoszul.reduction
from nkoszul.algebra import symmetric_algebra
from nkoszul.cli import main
from nkoszul.definitions import parse_definition
from nkoszul.errors import ContractViolation, DimensionMismatch
from nkoszul.fields import QQ
from nkoszul.linalg import Subspace
from nkoszul.reduction import (lemma3_check, monomial_rotation_closure,
                               monomial_subspace, reduction_operator)
from nkoszul.sampling import random_subspace, rng_from_seed
from nkoszul.words import block_embed, index_word
from oracles import DenseMatrix, kron, operator_matrix, sparse_rows


def unit(i):
    return {i: QQ.one}


def fixed_words(op):
    """The words S does not rewrite, listed over the whole word space."""
    return [w for w in range(op.relations.ambient_dim)
            if w not in op.rewrites]


def test_zero_relations_give_identity():
    op = reduction_operator(Subspace.zero(QQ, 4))
    assert operator_matrix(op) == DenseMatrix.identity(QQ, 4)
    assert op.leading_words == []
    assert fixed_words(op) == [0, 1, 2, 3]


def test_full_relations_give_zero():
    op = reduction_operator(Subspace.full(QQ, 4))
    assert all(not c for row in operator_matrix(op).rows for c in row)
    assert op.leading_words == [0, 1, 2, 3]


def test_commutator_rewrite():
    # words xx=0 xy=1 yx=2 yy=3; yx rewrites to xy, the rest are fixed
    R = Subspace.from_vectors(QQ, 4, [{1: -1, 2: 1}])
    op = reduction_operator(R)
    assert op.leading_words == [2]
    assert op.apply(unit(2)) == unit(1)
    for w in (0, 1, 3):
        assert op.apply(unit(w)) == unit(w)


def test_operator_contract():
    rng = rng_from_seed(41)
    for _ in range(25):
        amb = 2 ** 3
        R = random_subspace(QQ, amb, rng)
        op = reduction_operator(R)
        S = operator_matrix(op)
        # idempotent
        assert S.mul(S) == S
        # kernel is exactly R
        assert S.kernel() == R
        # each column either fixes its word or rewrites strictly downward
        for a in range(amb):
            col = [S.rows[i][a] for i in range(amb)]
            assert op.apply(unit(a)) == sparse_rows([col])[0]
            if a in op.leading_words:
                assert all(not c for c in col[a:])
            else:
                assert col == [QQ.one if i == a else QQ.zero
                               for i in range(amb)]
        # the image is spanned by the fixed words
        assert amb - len(op.leading_words) == amb - R.dim


def test_rewrites_terminate_by_descent():
    # iterating S from any word reaches a fixed vector in one step (S^2 = S)
    rng = rng_from_seed(43)
    R = random_subspace(QQ, 8, rng, dim=3)
    op = reduction_operator(R)
    for a in range(8):
        once = op.apply(unit(a))
        assert op.apply(once) == once


def test_random_subspace_dim_lies_in_the_ambient_space():
    rng = rng_from_seed(43)
    assert random_subspace(QQ, 3, rng, dim=3) == Subspace.full(QQ, 3)
    for dim in (4, -1):
        with pytest.raises(ValueError, match="dim out of range"):
            random_subspace(QQ, 3, rng, dim=dim)


# Reversed forms of R = span(x.y - y.x) in E^(x)2, coordinate j read as
# 3 - j, that each break one check of reduction_operator: a rewrite that
# climbs, a rewrite into another leading word, and a valid form of the
# wrong space, span(y.y).
BROKEN_REVERSED_FORMS = {
    "does not descend": Subspace(QQ, 4, ({0: 1, 1: 1},), (1,)),
    "not idempotent": Subspace(QQ, 4, ({0: 1, 1: 1}, {1: 1, 2: 1}), (0, 1)),
    "kernel differs": Subspace(QQ, 4, ({0: 1},), (0,)),
}


@pytest.mark.parametrize("message", sorted(BROKEN_REVERSED_FORMS))
def test_operator_checks_raise_contract_violation(monkeypatch, message):
    R = Subspace.from_vectors(QQ, 4, [{1: 1, 2: -1}])
    monkeypatch.setattr(nkoszul.reduction, "reversed_subspace",
                        lambda _: BROKEN_REVERSED_FORMS[message])
    with pytest.raises(ContractViolation, match=message):
        reduction_operator(R)


def test_factorization_both_sides():
    rng = rng_from_seed(47)
    for _ in range(10):
        R = random_subspace(QQ, 4, rng)
        op = reduction_operator(R)
        for r in (1, 2):
            S = operator_matrix(op)
            ident = DenseMatrix.identity(QQ, 2 ** r)
            right = reduction_operator(block_embed(R, 2, 0, r))
            assert kron(S, ident) == operator_matrix(right)
            left = reduction_operator(block_embed(R, 2, r, 0))
            assert kron(ident, S) == operator_matrix(left)


# x^10 - y.x^9 in a word space of 2^10: S rewrites y.x^9 (word 512) to
# x^10 (word 0) and fixes the other 1023 words without storing them
LARGE = "generators x y\ndegree 10\nrelation %s - y.%s\n" % (
    ".".join("x" * 10), ".".join("x" * 9))


def test_large_word_space():
    R = parse_definition(LARGE).to_algebra().relations
    op = reduction_operator(R)
    assert op.leading_words == [512]
    assert op.rewrites == {512: {0: QQ.one}}
    assert R.ambient_dim - len(op.leading_words) == 1023
    vec = {512: QQ.coerce(3), 1023: QQ.one, 5: QQ.coerce(-2)}
    once = op.apply(vec)
    assert once == {0: 3, 1023: 1, 5: -2}
    assert op.apply(once) == once
    assert op.apply({0: QQ.one, 512: -QQ.one}) == {}   # R lies in Ker S
    assert op.apply({0: QQ.one}) == {0: 1}


def test_cli_reduce_on_a_large_word_space(tmp_path, capsys):
    path = tmp_path / "deg10.alg"
    path.write_text(LARGE)
    assert main(["reduce", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    lead, words = "y." + ".".join("x" * 9), ".".join("x" * 10)
    assert lines[-3:] == ["leading_words: " + lead, "image_dim: 1023",
                          "rewrite %s: 1*%s" % (lead, words)]


def test_lemma3_trivial_cases():
    assert lemma3_check(Subspace.zero(QQ, 8), 1, 2) == (True, "Zero")
    assert lemma3_check(Subspace.full(QQ, 8), 2, 2) == (True, "Full")
    with pytest.raises(DimensionMismatch):
        lemma3_check(Subspace.zero(QQ, 8), 0, 2)
    # R of xy - yx has 4 = 2^2 = 4^1 coordinates: no power of 3, 1 or 8
    R = symmetric_algebra(2).relations
    assert lemma3_check(R, 1, 4) == (False, "NotEqual")
    for dim_e in (3, 1, 8):
        with pytest.raises(DimensionMismatch, match="no power of dim E"):
            lemma3_check(R, 1, dim_e)


def test_lemma3_rejects_intermediate_commuting_space():
    # no intermediate R commutes; a crafted false positive must raise,
    # so instead check a generic non-commuting space reports NotEqual
    R = monomial_subspace(QQ, 2, 2, [(0, 1)])
    assert lemma3_check(R, 1, 2) == (False, "NotEqual")


def test_rotation_closure_example():
    cl = monomial_rotation_closure([(0, 0)], 1, 2)
    assert cl == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with pytest.raises(DimensionMismatch):
        monomial_rotation_closure([(0, 1)], 0, 2)
    # a letter outside the alphabet, mixed lengths, r beyond the words
    for words, r, message in (
            ([(0, 5)], 1, "word (0, 5) has a letter outside alphabet of "
                          "size 2"),
            ([(0, 0), (0,)], 1, "word (0,) does not have n = 2 letters"),
            ([(0,), (0, 0)], 1, "word (0, 0) does not have n = 1 letters"),
            ([(0, 0)], 3, "r = 3 exceeds the n = 2 letters of the words")):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            monomial_rotation_closure(words, r, 2)


def test_rotation_closure_fixed_points():
    # already-closed sets stay put
    allwords = [index_word(i, 2, 2) for i in range(4)]
    assert monomial_rotation_closure(allwords, 1, 2) == set(allwords)
    assert monomial_rotation_closure([], 2, 2) == set()


@pytest.mark.parametrize("n, word", [(2, (0, 0, 1)), (3, (1, 1))],
                         ids=["too-long", "too-short"])
def test_monomial_subspace_rejects_words_of_the_wrong_length(n, word):
    # read at its own length, the word would name another word of length n
    message = "word %r does not have n = %d letters" % (word, n)
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        monomial_subspace(QQ, 2, n, [(0,) * n, word])


def test_monomial_dichotomy_exhaustive_small():
    # every monomial R on 2 letters, N = 2: equality only at the extremes
    allwords = [index_word(i, 2, 2) for i in range(4)]
    for k in range(5):
        for words in combinations(allwords, k):
            R = monomial_subspace(QQ, 2, 2, words)
            res = lemma3_check(R, 1, 2)
            if res.equal:
                assert len(words) in (0, 4)
            else:
                # the rotation closure escapes the set, certifying it
                closed = monomial_rotation_closure(words, 1, 2)
                assert closed != set(words) or 0 < len(words) < 4


def test_image_is_monomial():
    # with descending-lex pivots the image is spanned by plain words
    rng = rng_from_seed(53)
    for _ in range(10):
        R = random_subspace(QQ, 8, rng)
        op = reduction_operator(R)
        span = monomial_subspace(QQ, 2, 3,
                                 [index_word(w, 2, 3) for w in fixed_words(op)])
        # the column space of S
        assert Subspace.from_vectors(
            QQ, 8, sparse_rows(operator_matrix(op).transpose().rows)) == span
