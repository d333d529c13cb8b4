"""Reduction operators and the commuting-subspace dichotomy."""

from itertools import combinations

import pytest

from nkoszul.errors import DimensionMismatch
from nkoszul.fields import QQ
from nkoszul.linalg import Matrix, Subspace, kernel
from nkoszul.reduction import (lemma3_check, monomial_rotation_closure,
                               monomial_subspace, reduction_operator)
from nkoszul.sampling import random_subspace, rng_from_seed
from nkoszul.words import block_embed, index_word
from oracles import kron, sparse_rows


def unit(i, n):
    v = [QQ.zero] * n
    v[i] = QQ.one
    return v


def test_zero_relations_give_identity():
    op = reduction_operator(Subspace.zero(QQ, 4), 2)
    assert op.S == Matrix.identity(QQ, 4)
    assert op.leading_words == []
    assert op.image_words() == [0, 1, 2, 3]


def test_full_relations_give_zero():
    op = reduction_operator(Subspace.full(QQ, 4), 2)
    assert all(not c for row in op.S.rows for c in row)
    assert op.leading_words == [0, 1, 2, 3]


def test_commutator_rewrite():
    # words xx=0 xy=1 yx=2 yy=3; yx rewrites to xy, the rest are fixed
    R = Subspace.from_vectors(QQ, 4, [{1: -1, 2: 1}])
    op = reduction_operator(R, 2)
    assert op.leading_words == [2]
    assert op.apply(unit(2, 4)) == unit(1, 4)
    for w in (0, 1, 3):
        assert op.apply(unit(w, 4)) == unit(w, 4)


def test_operator_contract():
    rng = rng_from_seed(41)
    for _ in range(25):
        amb = 2 ** 3
        R = random_subspace(QQ, amb, rng)
        op = reduction_operator(R, 3)
        S = op.S
        # idempotent
        assert S.mul(S) == S
        # kernel is exactly R
        assert kernel(op.S) == R
        # each column either fixes its word or rewrites strictly downward
        for a in range(amb):
            col = [S.rows[i][a] for i in range(amb)]
            if a in op.leading_words:
                assert all(not c for c in col[a:])
            else:
                assert col == unit(a, amb)
        # the image is spanned by the fixed words
        assert len(op.image_words()) == amb - R.dim


def test_rewrites_terminate_by_descent():
    # iterating S from any word reaches a fixed vector in one step (S^2 = S)
    rng = rng_from_seed(43)
    R = random_subspace(QQ, 8, rng, dim=3)
    op = reduction_operator(R, 3)
    for a in range(8):
        once = op.apply(unit(a, 8))
        assert op.apply(once) == once


def test_factorization_both_sides():
    rng = rng_from_seed(47)
    for _ in range(10):
        R = random_subspace(QQ, 4, rng)
        op = reduction_operator(R, 2)
        for r in (1, 2):
            ident = Matrix.identity(QQ, 2 ** r)
            right = reduction_operator(block_embed(R, 2, 0, r), 2 + r)
            assert kron(op.S, ident) == right.S
            left = reduction_operator(block_embed(R, 2, r, 0), 2 + r)
            assert kron(ident, op.S) == left.S


def test_lemma3_trivial_cases():
    assert lemma3_check(Subspace.zero(QQ, 8), 1, 2) == (True, "Zero")
    assert lemma3_check(Subspace.full(QQ, 8), 2, 2) == (True, "Full")
    with pytest.raises(DimensionMismatch):
        lemma3_check(Subspace.zero(QQ, 8), 0, 2)


def test_lemma3_rejects_intermediate_commuting_space():
    # no intermediate R commutes; a crafted false positive must raise,
    # so instead check a generic non-commuting space reports NotEqual
    R = monomial_subspace(QQ, 2, 2, [(0, 1)])
    assert lemma3_check(R, 1, 2) == (False, "NotEqual")


def test_rotation_closure_example():
    cl = monomial_rotation_closure([(0, 0)], 1, 2)
    assert cl == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_rotation_closure_fixed_points():
    # already-closed sets stay put
    allwords = [index_word(i, 2, 2) for i in range(4)]
    assert monomial_rotation_closure(allwords, 1, 2) == set(allwords)
    assert monomial_rotation_closure([], 2, 2) == set()


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
        op = reduction_operator(R, 3)
        span = monomial_subspace(QQ, 2, 3,
                                 [index_word(w, 2, 3) for w in op.image_words()])
        # the column space of S
        assert Subspace.from_vectors(
            QQ, 8, sparse_rows(op.S.transpose().rows)) == span
