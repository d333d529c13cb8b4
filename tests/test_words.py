"""Word bases of tensor powers and the block-interleaving machinery."""

import pytest
from hypothesis import event, example, given, settings, strategies as st

from nkoszul.errors import DimensionMismatch
from nkoszul.fields import PrimeField, QQ
from nkoszul.linalg import Subspace
from nkoszul.words import (annihilator, block_embed, index_word,
                           interleave_index, interleaved_span,
                           tensor_subspace, word_index, word_speller)
from oracles import (dense_rows, reference_annihilator, shuffle_map,
                     sparse_rows)


def test_word_index_is_lexicographic():
    words = [index_word(i, 2, 3) for i in range(2 ** 3)]
    assert words[0] == (0, 0, 0)
    assert words[-1] == (1, 1, 1)
    assert words == sorted(words)
    assert word_index((1, 0, 1), 2) == 5
    assert index_word(5, 2, 3) == (1, 0, 1)


def test_word_index_round_trip():
    for g, n in ((1, 4), (2, 3), (3, 2)):
        for i in range(g ** n):
            assert word_index(index_word(i, g, n), g) == i


def test_word_index_validates_letters():
    with pytest.raises(DimensionMismatch):
        word_index((0, 2), 2)
    with pytest.raises(DimensionMismatch):
        index_word(9, 2, 3)


def test_label():
    assert word_speller(["x", "y"], 2)(1) == "x.y"
    assert word_speller(["x", "y"], 0)(0) == "1"


@pytest.mark.parametrize("g, n", [(2, 23), (3, 8), (40, 3), (1, 5), (2, 0),
                                  (2, 1)])
def test_word_speller_matches_letter_by_letter_spelling(g, n):
    # the speller joins two memoized halves; the reference spells each
    # letter of the word on its own
    names = ["g%d" % i for i in range(g)]
    spell = word_speller(names, n)
    size = g ** n
    for idx in (0, size // 2, size - 1):
        letters = [names[a] for a in index_word(idx, g, n)]
        assert spell(idx) == (".".join(letters) if letters else "1")
    with pytest.raises(DimensionMismatch):
        spell(size)


def test_interleave_index_frozen():
    # two blocks, both sides one letter from a 2-letter alphabet:
    # e_{u1 u2} (x) e_{v1 v2} -> e_{(u1,v1)(u2,v2)} with pair base 4
    # u = (1,0), v = (0,1): pairs (1*2+0, 0*2+1) = (2,1) -> 2*4+1 = 9
    sep = (word_index((1, 0), 2)) * 4 + word_index((0, 1), 2)
    assert interleave_index(sep, 2, 2, 2) == 9


def test_shuffle_map_is_permutation():
    f = shuffle_map(QQ, 2, 2, 2)
    seen = set()
    for row in f.rows:
        ones = [j for j, c in enumerate(row) if c]
        assert len(ones) == 1
        seen.add(ones[0])
    assert seen == set(range(16))


def test_annihilator_dims_and_double_perp():
    U = Subspace.from_vectors(QQ, 4, [{0: 1, 1: 2}, {2: 1, 3: -1}])
    perp = annihilator(U)
    assert perp.dim == 2
    assert annihilator(perp) == U
    # pairing really vanishes
    for u in dense_rows(U):
        for v in dense_rows(perp):
            s = QQ.zero
            for a, b in zip(u, v):
                s = QQ.add(s, QQ.mul(a, b))
            assert s == QQ.zero


def test_tensor_subspace_dims():
    U = Subspace.from_vectors(QQ, 2, [{0: 1, 1: 1}])
    V = Subspace.from_vectors(QQ, 3, [{0: 1}, {1: 1}])
    W = tensor_subspace(U, V)
    assert W.ambient_dim == 6
    assert W.dim == 2
    assert W.contains_vector({0: 1, 3: 1})


def test_tensor_subspace_rejects_field_mismatch():
    U = Subspace.from_vectors(QQ, 2, [{0: 1}])
    V = Subspace.from_vectors(PrimeField(7), 2, [{0: 1}])
    with pytest.raises(DimensionMismatch, match="field mismatch"):
        tensor_subspace(U, V)


def test_block_embed_matches_intersection_oracle():
    # E (x) R inside E^(x)3 for R = span(xy - yx)
    R = Subspace.from_vectors(QQ, 4, [{1: 1, 2: -1}])
    left = block_embed(R, 2, 1, 0)
    assert left.ambient_dim == 8 and left.dim == 2
    # oracle: all vectors whose both "slices" lie in R
    vecs = []
    for a in range(2):
        vecs.append({a * 4 + 1: 1, a * 4 + 2: -1})
    assert left == Subspace.from_vectors(QQ, 8, vecs)


def test_interleave_subspace_preserves_dim():
    U = Subspace.from_vectors(QQ, 4, [{0: 1, 3: 1}, {1: 1, 2: 1}])
    W = interleaved_span(QQ, tensor_subspace(U, U).rows, 2, 2, 2)
    assert W.ambient_dim == 16
    assert W.dim == 4


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=30, deadline=None)
def test_annihilator_dimension_law(g, n, data):
    amb = g ** n if n else 1
    nrows = data.draw(st.integers(min_value=0, max_value=amb))
    rows = data.draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=amb, max_size=amb),
        min_size=nrows, max_size=nrows))
    U = Subspace.from_vectors(QQ, amb, sparse_rows(rows))
    assert annihilator(U).dim == amb - U.dim


@st.composite
def spanning_rows(draw):
    """(ambient dimension g^n, dense integer rows), zero rows included."""
    amb = draw(st.sampled_from([1, 2, 3, 4, 8, 9, 16, 27]))
    nrows = draw(st.integers(min_value=0, max_value=amb + 2))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=amb, max_size=amb),
        min_size=nrows, max_size=nrows))
    return amb, rows


@given(spanning_rows(),
       st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
@settings(max_examples=80, deadline=None)
@example((1, []), QQ)
@example((1, [[2]]), PrimeField(7))
@example((4, [[int(i == j) for j in range(4)] for i in range(4)]),
         PrimeField(32003))
@example((9, [[(3 * i + j * j) % 5 - 2 for j in range(9)] for i in range(9)]),
         QQ)
def test_annihilator_matches_the_re_eliminating_oracle(case, field):
    amb, rows = case
    U = Subspace.from_vectors(field, amb, sparse_rows(rows))
    event("dim R > g^n/2" if 2 * U.dim > amb else "dim R <= g^n/2")
    event("zero" if U.dim == 0 else "full" if U.dim == amb else "between")
    perp = annihilator(U)
    assert perp == reference_annihilator(U)
    assert perp.dim == amb - U.dim
    assert annihilator(perp) == U
