"""Deterministic random generators for algebras, subspaces and morphisms.

Subspaces are sampled as random points of a Schubert cell: pick pivot
columns, fill the free entries with small integers.  This keeps both the
relation basis and its annihilator small-integer, so towers built on
either stay within exact-arithmetic reach.
"""

import random

from .algebra import Morphism, NHomogeneousAlgebra, _transported_relations
from .fields import QQ
from .linalg import Subspace, rank
from .sparsela import SparseMatrix


def rng_from_seed(seed):
    return random.Random(seed)


def random_subspace(field, ambient, rng, dim=None, span=4):
    """Random subspace in reduced-echelon position with small entries."""
    if dim is None:
        dim = rng.randint(0, ambient)
    if not 0 <= dim <= ambient:
        raise ValueError("dim out of range")
    pivots = sorted(rng.sample(range(ambient), dim))
    pset = set(pivots)
    rows = []
    for p in pivots:
        row = {p: 1}
        for c in range(p + 1, ambient):
            if c not in pset:
                row[c] = rng.randint(-span, span)
        rows.append(row)
    return Subspace.from_vectors(field, ambient, rows)


def random_algebra(dim_e, degree, rng, field=QQ, dim_r=None, span=4):
    relations = random_subspace(field, dim_e ** degree, rng, dim=dim_r,
                                span=span)
    return NHomogeneousAlgebra(dim_e, degree, relations)


def random_invertible_matrix(field, size, rng):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(size)]
                for _ in range(size)]
        mat = SparseMatrix.from_rows(field, rows)
        if rank(mat) == size:
            return mat


def transported_algebra(algebra, matrix):
    """The algebra whose relations are the matrix-power image of the input's."""
    return NHomogeneousAlgebra(algebra.dim_e, algebra.N,
                               _transported_relations(algebra, matrix))


def random_isomorphism(algebra, rng):
    """An isomorphism from the given algebra onto a transported copy."""
    mat = random_invertible_matrix(algebra.field, algebra.dim_e, rng)
    return Morphism(algebra, transported_algebra(algebra, mat), mat)


def random_rank_deficient_morphism(algebra, rng):
    """A singular map onto the algebra presented by the image relations."""
    g = algebra.dim_e
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
        sq = SparseMatrix.from_rows(algebra.field, rows)
        if rank(sq) < g:
            break
    return Morphism(algebra, transported_algebra(algebra, sq), sq)
