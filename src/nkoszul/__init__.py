"""Exact computations with N-homogeneous algebras.

Core objects: algebras T(E)/(R) with R in a single tensor degree N,
their duals and o/bullet products, Koszul N-complexes and generalized
homology, contracted complexes and Koszulity verdicts, Tor via the
normalized bar complex, and reduction operators on relation subspaces.
"""

from .algebra import (Morphism, NHomogeneousAlgebra, bullet, circ,
                      end_algebra, free_algebra, full_relations_algebra,
                      hom_algebra, is_morphism, prop1_check,
                      symmetric_algebra, veronese_dims)
from .errors import ContractViolation, DefinitionError, DimensionMismatch
from .fields import QQ, PrimeField, RationalField, field_from_name
from .linalg import Subspace, rank, rref
from .sparsela import SparseMatrix
from .koszul import (ContractedComplex, ConvolutionContext, GradedMap,
                     KoszulVerdict,
                     LComplexSlice, NComplexSlice, convolution_check,
                     generalized_homology, koszul_K, koszul_L,
                     koszulity_check, lemma2_check, slice_acyclic,
                     tor_dims, tor_pure_degree, tor_purity, verdict_string)
from .words import (annihilator, block_embed, index_word, interleaved_span,
                    tensor_subspace, word_index, word_speller)
from .definitions import (AlgebraDefinition, definition_from_algebra,
                          parse_definition, serialize_definition)
from .reduction import (Lemma3Result, ReductionOperator, lemma3_check,
                        monomial_rotation_closure, monomial_subspace,
                        reduction_operator)
from .sampling import (random_algebra, random_full_rank_non_isomorphism,
                       random_isomorphism, random_rank_deficient_morphism,
                       random_subspace, rng_from_seed, transported_algebra)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
