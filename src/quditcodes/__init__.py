"""Exact construction and verification of permutation-invariant qudit
error-correcting codes."""

from .arith import (ExactComplex, InvalidInputError, RadicalSum,
                    UnfactorableError, factorize, squarefree_split)
from .codes import (Code, OrbitAmplitude, ValidationReport, code_from_json,
                    code_to_json, codeword, load_code, save_code, validate)
from .combinatorics import (TailOrbit, canonical_representative, cyclic_shift,
                            enumerate_supports, expand_orbit,
                            is_effectively_sparse, iter_support_representatives,
                            sparsity_distance, tail_orbit, weight)
from .operators import (ErrorOperator, StateVector, apply_generator,
                        apply_logical_x, error_basis, inner_product)
from .reptheory import (branching_multiplicity, central_character,
                        is_valid_code_space, sym_dim)
from .solver import (DiscrepancyNote, QFSystem, build_qf_system, family_code,
                     family_support, search, solve_system)
from .verifier import KLReport, kl_full, kl_reduced, qf_check, run_level

__version__ = "0.1.0"
