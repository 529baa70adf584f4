"""Circular symbolic systems: exact construction sequences, tower
simulation of the conjugacy method, the rotation factor, and smooth
realizations of grid permutations."""

from .errors import (CoherenceError, ConstraintError, InputError,
                     OracleMismatch, ResourceError, ToleranceError)
from .ratarith import Params, derive_params, dyn_order, d_index, load_params
from .words import (Boundary, Interior, LazyCircularWord, boundary_stats,
                    circ, decode_position, parse, text_to_word, word_to_text)
from .consys import (ConstructionSequence, build_sequence,
                     check_unique_readability, estimate_cylinder,
                     in_S_window, verify_uniformity)
from .procsim import (GridPermutation, GridProcess, build_process,
                      check_requirements, compose_stage, eps_approx,
                      h_from_words, initial_process, rotation_perm)
from .names import (crosscheck_tower, distinct_names, frame_labels,
                    name_stability, q_labels, simulate_tower_name,
                    spacer_columns, u_words)
from .factor import (BoundaryCrossing, SymbolicPoint, collapse_pi,
                     enumerate_coherent, rho_trace, shift_point)
from .smoothreal import (CellSwap, Composite, StandardSwap, map_distance,
                         perm_to_swaps, realize_perm, sample_jacobian,
                         stage_map)

__version__ = "0.1.0"
