"""Circular symbolic systems: exact construction sequences, tower
simulation of the conjugacy method, the rotation factor, and smooth
realizations of grid permutations.

The names below are served on first use (PEP 562): `import circlesys`
executes no submodule, and reading a name executes the submodule it is
exported from, with that submodule's own imports.
"""

import importlib

_EXPORTS = {
    "errors": ["CoherenceError", "ConstraintError", "InputError",
               "OracleMismatch", "ResourceError", "ToleranceError"],
    "ratarith": ["Params", "derive_params", "dyn_order", "d_index",
                 "load_params"],
    "words": ["Boundary", "Interior", "LazyCircularWord", "boundary_stats",
              "circ", "decode_position", "parse", "text_to_word",
              "word_to_text"],
    "consys": ["ConstructionSequence", "build_sequence",
               "check_unique_readability", "estimate_cylinder", "in_S_window",
               "verify_uniformity"],
    "procsim": ["GridPermutation", "GridProcess", "build_process",
                "check_requirements", "compose_stage", "eps_approx",
                "h_from_words", "initial_process", "rotation_perm"],
    "names": ["crosscheck_tower", "distinct_names", "frame_labels",
              "name_stability", "q_labels", "simulate_tower_name",
              "spacer_columns", "u_words"],
    "factor": ["BoundaryCrossing", "SymbolicPoint", "collapse_pi",
               "enumerate_coherent", "rho_trace", "shift_point"],
    "smoothreal": ["CellSwap", "Composite", "StandardSwap", "map_distance",
                   "perm_to_swaps", "realize_perm", "sample_jacobian",
                   "stage_map"],
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        module = importlib.import_module("." + _HOME[name], __name__)
        return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
