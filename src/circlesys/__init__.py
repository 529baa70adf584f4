"""Circular symbolic systems: exact construction sequences, tower
simulation of the conjugacy method, the rotation factor, and smooth
realizations of grid permutations.

`import circlesys` registers every submodule but `cli` and `__main__`
in `sys.modules` and on the package as an `importlib.util.LazyLoader`
module and executes none of them: a submodule executes, with its own
imports, on the first read of one of its attributes, and each exported
name below is served from its submodule on first use (PEP 562).  That
first load is not thread-safe (Python 3.11 swaps the module's class
before it executes the module), so code that starts threads loads the
modules they read first, as `cli.run_checks` does.

Every process pays at start-up for what its modules import and
compile.  So the records are `typing.NamedTuple`s, or plain classes
where a record must stay mutable or keep a field out of ==, and never
classes whose methods a decorator generates and compiles at import
(the standard library's data-class module is not imported at all); and
only `cli.build_parser`, which parses a command line, imports
`argparse`.
"""

import importlib.util
import sys

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
    "smoothreal": ["CellSwap", "Composite", "StandardSwap", "perm_to_swaps",
                   "realize_perm"],
    "stagemap": ["map_distance", "sample_jacobian", "stage_map"],
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"

for _name in _EXPORTS:
    _spec = importlib.util.find_spec("." + _name, __name__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_HOME))
