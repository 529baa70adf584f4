"""Spans around the circlesys entry points, installed from outside.

The package imports with `from .x import f`, so one function is bound
under several names (`consys.parse`, `words.parse`, `circlesys.parse`,
...).  `Tracer.install` wraps each traced function once and replaces
every binding of it in every loaded circlesys module, including the
values of module-level dicts such as `cli.CHECK_FUNCS`; methods are
replaced on their class.  Spans (name, start, end, parent, counters)
stay in memory; `summary` turns them into per-layer self times and
counts when the run ends.
"""

import functools
import sys
import time
from collections import defaultdict


def _lift_atoms(args, kwargs, result):
    return {"atoms": args[1] * args[2]}


def _q_labels_atoms(args, kwargs, result):
    return {"atoms": args[3] * args[4]}


def _table_entries(args, kwargs, result):
    return {"table_entries": 0 if result.table is None else len(result.table)}


def _parse_counts(args, kwargs, result):
    x, words = args[0], args[1]
    return {"offsets": max(0, len(x) - len(words[0]) + 1), "hits": len(result)}


def _letters(args, kwargs, result):
    return {"letters": len(result)}


def _pairs(args, kwargs, result):
    cs, n = args[0], args[1]
    return {"pairs": len(cs.levels[n]) ** 2}


def _swaps(args, kwargs, result):
    return {"swaps": len(result)}


def _points(args, kwargs, result):
    return {"points": len(args[1])}


# span name -> (module, attribute, counters from (args, kwargs, result)).
# An attribute "Class.method" is patched on the class.
SPANS = {
    "ratarith.dyn_order": ("circlesys.ratarith", "dyn_order", _table_entries),
    "words.parse": ("circlesys.words", "parse", _parse_counts),
    "words.circ": ("circlesys.words", "circ", _letters),
    "words.boundary_stats": ("circlesys.words", "boundary_stats", None),
    "consys.build_sequence": ("circlesys.consys", "build_sequence", None),
    "consys.check_unique_readability": (
        "circlesys.consys", "check_unique_readability", _pairs),
    "consys.verify_uniformity": (
        "circlesys.consys", "verify_uniformity", None),
    "consys.estimate_cylinder": (
        "circlesys.consys", "estimate_cylinder", None),
    "procsim.lift": ("circlesys.procsim", "GridPermutation.lift", _lift_atoms),
    "procsim.compose": ("circlesys.procsim", "GridPermutation.compose", None),
    "procsim.inverse": ("circlesys.procsim", "GridPermutation.inverse", None),
    "procsim.compose_stage": ("circlesys.procsim", "compose_stage", None),
    "procsim.rotation_perm": ("circlesys.procsim", "rotation_perm", None),
    "procsim.tower": ("circlesys.procsim", "GridProcess.tower", None),
    "names.q_labels": ("circlesys.names", "q_labels", _q_labels_atoms),
    "names.simulate_tower_name": (
        "circlesys.names", "simulate_tower_name", None),
    "names.crosscheck_tower": ("circlesys.names", "crosscheck_tower", None),
    "names.name_stability": ("circlesys.names", "name_stability", None),
    "names.distinct_names": ("circlesys.names", "distinct_names", None),
    "factor.rho_trace": ("circlesys.factor", "rho_trace", None),
    "smoothreal.realize_perm": ("circlesys.smoothreal", "realize_perm", None),
    "smoothreal.perm_to_swaps": (
        "circlesys.smoothreal", "perm_to_swaps", _swaps),
    "smoothreal.Composite.forward": (
        "circlesys.smoothreal", "Composite.forward", None),
    "smoothreal.CellSwap.forward": (
        "circlesys.smoothreal", "CellSwap.forward", _points),
    "smoothreal.StandardSwap.forward": (
        "circlesys.smoothreal", "StandardSwap.forward", _points),
    "cli.obedience_table": ("circlesys.cli", "_obedience_table", None),
}
CHECK_NAMES = ["boundary", "cylinder", "distinct", "factor", "names",
               "numerology", "process", "readability", "recursion",
               "requirements", "stability", "uniformity"]
for _check in CHECK_NAMES:
    SPANS["cli.check." + _check] = ("circlesys.cli", "check_" + _check, None)

# generators are counted per item yielded, without a span
COUNTED = {
    "factor.coherent_points": ("circlesys.factor", "enumerate_coherent"),
}


def _circlesys_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "circlesys"
                                  or name.startswith("circlesys."))]


def bindings(original):
    """(namespace, key) of every binding of `original` in the loaded
    circlesys modules and in their module-level dicts."""
    out = []
    for mod in _circlesys_modules():
        namespace = vars(mod)
        for attr, val in namespace.items():
            if val is original:
                out.append((namespace, attr))
            elif isinstance(val, dict):
                out += [(val, key) for key, item in val.items()
                        if item is original]
    return out


def rebind(original, replacement):
    for namespace, key in bindings(original):
        namespace[key] = replacement


class Tracer:
    def __init__(self):
        # one span: [name, start_ns, end_ns, parent index, counters, error]
        self.spans = []
        self.counts = defaultdict(int)
        self.originals = {}       # span or count name -> unwrapped callable
        self._stack = []

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, kwargs, result)
            return result
        return wrapper

    def _count_items(self, name, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    def install(self):
        """Wrap every entry of SPANS and COUNTED in the loaded package."""
        import circlesys.cli  # noqa: F401  (loads every module)

        for name, (modname, attr, measure) in SPANS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, fn, measure))
            else:
                fn = getattr(owner, attr)
                rebind(fn, self._wrap(name, fn, measure))
            self.originals[name] = fn
        for name, (modname, attr) in COUNTED.items():
            fn = getattr(sys.modules[modname], attr)
            rebind(fn, self._count_items(name, fn))
            self.originals[name] = fn

    def summary(self):
        """Per span name: calls, self seconds, summed counters, errors.

        Self time (`s`) is a span's duration minus that of its direct
        child spans; `total_s` is the whole duration.  Two derived
        figures need the parent's name:
        `smoothreal.realize_perm.attempts` counts the composite maps
        that realize_perm itself evaluates, and `smoothreal.swap.inside`
        sums the points a CellSwap hands on to its StandardSwap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(int))
        for i, span in enumerate(self.spans):
            name, start, end, parent, counters, error = span
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += (end - start - child_ns[i]) * 1e-9
            agg["total_s"] += (end - start) * 1e-9
            for key, val in (counters or {}).items():
                agg[key] += val
            if error is not None:
                agg["error." + error] += 1
            pname = self.spans[parent][0] if parent >= 0 else None
            if name == "smoothreal.Composite.forward" \
                    and pname == "smoothreal.realize_perm":
                out[pname]["attempts"] += 1
            if name == "smoothreal.StandardSwap.forward" \
                    and pname == "smoothreal.CellSwap.forward":
                out["smoothreal.swap"]["inside"] += counters["points"]
        result = {name: dict(agg) for name, agg in out.items()}
        for name, count in self.counts.items():
            result[name] = {"count": count}
        return result
