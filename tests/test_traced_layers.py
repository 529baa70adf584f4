"""The benchmark's per-layer predictions, asserted in the tier-1 suite.

`perfbench/test_perfbench.py` predicts which traced layers each
benchmark workload runs and which it bypasses, but the suite does not
collect `perfbench/`, so a refactor that stops calling a traced function
would show only in a benchmark run.  Here its `PREDICTIONS`, `run.py`
and `workloads.py` are loaded by path, one traced child per workload
runs on seed 3's inputs (about 2 s in all), and every prediction is
asserted.  The exceptions are the three grid3 metrics that no program
path reaches any more (ROADMAP, "The failing test"); they are asserted
to read 0, so that the list of exceptions stays exact.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# predicted to run, but read 0: only tests call GridPermutation.inverse
# and GridProcess.tower, and grid3's l = 2 skips the stability count
UNREACHED = {"grid3": ["procsim.inverse.s", "procsim.tower.calls",
                       "names.name_stability.s"]}


def load_perfbench_tests():
    """`perfbench/test_perfbench.py` as a module, with the `run`,
    `tracer` and `workloads` it imports from its own directory, leaving
    sys.path and those three names in sys.modules as they were."""
    path = list(sys.path)
    saved = {name: sys.modules.get(name)
             for name in ("run", "tracer", "workloads")}
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_perfbench", PERFBENCH / "test_perfbench.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name, old in saved.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old
    return module


perf = load_perfbench_tests()


@pytest.mark.parametrize("name", sorted(perf.PREDICTIONS))
def test_traced_child_meets_the_predictions(name, tmp_path):
    layers = perf.traced_layers(name, tmp_path)
    assert set(layers) == ({m[0] for m in perf.run.PER_LAYER}
                           - {"trace.overhead_s"})
    runs, unreached = perf.PREDICTIONS[name]["runs"], UNREACHED.get(name, [])
    assert set(unreached) <= set(runs)
    for metric in runs:
        value = layers[metric]["value"]
        assert value == 0 if metric in unreached else value > 0, metric
    for metric in perf.PREDICTIONS[name]["zero"]:
        assert layers[metric]["value"] == 0, metric
    checks = getattr(perf.WORKLOADS[name], "checks", [])
    for check in perf.tracer.CHECK_NAMES:
        for key in ("s", "total_s"):
            value = layers["cli.check.%s.%s" % (check, key)]["value"]
            assert (value > 0) == (check in checks), (check, key)
