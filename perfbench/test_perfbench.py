"""Tests of the benchmark itself: inputs, validation, tracer coverage
and the per-layer predictions of README.md, as exact counts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOOTHREAL = [m[0] for m in run.PER_LAYER if m[0].startswith("smoothreal.")]


@pytest.mark.parametrize("seed", range(40))
def test_generated_inputs_meet_requirements(seed):
    for name in ("grid3", "scan2"):
        wl = WORKLOADS[name]
        stage_words = wl.make_words(seed)
        workloads._grid_stage_checks(wl.params, stage_words)
        assert stage_words == wl.make_words(seed)
    perm = workloads.smooth_perm(seed)
    assert sorted(perm) == list(range(64))
    assert workloads.inversions(perm) == workloads.SMOOTH_INVERSIONS


def test_seeds_vary_inputs():
    for make in (workloads.grid3_words, workloads.scan2_words,
                 workloads.smooth_perm):
        assert len({repr(make(seed)) for seed in range(10)}) > 1


def test_stage_word_check_rejects_bad_tuples():
    bad = [
        [(0, 1), (0, 1)],             # duplicate
        [(0, 1, 1), (1, 0, 0)],       # wrong arity
        [(0, 0), (1, 1)],             # unbalanced
        [(0, 2), (2, 0)],             # symbol outside the level
    ]
    for tuples in bad:
        with pytest.raises(ValueError):
            workloads._check_stage_words(tuples, 2, 2, 1)


def test_run_validation():
    wl = WORKLOADS["scan2"]
    good = "".join(
        "CHECK %s PASS value=%s bound=x\n"
        % (c, "q=1,8,4096 " if c == "recursion" else "v") for c in wl.checks)
    assert wl.validate(0, good) is None
    assert wl.validate(1, good) == "exit 1"
    assert "not passed" in wl.validate(0, good.replace("PASS", "FAIL", 1))
    first, rest = good.split("\n", 1)
    assert "checks reported" in wl.validate(0, good + first + "\n")
    assert "checks reported" in wl.validate(0, rest)
    assert "checks reported" in wl.validate(0, good + "CHECK\n")
    assert "lacks" in wl.validate(0, good.replace("q=1,8,4096", "q=1,8,4095"))


def test_smooth_validation():
    wl = WORKLOADS["smooth8"]
    line = "PASS obedient 0.9991 (need 0.9000), %d swaps\n"
    assert wl.validate(0, "rect ...\n" + line % 1008) is None
    assert "swaps" in wl.validate(0, line % 1007)
    assert "no PASS" in wl.validate(0, (line % 1008).replace("PASS", "FAIL"))


def test_tracer_replaces_every_binding():
    from circlesys import cli, consys, factor, names, procsim, ratarith, words

    t = tracer.Tracer()
    t.install()
    for name, original in t.originals.items():
        assert tracer.bindings(original) == [], name
    for name, (modname, attr, _) in tracer.SPANS.items():
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[modname], cls_name)
            assert cls.__dict__[meth] is not t.originals[name], name
    # the `from .x import f` bindings all reach the same wrapper
    assert consys.parse is words.parse is not t.originals["words.parse"]
    assert consys.circ is names.circ is words.circ
    for mod in (names, consys, factor, cli):
        assert mod.dyn_order is ratarith.dyn_order
    assert names.rotation_perm is procsim.rotation_perm
    assert cli.CHECK_FUNCS["names"] is cli.check_names
    assert cli.check_names is not t.originals["cli.check.names"]


def traced_layers(name, tmp_path):
    """Per-layer metrics of one traced child on seed 3's inputs."""
    wl = WORKLOADS[name]
    argv = wl.generate(3, str(tmp_path))
    marks = str(tmp_path / "marks.json")
    proc = subprocess.run(
        [sys.executable, run.CHILD, marks, "1"] + argv,
        capture_output=True, text=True, env=run.child_env(SRC),
        cwd=str(tmp_path), timeout=170)
    assert wl.validate(proc.returncode, proc.stdout) is None, proc.stderr
    with open(marks) as fh:
        return run.layer_metrics(json.load(fh)["trace"])


# Layers each workload is predicted to use ("runs") or bypass ("zero").
# Metrics in neither list are not predicted for that workload.
PREDICTIONS = {
    "grid3": {
        "runs": ["ratarith.dyn_order.calls", "ratarith.dyn_order.s",
                 "ratarith.dyn_order.table_entries",
                 "words.circ.calls", "words.circ.s", "words.circ.letters",
                 "words.boundary_stats.s",
                 "procsim.lift.calls", "procsim.lift.s", "procsim.lift.atoms",
                 "procsim.compose.s", "procsim.inverse.s",
                 "procsim.compose_stage.s", "procsim.rotation_perm.s",
                 "procsim.tower.calls",
                 "names.q_labels.calls", "names.q_labels.s",
                 "names.q_labels.atoms", "names.simulate_tower_name.calls",
                 "names.crosscheck_tower.s", "names.name_stability.s",
                 "names.distinct_names.s",
                 "factor.rho_trace.calls", "factor.rho_trace.s",
                 "factor.coherent_points"],
        "zero": ["words.parse.calls", "consys.check_unique_readability.s",
                 "names.oracle_mismatches"] + SMOOTHREAL,
    },
    "scan2": {
        "runs": ["words.parse.calls", "words.parse.s", "words.parse.offsets",
                 "words.parse.hits", "words.circ.calls", "words.circ.s",
                 "words.circ.letters", "words.boundary_stats.s",
                 "consys.build_sequence.s",
                 "consys.check_unique_readability.s",
                 "consys.check_unique_readability.pairs",
                 "consys.verify_uniformity.s", "consys.estimate_cylinder.s"],
        "zero": ["procsim.lift.calls", "procsim.tower.calls",
                 "names.q_labels.calls", "factor.rho_trace.calls"]
                + SMOOTHREAL,
    },
    "smooth8": {
        "runs": SMOOTHREAL + ["cli.obedience_table.s",
                              "cli.obedience_table.total_s"],
        "zero": ["words.parse.calls", "words.circ.calls",
                 "ratarith.dyn_order.calls", "procsim.lift.calls",
                 "names.q_labels.calls", "factor.rho_trace.calls"],
    },
}


@pytest.mark.parametrize("name", sorted(PREDICTIONS))
def test_layer_predictions(name, tmp_path):
    layers = traced_layers(name, tmp_path)
    assert set(layers) == {m[0] for m in run.PER_LAYER} - {"trace.overhead_s"}
    for metric in PREDICTIONS[name]["runs"]:
        assert layers[metric]["value"] > 0, metric
    for metric in PREDICTIONS[name]["zero"]:
        assert layers[metric]["value"] == 0, metric
    checks = getattr(WORKLOADS[name], "checks", [])
    for check in tracer.CHECK_NAMES:
        for key in ("s", "total_s"):
            value = layers["cli.check.%s.%s" % (check, key)]["value"]
            assert (value > 0) == (check in checks), (check, key)


def test_over_cap_probe_exits_3(tmp_path):
    wl = WORKLOADS["grid3"]
    argv = wl.generate(3, str(tmp_path), cap=workloads.CAP_PROBE_ATOMS)
    proc = subprocess.run(
        [sys.executable, run.CHILD, str(tmp_path / "m.json"), "0", "cli",
         "run", argv[1]], capture_output=True, text=True,
        env=run.child_env(SRC), cwd=str(tmp_path), timeout=170)
    assert proc.returncode == 3
    assert workloads.CAP_MESSAGE.search(proc.stderr), proc.stderr


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(name, wl.why) for name, wl in WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [m[:3] for m in run.PER_LAYER]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan2", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
