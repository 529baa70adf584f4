"""Modules load on demand: what a bare import registers, what each
command executes, the package's exports, and threaded checks in a
process that has loaded nothing yet.

A module registered by `importlib.util.LazyLoader` and not yet executed
has a type other than `types.ModuleType`; reading any of its attributes
would execute it, so the checks below only look at `type()`.  Each
check runs in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circlesys
from circlesys.cli import RunManifest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

LAZY = ["consys", "factor", "names", "procsim", "smoothreal", "stagemap",
        "words"]
# every submodule the package registers lazily: all but cli and __main__
REGISTERED = sorted(path.stem for path in (ROOT / "src" / "circlesys")
                    .glob("*.py")
                    if path.stem not in ("cli", "__main__", "__init__"))

# the names `circlesys` has always exported, by defining submodule
EXPORTS = {
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

# prints the circlesys modules in sys.modules, each with whether it has
# executed, after `circlesys ARGV` (none: after importing the cli)
AFTER_MAIN = """
import io, json, sys, types
import circlesys.cli
if sys.argv[1:]:
    circlesys.cli.main(sys.argv[1:], out=io.StringIO())
print(json.dumps({name: type(mod) is types.ModuleType
                  for name, mod in sys.modules.items()
                  if name.startswith("circlesys.")}))
"""

# the same after a bare `import circlesys`, with whether each module is
# also the package's attribute of that name
AFTER_PACKAGE = """
import json, sys, types
import circlesys
print(json.dumps({name: [type(mod) is types.ModuleType,
                         vars(circlesys).get(name[10:]) is mod]
                  for name, mod in sys.modules.items()
                  if name.startswith("circlesys.")}))
"""

# walks the package's names as perfbench's tracer `bindings` does, and
# prints whether its keys stayed the same and which modules executed
WALK_PACKAGE = """
import json, sys, types
import circlesys
keys = list(vars(circlesys))
for attr, val in vars(circlesys).items():
    isinstance(val, dict)
print(json.dumps([list(vars(circlesys)) == keys,
                  sorted(name for name, mod in sys.modules.items()
                         if name.startswith("circlesys.")
                         and type(mod) is types.ModuleType)]))
"""

# runs a manifest's checks with the given jobs and prints the report;
# exits 4 if a check module had executed before the threads could start
THREADED_RUN = """
import sys, types
from circlesys import cli
path, checks, jobs = sys.argv[1], sys.argv[2].split(), int(sys.argv[3])
manifest = cli.RunManifest(path)
ctx = manifest.context()
if any(type(sys.modules["circlesys." + name]) is types.ModuleType
       for name in ("consys", "factor", "names", "procsim")):
    sys.exit(4)
sys.setswitchinterval(1e-6)
lines, ok = cli.run_checks(ctx, checks, jobs=jobs)
print("\\n".join(lines))
print(ok)
"""


# runs a manifest through `cli.main` or, as perfbench's child does,
# through RunManifest and run_checks, and prints whether it passed and
# which of argparse and dataclasses it loaded
LOADED_BY_RUN = """
import io, json, sys
from circlesys import cli
route, path = sys.argv[1:]
if route == "main":
    ok = cli.main(["run", path], out=io.StringIO()) == 0
else:
    manifest = cli.RunManifest(path)
    checks = manifest.checks or manifest.default_checks()
    _, ok = cli.run_checks(manifest.context(), checks, jobs=manifest.jobs)
print(json.dumps([ok, [name for name in ("argparse", "dataclasses")
                       if name in sys.modules]]))
"""


def child(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code] + [str(a) for a in argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def executed_after(*argv):
    return json.loads(child(AFTER_MAIN, *argv))


def write_manifest(tmp_path, text):
    path = tmp_path / "m.manifest"
    path.write_text(text)
    return path


def test_bare_import_executes_only_the_core():
    executed = executed_after()
    assert {name for name, done in executed.items() if not done} == \
        {"circlesys." + name for name in LAZY}
    assert {name for name, done in executed.items() if done} == \
        {"circlesys.cli", "circlesys.errors", "circlesys.ratarith"}


def test_package_import_registers_every_module_and_executes_none():
    state = json.loads(child(AFTER_PACKAGE))
    assert state == {"circlesys." + name: [False, True] for name in REGISTERED}


def test_walking_the_package_executes_every_module_and_adds_no_name():
    same_keys, executed = json.loads(child(WALK_PACKAGE))
    assert same_keys
    assert executed == sorted("circlesys." + name for name in REGISTERED)


def test_bare_import_registers_every_traced_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {modname for modname, _, _ in tracer.SPANS.values()}
    traced |= {modname for modname, _ in tracer.COUNTED.values()}
    assert traced <= set(executed_after()) | {"circlesys"}


def test_smooth_realize_leaves_the_exact_layers_unexecuted():
    executed = executed_after("smooth", "realize", "--grid", "2x2")
    assert executed["circlesys.smoothreal"]
    for name in ("consys", "procsim", "names", "factor", "words", "stagemap"):
        assert not executed["circlesys." + name], name


def test_preword_run_leaves_the_grid_layers_unexecuted(tmp_path):
    path = write_manifest(tmp_path, "params = %s\nprewords = %s %s\n" % (
        DATA / "variant.params", DATA / "words1.txt",
        DATA / "words2_variant.txt"))
    executed = executed_after("run", path)
    assert executed["circlesys.consys"]
    for name in ("procsim", "names", "factor", "smoothreal", "stagemap"):
        assert not executed["circlesys." + name], name


# the stage-3 words of the 524,288-atom grid3 rung
GRID3_W3 = "0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
# every default check but readability
GRID3_CHECKS = ("boundary cylinder distinct factor names numerology process "
                "recursion requirements stability uniformity")


def grid3_manifest(tmp_path, tail=""):
    (tmp_path / "grid3.params").write_text(
        "k = 2 4 4\nl = 2 2 2\ns = 2 2 4 4\n")
    (tmp_path / "w3.txt").write_text(GRID3_W3)
    words = "%s %s w3.txt" % (DATA / "words1.txt", DATA / "words2_variant.txt")
    return write_manifest(tmp_path, "params = grid3.params\nprewords = %s\n"
                          "hwords = %s\n%s" % (words, words, tail))


@pytest.mark.parametrize("shape", ["demo", "grid3"])
def test_threaded_checks_on_first_load_match_serial(shape, tmp_path):
    if shape == "demo":
        path = DATA / "manifest.txt"
        checks = " ".join(RunManifest(path).default_checks())
    else:
        path = grid3_manifest(tmp_path)
        checks = GRID3_CHECKS
    serial = child(THREADED_RUN, path, checks, 1)
    assert serial.endswith("\nTrue\n")
    for _ in range(5):
        assert child(THREADED_RUN, path, checks, 2) == serial


def test_grid_run_loads_argparse_only_to_parse_argv(tmp_path):
    path = grid3_manifest(tmp_path, "checks = %s\n" % GRID3_CHECKS)
    assert json.loads(child(LOADED_BY_RUN, "library", path)) == [True, []]
    assert json.loads(child(LOADED_BY_RUN, "main", path)) == \
        [True, ["argparse"]]


def test_every_export_is_the_submodule_object():
    for module, names in EXPORTS.items():
        sub = importlib.import_module("circlesys." + module)
        for name in names:
            assert getattr(circlesys, name) is getattr(sub, name), name
            assert name in dir(circlesys)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from circlesys import *", namespace)
    for module, names in EXPORTS.items():
        sub = importlib.import_module("circlesys." + module)
        for name in names:
            assert namespace[name] is getattr(sub, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        circlesys.no_such_name
    assert not hasattr(circlesys, "Letters")
