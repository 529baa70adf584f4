"""The benchmark workloads pass their own output checks, in-process.

`perfbench/workloads.py` writes each workload's seeded inputs and
judges a child's exit code and report.  Here the seed-1 inputs run
through `main` the way `perfbench/child.py` runs them, so a change that
would make a benchmark child fail or print a wrong report fails here
first.  The module is loaded from its file, as the tracer is in
`test_tracer_bindings.py`.
"""

import importlib.util
import io
from pathlib import Path

import pytest

from circlesys.cli import main

WORKLOADS_PATH = (Path(__file__).resolve().parents[1] / "perfbench"
                  / "workloads.py")

spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                              WORKLOADS_PATH)
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)

SEED = 1


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", ["grid3", "scan2"])
def test_run_workload_validates(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    _mode, manifest = workload.generate(SEED, str(tmp_path))
    assert workload.validate(*run(["run", manifest])) is None


def test_smooth_workload_validates(tmp_path):
    # child.py: smooth PERMFILE ARGS -> smooth realize ARGS --perm PERM
    workload = workloads.WORKLOADS["smooth8"]
    _mode, perm_file, *args = workload.generate(SEED, str(tmp_path))
    perm = Path(perm_file).read_text().strip()
    code, text = run(["smooth", "realize"] + args + ["--perm", perm])
    assert workload.validate(code, text) is None


def test_cap_probe_exits_3(tmp_path, capsys):
    workload = workloads.WORKLOADS[workloads.CAP_PROBE_WORKLOAD]
    _mode, manifest = workload.generate(SEED, str(tmp_path),
                                        cap=workloads.CAP_PROBE_ATOMS)
    assert run(["run", manifest])[0] == 3
    assert workloads.CAP_MESSAGE.search(capsys.readouterr().err)
