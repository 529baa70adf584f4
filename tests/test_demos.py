"""Every demo script runs to completion against the package in `src/`."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rung_measure_script(tmp_path):
    # the deep-rung timer on the demo manifest: its report, then the
    # child's wall time and peak RSS; named checks run alone
    script = os.path.join(ROOT, "demos", "rungs", "measure.py")
    manifest = os.path.join(ROOT, "demos", "data", "manifest.txt")
    for checks, count in (([], 12), (["process", "distinct"], 2)):
        proc = subprocess.run([sys.executable, script, manifest] + checks,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        *report, last = proc.stdout.splitlines()
        assert len(report) == count
        assert all(" PASS " in line for line in report)
        assert re.fullmatch(r"wall_s=\d+\.\d{3} peak_rss_mb=\d+\.\d exit=0",
                            last)


def test_rung_measure_script_times_any_command(tmp_path):
    # --cli runs `circlesys ARGS...` in the timed child, and takes every
    # argument after it, flags of circlesys included
    script = os.path.join(ROOT, "demos", "rungs", "measure.py")
    proc = subprocess.run([sys.executable, script, "--cli", "smooth", "swap",
                           "--grid", "2x1", "--k", "0", "--samples", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    assert report == ["rect  0 ->  1 obedient n/a (0 samples)",
                      "rect  1 ->  0 obedient 1.0000",
                      "PASS obedient 1.0000 (need 0.9500)"]
    assert re.fullmatch(r"wall_s=\d+\.\d{3} peak_rss_mb=\d+\.\d exit=0", last)


def test_deep3_rung_report_is_recorded():
    # every default check on 33,554,432 stage-3 atoms, byte for byte
    rungs = os.path.join(ROOT, "demos", "rungs")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "circlesys", "run",
                           os.path.join(rungs, "deep3.manifest")],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(rungs, "deep3.report")) as fh:
        assert proc.stdout == fh.read()
