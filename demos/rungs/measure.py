"""Wall time and peak RSS of one `circlesys` command in a fresh process.

    python demos/rungs/measure.py MANIFEST [CHECK ...] [--src DIR]
    python demos/rungs/measure.py [--src DIR] --cli ARGS...

Runs `circlesys run MANIFEST` in a child Python process and prints the
child's report, then one line `wall_s=... peak_rss_mb=... exit=...`.
Wall time spans the child from start to exit; peak RSS is the child's
maximum resident set, read from `os.wait4`.  Named checks run alone: the
script writes a temporary manifest with the same inputs, absolute paths
and only those checks (and no `out`).  `--cli` runs `circlesys ARGS...`
instead, any command, e.g. `--cli smooth realize --grid 8x8 --samples
2000000`; it takes every argument after it.  `--src` points the child
at another checkout's `src` directory, for before/after numbers; the
default is the `src` of this checkout.  The exit status is the child's.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")


def restricted_manifest(path, checks, src):
    """Text of a manifest running only `checks` on the inputs of `path`."""
    sys.path.insert(0, os.path.abspath(src))
    from circlesys.cli import RunManifest
    m = RunManifest(path)
    lines = ["params = " + m.params_path,
             "cap_atoms = %d" % m.cap_atoms,
             "jobs = %d" % m.jobs,
             "checks = " + " ".join(checks)]
    if m.preword_paths:
        lines.append("prewords = " + " ".join(m.preword_paths))
    if m.hword_paths:
        lines.append("hwords = " + " ".join(m.hword_paths))
    if m.sigma is not None:
        lines.append("sigma = %d" % m.sigma)
    return "\n".join(lines) + "\n"


def measure(argv, src):
    """(stdout, exit status, wall seconds, peak RSS in MB) of one
    `circlesys ARGV`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "circlesys"] + argv,
                                 stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        report = out.read().decode()
    return report, child.returncode, wall, usage.ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("manifest", nargs="?")
    ap.add_argument("checks", nargs="*")
    ap.add_argument("--src", default=SRC)
    ap.add_argument("--cli", nargs=argparse.REMAINDER,
                    help="time `circlesys ARGS...` instead of a run")
    args = ap.parse_args(argv)
    if (args.cli is None) == (args.manifest is None):
        ap.error("give either a manifest or --cli ARGS...")
    if args.cli is not None:
        report, code, wall, rss = measure(args.cli, args.src)
    elif not args.checks:
        report, code, wall, rss = measure(["run", args.manifest], args.src)
    else:
        with tempfile.NamedTemporaryFile("w", suffix=".manifest") as fh:
            fh.write(restricted_manifest(args.manifest, args.checks, args.src))
            fh.flush()
            report, code, wall, rss = measure(["run", fh.name], args.src)
    sys.stdout.write(report)
    print("wall_s=%.3f peak_rss_mb=%.1f exit=%d" % (wall, rss, code))
    return code


if __name__ == "__main__":
    sys.exit(main())
