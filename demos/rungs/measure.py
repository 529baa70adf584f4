"""Wall time and peak RSS of one `circlesys` command in a fresh process.

    python demos/rungs/measure.py MANIFEST [CHECK ...] [--src DIR]
    python demos/rungs/measure.py [--src DIR] --cli ARGS...
    python demos/rungs/measure.py --ab DIR N MANIFEST [CHECK ...]
    python demos/rungs/measure.py --ab DIR N --cli ARGS...

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

`--ab DIR N` compares two checkouts on the same command: it runs it N
times (N >= 2) on side A, DIR's `src`, and N times on side B, the
`--src` checkout (this one by default), in pairs, side A first in odd
pairs and side B first in even ones.  It prints each run's numbers,
then for each side and metric the median and quartiles and how many
pairs that side won (the lower value wins; ties count for neither),
then `same_output=yes` when every run printed the same report with
the same exit status, and exits 0 then, 1 otherwise.
"""

import argparse
import os
import statistics
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


def ab(argv, other, pairs, src):
    """Alternating pairs of `circlesys ARGV` runs on OTHER's `src` (side
    A) and on `src` (side B), summarised as the module docstring says."""
    sides = {"A": os.path.join(other, "src"), "B": src}
    runs = {"A": [], "B": []}
    for pair in range(pairs):
        for side in "AB" if pair % 2 == 0 else "BA":
            _, code, wall, rss = run = measure(argv, sides[side])
            runs[side].append(run)
            print("pair %d %s wall_s=%.4f peak_rss_mb=%.3f exit=%d"
                  % (pair + 1, side, wall, rss, code))
    for side in "AB":
        print("%s = %s" % (side, os.path.abspath(sides[side])))
    for field, metric in ((2, "wall_s"), (3, "peak_rss_mb")):
        for side, rival in ("AB", "BA"):
            values = [run[field] for run in runs[side]]
            q1, median, q3 = statistics.quantiles(values, n=4,
                                                  method="inclusive")
            won = sum(mine[field] < theirs[field]
                      for mine, theirs in zip(runs[side], runs[rival]))
            print("%s %s median=%.4f q1=%.4f q3=%.4f won=%d/%d"
                  % (side, metric, median, q1, q3, won, pairs))
    same = len({run[:2] for side in "AB" for run in runs[side]}) == 1
    print("same_output=%s" % ("yes" if same else "no"))
    return 0 if same else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("manifest", nargs="?")
    ap.add_argument("checks", nargs="*")
    ap.add_argument("--src", default=SRC)
    ap.add_argument("--ab", nargs=2, metavar=("DIR", "N"),
                    help="alternate N runs on DIR/src with N on --src")
    ap.add_argument("--cli", nargs=argparse.REMAINDER,
                    help="time `circlesys ARGS...` instead of a run")
    args = ap.parse_args(argv)
    if (args.cli is None) == (args.manifest is None):
        ap.error("give either a manifest or --cli ARGS...")
    if args.ab:
        other, pairs = args.ab
        if not os.path.isdir(os.path.join(other, "src")):
            ap.error("--ab: %s has no src directory" % other)
        if not pairs.isdigit() or int(pairs) < 2:
            ap.error("--ab: N must be an integer of at least 2, got %r"
                     % pairs)
    with tempfile.NamedTemporaryFile("w", suffix=".manifest") as fh:
        if args.cli is not None:
            argv = args.cli
        elif not args.checks:
            argv = ["run", args.manifest]
        else:
            fh.write(restricted_manifest(args.manifest, args.checks, args.src))
            fh.flush()
            argv = ["run", fh.name]
        if args.ab:
            return ab(argv, other, int(pairs), args.src)
        report, code, wall, rss = measure(argv, args.src)
    sys.stdout.write(report)
    print("wall_s=%.3f peak_rss_mb=%.1f exit=%d" % (wall, rss, code))
    return code


if __name__ == "__main__":
    sys.exit(main())
