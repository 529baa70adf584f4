"""Replay a recorded command-line transcript byte for byte.

`data/cli_transcript.json` holds the argv, exit code, stdout and stderr
of every subcommand action on `demos/data` and of `run
demos/data/manifest.txt`, of `seq measure` on an alphabet with unused
letters and on the skewed stage-1 prewords `data/words1_skew.txt`, of
`smooth realize` on perfbench's seed-1 smooth8 permutation and on a
32x32 grid at the cell cap, of
each `smooth` action refusing a sample count past its cap, and of the
refusals of a stage out of range and of integer flags below their least
values, with paths relative to the repository root.  An entry is named by its
first two arguments unless it carries an "id".  A report that changes on
purpose is re-recorded with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import os
import warnings

import pytest

from circlesys.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TRANSCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "cli_transcript.json")

with open(TRANSCRIPT) as fh:
    ENTRIES = json.load(fh)


def replay(argv):
    """(exit code, stdout, stderr) of `circlesys argv` run from the
    repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main(argv, out=out)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=lambda e: e.get("id", " ".join(e["argv"][:2])))
def test_transcript(entry):
    assert replay(entry["argv"]) == (entry["exit"], entry["stdout"],
                                     entry["stderr"])


if __name__ == "__main__":
    for entry in ENTRIES:
        entry["exit"], entry["stdout"], entry["stderr"] = replay(entry["argv"])
    with open(TRANSCRIPT, "w") as fh:
        json.dump(ENTRIES, fh, indent=1)
        fh.write("\n")
