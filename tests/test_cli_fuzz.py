"""Hypothesis fuzz of the command line: any argv or manifest ends in an
exit code of 0, 1, 2 or 3, and nothing but argparse's SystemExit(2)
leaves `main`."""

import contextlib
import io
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from circlesys.cli import main

FILES = {
    "desk.params": "k = 2 2\nl = 4 4\ns = 2 2 4\n",
    "var.params": "k = 2 4\nl = 4 4\ns = 2 2 4\n",
    "bad.params": "k = 2 2\nl = 4 4\ns = 3 2 4\n",   # s[0] must divide k[0]
    "junk.params": "k = 2 x\nl = 4\n",
    "w1.txt": "0 1\n1 0\n",
    "w2.txt": "0 1\n1 0\n0 1\n1 0\n",
    "w2var.txt": "0 0 1 1\n0 1 0 1\n1 0 1 0\n1 1 0 0\n",
    "wbad.txt": "0 7\n7 0\n",
    "wtext.txt": "a b\n",
    "empty.txt": "# nothing\n",
}
BINARY = b"\x00\xff\xfe k = 2\n"
# paths a file flag may get besides FILES: non-UTF-8, a directory, absent
ODD_PATHS = ["binary.dat", "subdir", "missing.txt"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    (root / "binary.dat").write_bytes(BINARY)
    (root / "subdir").mkdir()
    return root


BAD_INTS = ["-3", "-1", "x", "1.5", "", "99999"]
# the word files that fit each params file
WORD_FILES = {"desk.params": [["w1.txt"], ["w1.txt", "w2.txt"]],
              "var.params": [["w1.txt"], ["w1.txt", "w2var.txt"]]}
BAD_FILES = [["wbad.txt"], ["wtext.txt"], ["empty.txt"], ["binary.dat"],
             ["subdir"], ["missing.txt"], ["w1.txt", "w2var.txt", "w2.txt"]]
PARAMS = (["desk.params", "var.params"],
          ["bad.params", "junk.params", "binary.dat", "subdir",
           "missing.txt", "w1.txt"])
WINDOWS = ["b 0 0 0 b 1 1 1", "b 1 1 1 b 0 0 0 b 1 1 1", "1 1 b 0"]
# flag -> (good values, bad values).  A list value repeats the flag.
FLAGS = {
    "--params": PARAMS,
    "--prewords": (sum(WORD_FILES.values(), []), BAD_FILES),
    "--hwords": (sum(WORD_FILES.values(), []), BAD_FILES),
    "--sigma": (["2", "3"], BAD_INTS + ["0", "1"]),
    "--cap-atoms": (["100", "4096", "100000"], BAD_INTS + ["0"]),
    "--stage": (["0", "1", "2"], BAD_INTS + ["3"]),
    "--pos": (["0", "5", "100"], BAD_INTS + ["512"]),
    "--index": (["0", "1", "3"], BAD_INTS + ["4"]),
    "--range": (["0:8", "5:5", "2:6"], ["3", "a:b", "-1:2", "0:1000", "2:1"]),
    "--text": (WINDOWS, ["", "x", "0 1 b e", "-1", "9" * 30]),
    "--window": (WINDOWS, ["", "x", "-1", "b b b b"]),
    "--origin": (["0", "3", "9"], BAD_INTS),
    "--point": (["0,1,9", "0,0", "0,1", "0,7,500"],
                ["a", "", "0", "0,9,9", "0,-1", "0,1,600", "1,1"]),
    "--width": (["0", "4", "8"], BAD_INTS),
    "--grid": (["2x2", "3x2", "1x2", "2x3"], ["0x3", "x", "3", "-2x2", "1x1"]),
    "--k": (["0", "1", "2"], BAD_INTS + ["5"]),
    "--eps": (["0.05", "0.2"], ["-1", "0", "0.5", "1", "2", "nan", "inf",
                                "x"]),
    "--seed": (["0", "1", "5"], BAD_INTS),
    "--samples": (["1", "50", "200"], ["-1", "0", "x", "100000000000"]),
    "--perm": (["0,1,2,3", "3,2,1,0", "1,0,3,2", "5,4,3,2,1,0"],
               ["0,1", "a,b", "0,0,1,1", "", "0,1,2,9"]),
}
# the integer flags refused below their least value before any file is
# read, as the PARSED manifest keys are, with their bad values below it
BELOW = {flag: [v for v in FLAGS[flag][1]
                if v.lstrip("-").isdigit() and int(v) < least]
         for flag, least in [("--cap-atoms", 1), ("--sigma", 1),
                             ("--samples", 1), ("--seed", 0), ("--width", 0)]}
# subcommand -> (required flags, flags every action reads,
#                {action: the flags only some actions read})
SUBCOMMANDS = {
    "words": (["--params", "--prewords", "--stage"], ["--sigma"],
              {"build": ["--range"], "decode": ["--pos", "--index"],
               "parse": ["--text"], "stats": ["--index"]}),
    "seq": (["--params", "--prewords"], ["--sigma"],
            {"build": [], "verify": [], "measure": [],
             "s-window": ["--window", "--origin"]}),
    "proc": (["--params", "--hwords"], ["--cap-atoms"],
             {"build": [], "towers": [], "eps": [], "reqs": []}),
    "names": (["--params", "--hwords"], ["--cap-atoms"],
              {"tower": ["--index"], "crosscheck": [], "stability": [],
               "distinct": []}),
    "factor": (["--params", "--point"], [],
               {"rho": [], "shift": [], "pi": ["--width"]}),
    "smooth": ([], ["--eps", "--seed", "--samples"],
               {"swap": ["--grid", "--k"], "realize": ["--grid", "--perm"],
                "stage": ["--params", "--hwords"]}),
}


def value(draw, flag, clean, params=None):
    good, bad = FLAGS[flag]
    if clean and params in WORD_FILES and flag in ("--prewords", "--hwords"):
        good = WORD_FILES[params]
    return draw(st.sampled_from(good if clean else good + bad))


def subset(draw, flags, **kwargs):
    return draw(st.lists(st.sampled_from(flags), unique=True,
                         **kwargs)) if flags else []


def flag_args(flag, val):
    return [tok for v in (val if isinstance(val, list) else [val])
            for tok in (flag, v)]


@st.composite
def subcommand_argv(draw):
    """(argv, exit code it must give or None) for one subcommand.  A
    clean argv has the required flags and good values, and may carry
    flags that only sibling actions read and one integer flag below its
    least value, each of which must be refused with exit 2.  Otherwise
    values may be bad, required flags may be missing and flags of other
    subcommands may appear; a BELOW value that stands (the last one of
    its flag) must still exit 2."""
    clean = draw(st.booleans())
    command = draw(st.sampled_from(sorted(SUBCOMMANDS) + ["params"]))
    if command == "params":
        return ["params", value(draw, "--params", clean)], None
    required, common, actions = SUBCOMMANDS[command]
    action = draw(st.sampled_from(sorted(actions) + ([] if clean
                                                     else ["bogus"])))
    own = actions.get(action, [])
    siblings = sorted({f for flags in actions.values() for f in flags}
                      - set(own) - set(required))
    if clean:
        unread = subset(draw, siblings, max_size=2)
        flags = required + subset(draw, common + own) + unread
        low = subset(draw, [f for f in flags if f in BELOW], max_size=1)
    else:
        unread, low = None, []
        flags = draw(st.lists(st.sampled_from(
            required + common + siblings + own + sorted(FLAGS)), max_size=7))
    params = value(draw, "--params", clean)
    argv, last = [command, action], {}
    for flag in draw(st.permutations(flags)):
        if flag in low:
            val = draw(st.sampled_from(BELOW[flag]))
        else:
            val = params if flag == "--params" else value(draw, flag, clean,
                                                           params)
        last[flag] = val
        argv += flag_args(flag, val)
    below = any(last.get(flag) in vals for flag, vals in BELOW.items())
    return argv, 2 if unread or below else None


CHECKS = ["boundary", "cylinder", "distinct", "factor", "names",
          "numerology", "process", "readability", "recursion",
          "requirements", "stability", "uniformity"]
# manifest key -> (good values, bad values)
MANIFEST = {
    "params": PARAMS,
    "prewords": ([" ".join(f) for f in sum(WORD_FILES.values(), [])],
                 ["wbad.txt", "binary.dat", "subdir", "missing.txt", "",
                  "w1.txt w2var.txt w2.txt"]),
    "checks": ([" ".join(CHECKS[i:i + 3]) for i in range(0, 12, 3)],
               ["bogus", "names names", ""]),
    "seed": (["0", "7"], ["-3", "abc", ""]),
    "cap_atoms": (["100", "4096", "100000"], ["-1", "0", "x"]),
    "sigma": (["2", "3"], ["-1", "0", "1", "x"]),
    "jobs": (["1", "2"], ["-1", "0", "x"]),
    "out": (["reports"], ["w1.txt", "w1.txt/x", ""]),
}
MANIFEST["hwords"] = MANIFEST["prewords"]
# the integer keys a manifest refuses while parsing, with the bad values
# that are bad by themselves: sigma = 1 is bad only for the word files
PARSED = {key: [v for v in MANIFEST[key][1] if (key, v) != ("sigma", "1")]
          for key in ("seed", "cap_atoms", "sigma", "jobs")}


@st.composite
def manifest_text(draw):
    """(text, exit code it must give or None) for a manifest; a clean
    one has params and good values only.  A bad value of a PARSED key
    must exit 2."""
    clean = draw(st.booleans())
    keys = draw(st.lists(st.sampled_from(sorted(MANIFEST)), unique=clean,
                         max_size=6))
    if clean and "params" not in keys:
        keys.append("params")
    params = draw(st.sampled_from(PARAMS[0] if clean else sum(PARAMS, [])))
    lines, expected = [], None
    for key in keys:
        good, bad = MANIFEST[key]
        if clean and key in ("prewords", "hwords"):
            good = [" ".join(f) for f in WORD_FILES[params]]
        val = params if key == "params" else draw(st.sampled_from(
            good if clean else good + bad))
        if val in PARSED.get(key, ()):
            expected = 2
        lines.append("%s = %s" % (key, val))
    if not clean:
        lines += draw(st.lists(st.sampled_from(
            ["nonsense", "bogus = 1", "# c", "", "params"]), max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n", expected


def exit_code(workdir, argv):
    """main's exit code for `argv`, run from `workdir`."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv, out=io.StringIO())
    except SystemExit as exc:
        # argparse refusing the argv is the only way out of main
        assert exc.code == 2, argv
        return 2
    finally:
        os.chdir(cwd)


FUZZ = settings(max_examples=250, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(case=subcommand_argv())
# the three h-word files fit var.params up to a stage it does not have
@example(case=(["proc", "eps", "--params", "var.params", "--hwords", "w1.txt",
                "--hwords", "w2var.txt", "--hwords", "w2.txt"], 2))
# a cap below its least value, which once sized a grid and exited 3
@example(case=(["proc", "build", "--params", "desk.params", "--hwords",
                "w1.txt", "--hwords", "w2.txt", "--cap-atoms", "0"], 2))
def test_any_argv_exits_0_to_3(workdir, case):
    argv, expected = case
    code = exit_code(workdir, argv)
    assert code in (0, 1, 2, 3), argv
    assert expected is None or code == expected, argv


@FUZZ
@given(case=manifest_text())
# h-words that build a grid, with a cap no grid fits in
@example(case=("params = desk.params\nhwords = w1.txt w2.txt\n"
               "cap_atoms = 0\n", 2))
def test_any_manifest_exits_0_to_3(workdir, case):
    text, expected = case
    (workdir / "m.txt").write_text(text)
    code = exit_code(workdir, ["run", "m.txt"])
    assert code in (0, 1, 2, 3), text
    assert expected is None or code == expected, text
