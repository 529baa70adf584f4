import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from circlesys import (cli, consys, factor, names, procsim, ratarith,
                       smoothreal, stagemap, words)
from circlesys.cli import RunManifest, main, run_checks
from circlesys.errors import (CoherenceError, InputError, OracleMismatch,
                              ToleranceError)
from oracles import dense_name_stability

DESK_PARAMS = "k = 2 2\nl = 4 4\ns = 2 2 4\n"
VAR_PARAMS = "k = 2 4\nl = 4 4\ns = 2 2 4\n"
W1 = "0 1\n1 0\n"
W2_DUP = "0 1\n1 0\n0 1\n1 0\n"
W2_VAR = "0 0 1 1\n0 1 0 1\n1 0 1 0\n1 1 0 0\n"
# stage 3 words have 4*32*128**2 = 2**21 letters, past the word cap
LAZY_PARAMS = "k = 2 4 4\nl = 2 2 32\ns = 2 2 4 4\n"
W3 = "0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"


@pytest.fixture
def desk(tmp_path):
    files = {"desk.params": DESK_PARAMS, "w1.txt": W1, "w2.txt": W2_DUP,
             "var.params": VAR_PARAMS, "w2var.txt": W2_VAR,
             "lazy.params": LAZY_PARAMS, "w3.txt": W3}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_params_output(desk):
    code, text = run(["params", str(desk / "desk.params")])
    assert code == 0
    assert "p = 0 1 65" in text
    assert "q = 1 8 512" in text
    assert "alpha = 0 1/8 65/512" in text


def test_params_missing_file(desk):
    code, _ = run(["params", str(desk / "nope.params")])
    assert code == 2


def test_bad_params_exit2(desk):
    (desk / "bad.params").write_text("k = 2 2\nl = 4 4\ns = 3 2 4\n")
    code, _ = run(["params", str(desk / "bad.params")])
    assert code == 2


def test_words_build_stage1(desk):
    code, text = run(["words", "build", "--params", str(desk / "desk.params"),
                      "--prewords", str(desk / "w1.txt"),
                      "--prewords", str(desk / "w2.txt"), "--stage", "1"])
    assert code == 0
    assert text.splitlines() == ["b 0 0 0 b 1 1 1", "b 1 1 1 b 0 0 0"]


def test_words_build_empty_range(desk):
    code, text = run(["words", "build", "--params", str(desk / "desk.params"),
                      "--prewords", str(desk / "w1.txt"),
                      "--prewords", str(desk / "w2.txt"),
                      "--stage", "2", "--range", "5:5"])
    assert code == 0
    assert all(not line for line in text.splitlines())


def test_words_build_bad_range(desk):
    code, _ = run(["words", "build", "--params", str(desk / "desk.params"),
                   "--prewords", str(desk / "w1.txt"),
                   "--prewords", str(desk / "w2.txt"),
                   "--stage", "2", "--range", "0:1000"])
    assert code == 2


def words_parse(desk, stage, text):
    return run(["words", "parse", "--params", str(desk / "desk.params"),
                "--prewords", str(desk / "w1.txt"),
                "--prewords", str(desk / "w2.txt"),
                "--stage", str(stage), "--text", text])


def test_words_parse_hits(desk):
    code, text = words_parse(desk, 1, "b 0 0 0 b 1 1 1 b 0 0 0")
    assert code == 0
    assert text.splitlines() == ["offset=0 word=0", "offset=4 word=1"]


@pytest.mark.parametrize("stage", [3, -1])
def test_words_parse_stage_out_of_range(desk, capsys, stage):
    code, _ = words_parse(desk, stage, "b 0")
    err = capsys.readouterr().err
    assert code == 2
    assert "error: stage %d out of range [0, 2]" % stage in err


def test_words_parse_symbol_too_large(desk, capsys):
    code, _ = words_parse(desk, 1, "b 0 0 0 %d" % 2 ** 63)
    err = capsys.readouterr().err
    assert code == 2
    assert "error: letters must be integers that fit in int64" in err


def test_python_m_circlesys(desk):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "circlesys", "params",
                           str(desk / "desk.params")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "q = 1 8 512" in proc.stdout


def test_s_window_refusal(desk):
    code, text = run(["seq", "s-window", "--params", str(desk / "desk.params"),
                      "--prewords", str(desk / "w1.txt"),
                      "--prewords", str(desk / "w2.txt"),
                      "--window", "b b b b b b", "--origin", "2"])
    assert code == 1
    assert "REFUSED at stage 1" in text


def test_names_crosscheck_verdict(desk):
    code, text = run(["names", "crosscheck", "--params",
                      str(desk / "desk.params"),
                      "--hwords", str(desk / "w1.txt"),
                      "--hwords", str(desk / "w2.txt")])
    assert code == 0
    assert "ORACLE-MATCH: yes" in text


def test_names_crosscheck_simulates_each_tower_once(desk, monkeypatch):
    # a word route that disagrees on tower 2 ends the listing there
    simulate, u_words = names.simulate_tower_name, names.u_words
    simulated = []

    def counted(proc, s):
        simulated.append(s)
        return simulate(proc, s)

    def rotated(proc, h, s):
        us = u_words(proc, h, s)
        return us[1:] + us[:1] if s == 2 else us

    monkeypatch.setattr(names, "simulate_tower_name", counted)
    argv = ["names", "crosscheck", "--params", str(desk / "desk.params"),
            "--hwords", str(desk / "w1.txt"), "--hwords", str(desk / "w2.txt")]
    code, text = run(argv)
    assert (code, simulated) == (0, [0, 1, 2, 3])
    monkeypatch.setattr(names, "u_words", rotated)
    simulated.clear()
    code, bad = run(argv)
    assert (code, simulated) == (1, [0, 1, 2])
    assert bad.splitlines()[:3] == text.splitlines()[:3]
    assert bad.splitlines()[3] == "ORACLE-MATCH: no (tower 2, position 9)"


WORDS = ["--prewords", "w1.txt", "--prewords", "w2.txt"]
LAZY = ["words", "parse", "--params", "lazy.params", "--prewords", "w1.txt",
        "--prewords", "w2var.txt", "--prewords", "w3.txt", "--stage", "3",
        "--text", "0 1 2"]


@pytest.mark.parametrize("argv", [
    ["factor", "rho", "--params", "desk.params", "--point", "0,0"],
    ["words", "build", "--params", "desk.params"] + WORDS
    + ["--stage", "1", "--range", "3"],
    ["smooth", "realize", "--grid", "0x3"],
    ["smooth", "realize", "--grid", "2x2", "--perm", "0,1"],
    ["smooth", "realize", "--grid", "2x2", "--perm", "a,b"],
    ["smooth", "swap", "--grid", "2x2", "--samples", "0"],
    ["words", "decode", "--params", "desk.params"] + WORDS + ["--stage", "9"],
    ["words", "decode", "--params", "desk.params"] + WORDS
    + ["--stage", "1", "--index", "7"],
    ["words", "stats", "--params", "desk.params"] + WORDS + ["--stage", "9"],
    ["words", "stats", "--params", "desk.params"] + WORDS
    + ["--stage", "1", "--index", "7"],
    ["names", "tower", "--params", "desk.params", "--hwords", "w1.txt",
     "--index", "9"],
    ["smooth", "stage"],
    ["smooth", "stage", "--params", "desk.params"],
    ["smooth", "swap", "--seed", "-1"],
    ["smooth", "realize", "--seed", "-1"],
    ["smooth", "stage", "--params", "desk.params", "--hwords", "w1.txt",
     "--seed", "-1"],
    ["factor", "pi", "--params", "desk.params", "--point", "0,1,9",
     "--width", "-5"],
    LAZY,
], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
def test_bad_input_exits_2(desk, capsys, monkeypatch, argv):
    monkeypatch.chdir(desk)
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# var.params has two stages, so a third h-word file names a stage it lacks
EXTRA_HWORDS = ["w1.txt", "w2var.txt", "w2.txt"]


@pytest.mark.parametrize("argv", [
    ["run", "every.txt"],
    ["run", "requirements.txt"],
    ["proc", "build"],
    ["proc", "reqs"],
    ["names", "crosscheck"],
    ["smooth", "stage"],
])
def test_extra_h_word_files_exit_2(desk, capsys, monkeypatch, argv):
    monkeypatch.chdir(desk)
    head = "params = var.params\nhwords = %s\n" % " ".join(EXTRA_HWORDS)
    (desk / "every.txt").write_text(head)
    (desk / "requirements.txt").write_text(head + "checks = requirements\n")
    if argv[0] != "run":
        argv = argv + ["--params", "var.params"]
        for w in EXTRA_HWORDS:
            argv += ["--hwords", w]
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_words_parse_refuses_a_lazy_stage_at_once(desk, capsys, monkeypatch):
    monkeypatch.chdir(desk)
    start = time.perf_counter()
    code, _ = run(LAZY)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr().err == ("error: stage 3 words have 2097152 "
                                       "letters, past the word cap 1048576\n")


@pytest.mark.parametrize("exc", [ToleranceError("eps not reached"),
                                 OracleMismatch("names differ")])
def test_failed_oracle_or_tolerance_exits_1(desk, capsys, monkeypatch, exc):
    def fail(args, out):
        raise exc
    monkeypatch.setattr(cli, "cmd_params", fail)
    code, _ = run(["params", str(desk / "desk.params")])
    assert code == 1
    assert capsys.readouterr().err == "FAIL: %s\n" % exc


def test_factor_rho(desk):
    code, text = run(["factor", "rho", "--params", str(desk / "desk.params"),
                      "--point", "0,1,9"])
    assert code == 0
    assert "rho = 0 1/8 73/512" in text


def manifest(desk, body):
    path = desk / "m.txt"
    path.write_text(body)
    return str(path)


def test_run_all_pass(desk):
    code, text = run(["run", manifest(desk,
        "params = var.params\nprewords = w1.txt w2var.txt\n"
        "hwords = w1.txt w2var.txt\nseed = 0\n")])
    assert code == 0
    assert "FAIL" not in text
    assert text.count("CHECK") == 12


def test_run_numerology_checks_deepest_stage(desk):
    # q = 1, 8, 512: (8 - 1) + (512 - 1) identities
    code, text = run(["run", manifest(desk,
        "params = desk.params\nchecks = numerology\n")])
    assert code == 0
    assert text == "CHECK numerology PASS value=518 bound=q-j_i = j_{q-i}\n"


def test_run_readability_names_stages(desk):
    code, text = run(["run", manifest(desk,
        "params = lazy.params\nprewords = w1.txt w2var.txt w3.txt\n"
        "checks = readability\n")])
    assert code == 0
    assert text == ("CHECK readability PASS value=0 violations scanned=2 "
                    "skipped=1(q=1),3(lazy) bound=offsets 0,q only\n")


def test_run_numerology_names_stages_past_cap(desk):
    # numerology reads no table, so the atom cap skips no stage
    code, text = run(["run", manifest(desk,
        "params = desk.params\nchecks = numerology\ncap_atoms = 100\n")])
    assert code == 0
    assert text == "CHECK numerology PASS value=518 bound=q-j_i = j_{q-i}\n"


def test_run_boundary_names_lazy_stages(desk):
    code, text = run(["run", manifest(desk,
        "params = lazy.params\nprewords = w1.txt w2var.txt w3.txt\n"
        "checks = boundary\n")])
    assert code == 0
    assert text == ("CHECK boundary PASS value=1/2 skipped=3(lazy) "
                    "bound=1/l exactly, near <= 3/l\n")


def test_run_boundary_with_no_stage_checked(desk):
    # stage 1 words have 2*2097152 letters, past the word cap
    (desk / "wide.params").write_text("k = 2\nl = 2097152\ns = 2 2\n")
    code, text = run(["run", manifest(desk,
        "params = wide.params\nprewords = w1.txt\nchecks = boundary\n")])
    assert code == 0
    assert text == ("CHECK boundary PASS value=none skipped=1(lazy) "
                    "bound=1/l exactly, near <= 3/l\n")


def test_run_boundary_fails_on_a_wrong_spacer_letter(desk, monkeypatch):
    # a materialized word's spacer letters are compared with the layout;
    # a mismatch is a FAIL that names the word, not an input error
    build = consys.build_sequence

    def corrupted(*args):
        cs = build(*args)
        level = cs.levels[2].copy()
        level[1, 0] = words.E       # inside the b run of word 1's block 0
        cs.levels[2] = level
        return cs

    monkeypatch.setattr(consys, "build_sequence", corrupted)
    code, text = run(["run", manifest(desk,
        "params = var.params\nprewords = w1.txt w2var.txt\n"
        "checks = boundary\n")])
    assert code == 1
    assert text == ("CHECK boundary FAIL value=stage 2 word 1 letters in "
                    "[0, 8) do not match a spacer run "
                    "bound=1/l exactly, near <= 3/l\n")


def test_run_factor_fails_on_an_incoherent_point(desk, monkeypatch):
    def incoherent(pt):
        raise CoherenceError("gap past 1/q_1")

    monkeypatch.setattr(factor, "rho_trace", incoherent)
    code, text = run(["run", manifest(desk,
        "params = var.params\nhwords = w1.txt w2var.txt\nchecks = factor\n")])
    assert code == 1
    assert text == ("CHECK factor FAIL value=offsets (0, 1, 9): gap past "
                    "1/q_1 bound=rho monotone, gaps < 1/q_n\n")


@pytest.mark.parametrize("argv", [["params", "bin.txt"], ["run", "bin.txt"],
    ["words", "build", "--params", "desk.params", "--prewords", "bin.txt",
     "--stage", "1"]], ids=lambda argv: argv[0])
def test_non_utf8_input_exits_2(desk, capsys, monkeypatch, argv):
    (desk / "bin.txt").write_bytes(b"k = 2\n\xff\xfe\n")
    monkeypatch.chdir(desk)
    code, _ = run(argv)
    assert code == 2
    assert capsys.readouterr().err == \
        "error: bin.txt: not UTF-8 text (byte 6)\n"


@pytest.mark.parametrize("argv", [
    ["words", "build", "--seed", "0", "--stage", "1"],
    ["seq", "build", "--seed", "0"],
    ["proc", "build", "--seed", "0"], ["names", "tower", "--seed", "0"],
    ["words", "build", "--cap-atoms", "9", "--stage", "1"],
    ["seq", "build", "--cap-atoms", "9"],
    ["proc", "build", "--sigma", "2"], ["names", "tower", "--sigma", "2"],
    ["smooth", "stage", "--sigma", "2"],
    ["smooth", "stage", "--cap-atoms", "9"],
], ids=lambda argv: "%s %s" % (argv[0], argv[2]))
def test_flags_without_effect_are_refused(desk, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--params", str(desk / "desk.params")])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s %s" % tuple(argv[2:4]) \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, refused", [
    (["smooth", "swap", "--params", "desk.params", "--hwords", "w1.txt"],
     "--hwords, --params"),
    (["smooth", "stage", "--grid", "3x3", "--perm", "1,2"], "--grid, --perm"),
    (["words", "build", "--params", "desk.params", "--prewords", "w1.txt",
      "--stage", "1", "--pos", "5", "--text", "x"], "--pos, --text"),
    (["seq", "build", "--params", "desk.params", "--prewords", "w1.txt",
      "--window", "b"], "--window"),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else v)
def test_flags_of_sibling_actions_are_refused(desk, capsys, monkeypatch,
                                              argv, refused):
    monkeypatch.chdir(desk)
    code, text = run(argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: %s %s does not read %s\n" % (
        argv[0], argv[1], refused)


def test_run_duplicate_fails_requirements(desk):
    code, text = run(["run", manifest(desk,
        "params = desk.params\nprewords = w1.txt w2.txt\n"
        "hwords = w1.txt w2.txt\nchecks = requirements\n")])
    assert code == 1
    assert "CHECK requirements FAIL" in text


def test_run_requirements_names_the_unbalanced_word(desk):
    # k/s = 2, but the first word holds symbol 0 three times
    (desk / "k4.params").write_text("k = 4\nl = 4\ns = 2 2\n")
    (desk / "h1.txt").write_text("0 0 0 1\n1 1 1 0\n")
    code, text = run(["run", manifest(
        desk, "params = k4.params\nhwords = h1.txt\nchecks = requirements\n")])
    assert (code, text) == (
        1, "CHECK requirements FAIL value=req1=unverifiable req2=False "
        "req3=True req2_witness=(1, 0, 0) bound=towers distinct, readback "
        "exact\n")


def test_run_missing_params_exit2(desk):
    code, _ = run(["run", manifest(desk, "params = nope.params\n")])
    assert code == 2


def test_run_non_integer_seed_exit2(desk, capsys):
    code, _ = run(["run", manifest(desk, "params = desk.params\nseed = abc\n")])
    assert code == 2
    assert "seed must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_jobs_below_one_exit2(desk, capsys, jobs):
    path = manifest(desk, "params = desk.params\njobs = %s\n" % jobs)
    assert run(["run", path]) == (2, "")
    assert capsys.readouterr().err == (
        "error: %s: jobs must be at least 1, got %s\n" % (path, jobs))


@pytest.mark.parametrize("key, value, rule", [
    ("cap_atoms", "0", "at least 1"), ("cap_atoms", "-1", "at least 1"),
    ("sigma", "0", "at least 1"), ("sigma", "-2", "at least 1"),
    ("seed", "-3", "non-negative"),
])
def test_run_integer_below_its_least_exit2(desk, capsys, key, value, rule):
    # refused while parsing, though the h-word checks read no sigma or
    # seed, and a cap of 0 used to reach them and exit 3 on the grid
    path = manifest(desk, "params = desk.params\nhwords = w1.txt w2.txt\n"
                    "%s = %s\n" % (key, value))
    assert run(["run", path]) == (2, "")
    assert capsys.readouterr().err == (
        "error: %s: %s must be %s, got %s\n" % (path, key, rule, value))


@pytest.mark.parametrize("argv, flag, value, rule", [
    (["proc", "build", "--params", "desk.params", "--hwords", "w1.txt",
      "--hwords", "w2.txt"], "--cap-atoms", "0", "at least 1"),
    (["seq", "build", "--params", "desk.params", "--prewords", "w1.txt",
      "--prewords", "w2.txt"], "--sigma", "0", "at least 1"),
    (["smooth", "swap"], "--samples", "0", "at least 1"),
    (["smooth", "realize"], "--seed", "-1", "non-negative"),
    (["factor", "pi", "--params", "desk.params", "--point", "0,1,9"],
     "--width", "-1", "non-negative"),
], ids=["cap-atoms", "sigma", "samples", "seed", "width"])
def test_flag_below_its_least_exit2(desk, capsys, monkeypatch, argv, flag,
                                    value, rule):
    # the rule of the manifest keys: a cap of 0 used to size a grid and
    # exit 3, a sigma of 0 to name the empty alphabet
    monkeypatch.chdir(desk)
    assert run(argv + [flag, value]) == (2, "")
    assert capsys.readouterr().err == (
        "error: %s must be %s, got %s\n" % (flag, rule, value))


def test_run_least_values_are_accepted(desk):
    code, text = run(["run", manifest(desk,
        "params = desk.params\nprewords = w1.txt\nseed = 0\n"
        "cap_atoms = 1\nsigma = 2\njobs = 1\nchecks = recursion\n")])
    assert code == 0
    assert text.startswith("CHECK recursion PASS")


def test_run_unknown_key_exit2(desk):
    code, _ = run(["run", manifest(desk, "params = desk.params\nbogus = 1\n")])
    assert code == 2


@pytest.mark.parametrize("checks, error", [
    ("recursion bogus", "unknown check 'bogus'"),
    ("recursion numerology recursion", "duplicate check 'recursion'"),
])
def test_run_refused_check_exit2(desk, capsys, checks, error):
    # a check named twice used to print its line twice, and to run twice
    # at once with jobs > 1; the manifest's parse refuses both, naming it
    path = manifest(desk, "params = desk.params\njobs = 2\nchecks = %s\n"
                    % checks)
    assert run(["run", path]) == (2, "")
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, error)
    # before any file it names is read, and by run_checks' own rule
    os.remove(desk / "desk.params")
    with pytest.raises(InputError, match=re.escape("%s: %s" % (path, error))):
        RunManifest(path)
    with pytest.raises(InputError, match="^%s$" % re.escape(error)):
        run_checks(None, checks.split())


def test_run_resource_cap_exit3(desk):
    code, _ = run(["run", manifest(desk,
        "params = desk.params\nhwords = w1.txt w2.txt\n"
        "checks = process\ncap_atoms = 100\n")])
    assert code == 3


def test_run_five_stages_refused_before_h5_is_built(desk, capsys):
    # h_5 alone would hold k q[4] s[5] = 2^32 entries; the stage-5 grid,
    # 2^63 atoms, is refused first, so nothing near that size is made
    (desk / "five.params").write_text("k = 2 2 2 2 2\nl = 2 2 2 2 2\n"
                                      "s = 2 2 2 2 2 2\n")
    (desk / "w01.txt").write_text("0 1\n1 0\n")
    path = manifest(desk, "params = five.params\nhwords = %s\n"
                    "checks = process\ncap_atoms = 4294967296\n"
                    % " ".join(["w01.txt"] * 5))
    tracemalloc.start()
    try:
        code, text = run(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "resource cap: stage-5 grid needs %d atoms, cap is %d\n"
        % (2 ** 63, 2 ** 32))
    assert peak < 16 << 20


def test_run_thin_rung_past_2_22_columns(desk):
    # stage 3 has q[3] = 4194368 columns, just past 2^22; one strip and
    # one child per stage keep it to one row, so the names checks run
    (desk / "thin.params").write_text("k = 1 1 1\nl = 2 2 65537\n"
                                      "s = 1 1 1 1\n")
    (desk / "w0.txt").write_text("0\n")
    code, text = run(["run", manifest(desk,
        "params = thin.params\nhwords = w0.txt w0.txt w0.txt\n"
        "checks = distinct stability numerology\ncap_atoms = 4194368\n")])
    assert code == 0
    assert text == (
        "CHECK distinct PASS value=distinct bound=pairwise distinct tower names\n"
        "CHECK numerology PASS value=4194375 bound=q-j_i = j_{q-i}\n"
        "CHECK stability PASS value=4194177/4194368 bound=>= 65534/65537\n")


def refuse_stability(*_):
    raise AssertionError("name_stability runs on a vacuous bound")


@pytest.mark.parametrize("l, bound", [(2, "-1/2"), (3, "0")])
def test_stability_skips_a_bound_that_cannot_fail(desk, monkeypatch, l, bound):
    # 1 - 3/l <= 0 for l <= 3, and l = 3 is the edge where it is 0
    monkeypatch.setattr(names, "name_stability", refuse_stability)
    (desk / "low.params").write_text("k = 2 2\nl = 4 %d\ns = 2 2 4\n" % l)
    code, text = run(["run", manifest(desk,
        "params = low.params\nhwords = w1.txt w2.txt\nchecks = stability\n")])
    assert (code, text) == (0, "CHECK stability PASS value=none "
                               "skipped=2(l<=3) bound=>= %s\n" % bound)


def test_stability_counts_from_l_4(desk):
    ctx = cli.Context(str(desk / "desk.params"),
                      hwords=[str(desk / "w1.txt"), str(desk / "w2.txt")])
    rep = dense_name_stability(ctx.procs[-2], ctx.procs[-1])
    assert cli.check_stability(ctx) == (True, str(rep.fraction), ">= 1/4")


def test_names_stability_skips_l_2(desk, monkeypatch):
    monkeypatch.setattr(names, "name_stability", refuse_stability)
    (desk / "low.params").write_text("k = 2 2\nl = 4 2\ns = 2 2 4\n")
    argv = ["names", "stability", "--params", str(desk / "low.params"),
            "--hwords", str(desk / "w1.txt"), "--hwords", str(desk / "w2.txt")]
    assert run(argv) == (0, "CHECK stability PASS value=none "
                            "skipped=2(l<=3) bound=>= -1/2\n")
    # the processes are still built, so a bad h-word file is still refused
    (desk / "w2bad.txt").write_text("0 1 0\n1 0 1\n0 1 1\n1 1 0\n")
    argv[-1] = str(desk / "w2bad.txt")
    assert run(argv) == (2, "")


def test_grid3_shaped_checks_threads_match_serial(desk):
    # l = 2 2 2 as in the grid3 benchmark rung; the threads share the
    # processes and one uniformity report per stage
    (desk / "grid3.params").write_text("k = 2 4 4\nl = 2 2 2\ns = 2 2 4 4\n")
    files = [str(desk / f) for f in ("w1.txt", "w2var.txt", "w3.txt")]
    checks = sorted(set(RunManifest(manifest(desk,
        "params = grid3.params\nprewords = w1.txt\nhwords = w1.txt\n"))
        .default_checks()) - {"readability"})

    def context():
        return cli.Context(str(desk / "grid3.params"), files, files)
    serial = run_checks(context(), checks, jobs=1)
    assert serial == run_checks(context(), checks, jobs=2)
    assert serial[1]
    assert ("CHECK stability PASS value=none skipped=3(l<=3) bound=>= -1/2"
            in serial[0])


def test_run_stage_grid_past_cap_atoms_exit3(desk, capsys):
    # 67,108,864 stage-3 atoms, one past cap_atoms
    (desk / "rung.params").write_text("k = 2 4 4\nl = 4 2 8\ns = 2 2 4 8\n")
    (desk / "w3.txt").write_text("0 1 2 3\n0 1 3 2\n0 2 1 3\n0 2 3 1\n"
                                 "0 3 1 2\n0 3 2 1\n1 0 2 3\n1 0 3 2\n")
    code, text = run(["run", manifest(desk,
        "params = rung.params\nhwords = w1.txt w2var.txt w3.txt\n"
        "checks = distinct\ncap_atoms = 67108863\n")])
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == ("resource cap: stage-3 grid needs "
                                       "67108864 atoms, cap is 67108863\n")


def test_run_replayable(desk):
    m = manifest(desk, "params = var.params\nprewords = w1.txt w2var.txt\n"
                       "hwords = w1.txt w2var.txt\nseed = 7\n")
    outputs = {run(["run", m])[1] for _ in range(2)}
    assert len(outputs) == 1


def test_run_checks_threads_match_serial():
    # the threads share one Context, its processes and their label memo
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "data", "manifest.txt")
    m = RunManifest(path)
    checks = m.default_checks()
    serial = run_checks(m.context(), checks, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_checks(m.context(), checks, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert serial[1] and len(serial[0]) == len(checks)


def test_cylinder_reads_one_uniformity_report_per_level(desk, monkeypatch):
    # every word of a level is measured against the same eps, and the
    # uniformity check reads the same reports
    calls = []
    verify = consys.verify_uniformity

    def counted(cs, n):
        calls.append(n)
        return verify(cs, n)
    monkeypatch.setattr(consys, "verify_uniformity", counted)
    ctx = cli.Context(str(desk / "desk.params"), [str(desk / "w1.txt")] * 2)
    assert cli.check_cylinder(ctx) == (True, "0", "<= 0")
    assert cli.check_uniformity(ctx) == (True, "f=24", "equal counts")
    assert calls == [0, 1]


def test_run_builds_each_h_grid_once(monkeypatch):
    # every check reads the h grids kept on the processes
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "data", "manifest.txt")
    m = RunManifest(path)
    calls = []
    build = procsim.h_from_words

    def counted(params, n, h_words):
        calls.append(n)
        return build(params, n, h_words)
    monkeypatch.setattr(procsim, "h_from_words", counted)
    lines, ok = run_checks(m.context(), m.default_checks())
    assert ok
    assert sorted(calls) == list(range(len(m.hword_paths)))


def test_huge_alphabet_exits_3_before_allocating(desk, capsys):
    code, _ = run(["seq", "build", "--params", str(desk / "desk.params"),
                   "--prewords", str(desk / "w1.txt"),
                   "--sigma", "100000000000000000000000"])
    assert code == 3
    assert capsys.readouterr().err == (
        "resource cap: alphabet of 100000000000000000000000 letters "
        "exceeds the word cap 1048576\n")


def test_run_report_file(desk):
    m = manifest(desk, "params = desk.params\nprewords = w1.txt w2.txt\n"
                       "checks = recursion\nout = reports\n")
    code, text = run(["run", m])
    assert code == 0
    report = (desk / "reports" / "report.txt").read_text()
    assert report == text


@pytest.mark.parametrize("argv", [
    ["smooth", "swap", "--grid", "4x4", "--eps", "0.7"],
    ["smooth", "swap", "--grid", "4x4", "--eps", "0.5"],
    ["smooth", "realize", "--grid", "4x4", "--eps", "1"],
    ["smooth", "realize", "--grid", "4x4", "--eps", "1.5"],
    ["smooth", "realize", "--grid", "4x4", "--eps", "0"],
    ["smooth", "stage", "--params", "var.params", "--hwords", "w1.txt",
     "--hwords", "w2var.txt", "--eps", "1"],
], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
def test_smooth_eps_outside_range_exits_2(desk, capsys, monkeypatch, argv):
    monkeypatch.chdir(desk)
    code, text = run(argv)
    assert (code, text) == (2, "")
    top = "0.5" if argv[1] == "swap" else "1"
    assert capsys.readouterr().err == (
        "error: smooth %s needs --eps in (0, %s), got %r\n"
        % (argv[1], top, float(argv[-1])))


@pytest.mark.parametrize("action, grid", [("swap", "1x1025"),
                                          ("realize", "33x32")])
def test_smooth_grid_past_cap_exits_3(capsys, action, grid):
    code, text = run(["smooth", action, "--grid", grid])
    assert (code, text) == (3, "")
    m, n = map(int, grid.split("x"))
    assert capsys.readouterr().err == (
        "resource cap: smooth %s grid needs %d cells, cap is %d\n"
        % (action, m * n, smoothreal.MAX_SMOOTH_CELLS))


def test_smooth_stage_past_cap_exits_3(tmp_path, capsys):
    N = smoothreal.MAX_SMOOTH_CELLS + 1
    (tmp_path / "wide.params").write_text("k = %d\nl = 2\ns = 1 1\n" % N)
    (tmp_path / "zeros.txt").write_text(" ".join(["0"] * N) + "\n")
    code, text = run(["smooth", "stage", "--params",
                      str(tmp_path / "wide.params"), "--hwords",
                      str(tmp_path / "zeros.txt")])
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "resource cap: stage-1 smooth grid needs %d cells, cap is %d\n"
        % (N, smoothreal.MAX_SMOOTH_CELLS))


@pytest.mark.parametrize("argv", [
    ["smooth", "swap", "--grid", "2x2"],
    ["smooth", "realize", "--grid", "2x2", "--eps", "0.1"],
    ["smooth", "stage", "--params", "desk.params", "--hwords", "w1.txt",
     "--hwords", "w2.txt"],
], ids=lambda argv: argv[1])
def test_smooth_samples_past_cap_exits_3(desk, capsys, monkeypatch, argv):
    monkeypatch.chdir(desk)
    samples = 100000000000
    tracemalloc.start()
    try:
        code, text = run(argv + ["--samples", str(samples)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "resource cap: smooth %s needs %d samples, cap is %d\n"
        % (argv[1], samples, smoothreal.MAX_SMOOTH_SAMPLES))
    # refused before anything sized by the sample count is made
    assert peak < 1 << 20


def test_smooth_realize_memory_per_sample():
    # realize_perm's verdict holds one chunk of its sample and at most
    # SHALLOW_BATCH shallow points (about 0.43 MB traced here, where a
    # verdict that moved the whole sample held 24 bytes per sample); the
    # obedience table only prints
    argv = ["smooth", "realize", "--grid", "8x8", "--eps", "0.1",
            "--seed", "1", "--samples"]
    run(argv + ["100"])     # loads what the command uses
    samples = 200000
    tracemalloc.start()
    try:
        code, _ = run(argv + [str(samples)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1 << 20


def test_smooth_realize_samples_once(monkeypatch):
    # the table and verdict read realize_perm's own sample
    real, calls = smoothreal.obedience, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(smoothreal, "obedience", counted)
    code, text = run(["smooth", "realize", "--grid", "3x2", "--samples",
                      "500", "--seed", "1"])
    assert (code, len(calls)) == (0, 1)
    assert text.endswith(", 11 swaps\n")


def test_smooth_realize_draws_its_permutation_from_a_child_stream():
    # without --perm the permutation comes from the first child of
    # SeedSequence(seed), and realize_perm samples from default_rng(seed)
    argv = ["smooth", "realize", "--grid", "4x4", "--samples", "100",
            "--seed", "5"]
    code, text = run(argv)
    sigma = [int(line.split()[3]) for line in text.splitlines()[:-1]]
    child = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
    assert sigma == child.permutation(16).tolist()
    assert sigma != np.random.default_rng(5).permutation(16).tolist()
    assert run(argv + ["--perm", ",".join(map(str, sigma))]) == (code, text)


@pytest.mark.parametrize("window", [1, 777, 4096])
def test_smooth_obedience_windows_equal_one_window(window, monkeypatch):
    argv = ["smooth", "realize", "--grid", "5x4", "--eps", "0.05",
            "--samples", "5000", "--seed", "3"]
    want = run(argv)
    monkeypatch.setattr(ratarith, "CHUNK", window)
    assert run(argv) == want


def test_smooth_swap_cli(desk):
    code, text = run(["smooth", "swap", "--grid", "2x2", "--k", "0",
                      "--eps", "0.05", "--samples", "5000"])
    assert code == 0
    assert text.strip().endswith(")") or "PASS" in text


def test_smooth_obedience_names_cells_without_samples():
    # the one sample lands in cell 1, so cell 0 has nothing to report
    code, text = run(["smooth", "swap", "--grid", "2x1", "--k", "0",
                      "--samples", "1"])
    assert (code, text) == (0, "rect  0 ->  1 obedient n/a (0 samples)\n"
                               "rect  1 ->  0 obedient 1.0000\n"
                               "PASS obedient 1.0000 (need 0.9500)\n")


# the verdict lines of a FAIL, each from a stand-in for the computation
# behind it, so that a FAIL needs no input that really fails
@pytest.mark.parametrize("argv, line", [
    (["swap", "--grid", "2x2", "--k", "1"],
     "FAIL obedient 0.5000 (need 0.9000)\n"),
    (["realize", "--grid", "2x2", "--perm", "1,0,3,2"],
     "FAIL obedient 0.5000 (need 0.9000), 2 swaps\n"),
])
def test_smooth_obedience_fail_line(monkeypatch, argv, line):
    monkeypatch.setattr(cli, "_obedience_table", lambda *args: 0.5)
    assert run(["smooth"] + argv + ["--eps", "0.1", "--samples", "100"]) \
        == (1, line)


def test_smooth_stage_fail_line(desk, monkeypatch):
    def fail(*args, **kwargs):
        raise ToleranceError("obedient fraction below 1 - eps",
                             achieved=0.25)
    monkeypatch.setattr(stagemap, "stage_map", fail)
    monkeypatch.chdir(desk)
    assert run(["smooth", "stage", "--params", "desk.params", "--hwords",
                "w1.txt", "--hwords", "w2.txt", "--eps", "0.1"]) \
        == (1, "FAIL obedient 0.7500 (need 0.9000)\n")


def test_proc_eps_fail_line(desk, monkeypatch):
    monkeypatch.setattr(procsim, "eps_approx", lambda prev, proc:
                        SimpleNamespace(eps=Fraction(3, 8), subordinate=False))
    monkeypatch.chdir(desk)
    assert run(["proc", "eps", "--params", "desk.params", "--hwords",
                "w1.txt", "--hwords", "w2.txt"]) \
        == (1, "CHECK eps-approx FAIL value=3/8 bound=subordinate off "
               "deleted set\n")
