"""Seeded inputs and output checks for the circlesys benchmark workloads.

Each workload turns a seed into the files the program reads (params,
word lists, a manifest or a permutation), names the child command that
verifies them, and knows how to tell a correct output from a wrong one.
The generators emit only inputs that meet the construction's
requirements: every preword and h-word tuple has arity k[n], the words
of one stage are distinct, and each symbol occurs k[n]/s[n] times in
every h-word (balanced tuples).
"""

import itertools
import os
import random
import re

GRID3_PARAMS = {"k": (2, 4, 4), "l": (2, 2, 2), "s": (2, 2, 4, 4)}
SCAN2_PARAMS = {"k": (2, 4), "l": (4, 16), "s": (2, 2, 4)}

# stage 1 and stage 2 word lists of the demo data (words1.txt and
# words2_variant.txt), shared by both run workloads
WORDS1 = [(0, 1), (1, 0)]
WORDS2_VARIANT = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
# the six 4-tuples over {0, 1} with two of each symbol
BALANCED4 = sorted(set(itertools.permutations((0, 0, 1, 1))))

# every default check of `circlesys run` except readability, whose
# quadratic scan over 131,072-letter stage-3 words does not finish in
# 600 s; scan2 measures that layer instead
GRID3_CHECKS = ["boundary", "cylinder", "distinct", "factor", "names",
                "numerology", "process", "recursion", "requirements",
                "stability", "uniformity"]
# the default checks of a manifest with prewords and no hwords
SCAN2_CHECKS = ["boundary", "cylinder", "numerology", "readability",
                "recursion", "uniformity"]

SMOOTH_GRID = (8, 8)
SMOOTH_EPS = "0.1"
SMOOTH_SAMPLES = 20000
# a uniform permutation of 64 cells has on average 64*63/4 = 1008
# inversions, and the bubble sort in perm_to_swaps emits one swap per
# inversion; fixing the count keeps the work equal across seeds
SMOOTH_INVERSIONS = 1008


def derive_q(k, l):
    q = [1]
    for kn, ln in zip(k, l):
        q.append(kn * ln * q[-1] ** 2)
    return q


def _write_tuples(path, tuples):
    with open(path, "w") as fh:
        for t in tuples:
            fh.write(" ".join(map(str, t)) + "\n")


def _write_params(path, params):
    with open(path, "w") as fh:
        for key in ("k", "l", "s"):
            fh.write("%s = %s\n" % (key, " ".join(map(str, params[key]))))


def _check_stage_words(tuples, arity, symbols, per_symbol=None):
    """Raise ValueError unless the tuples are distinct, of the given
    arity over range(symbols), and (when per_symbol is set) use every
    symbol exactly per_symbol times."""
    if len(set(tuples)) != len(tuples):
        raise ValueError("duplicate words %r" % (tuples,))
    for t in tuples:
        if len(t) != arity or any(not 0 <= c < symbols for c in t):
            raise ValueError("word %r is not a %d-tuple over %d symbols"
                             % (t, arity, symbols))
        if per_symbol is not None and any(t.count(c) != per_symbol
                                          for c in range(symbols)):
            raise ValueError("word %r is not balanced" % (t,))


def _write_manifest(path, params_name, prewords, hwords, checks, cap=None):
    lines = ["params = %s" % params_name]
    if prewords:
        lines.append("prewords = %s" % " ".join(prewords))
    if hwords:
        lines.append("hwords = %s" % " ".join(hwords))
    if checks:
        lines.append("checks = %s" % " ".join(checks))
    if cap is not None:
        lines.append("cap_atoms = %d" % cap)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def grid3_words(seed):
    """Stage 1-3 word lists of grid3: the demo words, then 4 distinct
    permutations of 0 1 2 3 chosen by the seed."""
    rng = random.Random(seed)
    w3 = rng.sample(list(itertools.permutations(range(4))), 4)
    return [WORDS1, WORDS2_VARIANT, w3]


def scan2_words(seed):
    """Stage 1-2 prewords of scan2: the demo stage-1 words, then 4 of
    the 6 balanced 4-tuples over {0, 1} chosen by the seed."""
    rng = random.Random(seed)
    return [WORDS1, sorted(rng.sample(BALANCED4, 4))]


def inversions(perm):
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
               if perm[i] > perm[j])


def smooth_perm(seed):
    """A uniform permutation of the 8x8 cells among those with exactly
    SMOOTH_INVERSIONS inversions (rejection sampling)."""
    rng = random.Random(seed)
    cells = list(range(SMOOTH_GRID[0] * SMOOTH_GRID[1]))
    while True:
        rng.shuffle(cells)
        if inversions(cells) == SMOOTH_INVERSIONS:
            return list(cells)


def _grid_stage_checks(params, stage_words):
    k, s = params["k"], params["s"]
    sizes = [s[0]]                    # words at each preword level
    for n, tuples in enumerate(stage_words):
        _check_stage_words(tuples, k[n], sizes[n], k[n] // sizes[n])
        sizes.append(len(tuples))
        if n + 1 < len(s) and len(tuples) != s[n + 1]:
            raise ValueError("stage %d has %d words, s = %d"
                             % (n + 1, len(tuples), s[n + 1]))


class RunWorkload:
    """A `circlesys run` manifest over seeded word files."""

    def __init__(self, name, why, params, make_words, checks, hwords,
                 list_checks):
        self.name = name
        self.why = why
        self.params = params
        self.make_words = make_words
        self.checks = checks          # the checks the report must hold
        self.hwords = hwords          # the word lists double as h-words
        self.list_checks = list_checks  # else the manifest's defaults run

    def generate(self, seed, directory, cap=None):
        """Write the inputs for `seed`; returns the child argv tail."""
        stage_words = self.make_words(seed)
        _grid_stage_checks(self.params, stage_words)
        _write_params(os.path.join(directory, "run.params"), self.params)
        names = []
        for n, tuples in enumerate(stage_words, 1):
            names.append("words%d.txt" % n)
            _write_tuples(os.path.join(directory, names[-1]), tuples)
        manifest = os.path.join(directory,
                                "manifest.txt" if cap is None else "cap.txt")
        _write_manifest(manifest, "run.params", names,
                        names if self.hwords else [],
                        self.checks if self.list_checks else None, cap)
        return ["manifest", manifest]

    @property
    def atoms(self):
        q = derive_q(self.params["k"], self.params["l"])
        return q[-1] * self.params["s"][-1]

    def expected(self):
        """Check lines whose value the benchmark derives on its own."""
        q = derive_q(self.params["k"], self.params["l"])
        out = {"recursion": "value=q=%s " % ",".join(map(str, q))}
        if self.hwords:
            out["process"] = "value=%d atoms " % self.atoms
        return out

    def validate(self, code, stdout):
        """None when the report is correct, else the reason it is not."""
        if code != 0:
            return "exit %d" % code
        lines = stdout.splitlines()
        parsed = [re.match(r"CHECK (\S+) (\S+) ", ln) for ln in lines]
        seen = [m.group(1) for m in parsed if m]
        if len(seen) != len(lines) or sorted(seen) != sorted(self.checks):
            return "checks reported %r, want %r" % (seen, self.checks)
        for m, ln in zip(parsed, lines):
            if m.group(2) != "PASS":
                return "not passed: " + ln
        by_name = dict(zip(seen, lines))
        for name, fragment in self.expected().items():
            if fragment not in by_name[name]:
                return "%s: %r lacks %r" % (name, by_name[name], fragment)
        return None


class SmoothWorkload:
    """`circlesys smooth realize` on a seeded 8x8 cell permutation."""

    name = "smooth8"

    def __init__(self, why):
        self.why = why

    def generate(self, seed, directory):
        perm = smooth_perm(seed)
        path = os.path.join(directory, "perm.txt")
        with open(path, "w") as fh:
            fh.write(",".join(map(str, perm)) + "\n")
        return ["smooth", path, "--grid", "%dx%d" % SMOOTH_GRID,
                "--eps", SMOOTH_EPS, "--samples", str(SMOOTH_SAMPLES),
                "--seed", str(seed)]

    def validate(self, code, stdout):
        if code != 0:
            return "exit %d" % code
        last = stdout.splitlines()[-1] if stdout else ""
        m = re.match(r"PASS obedient [0-9.]+ \(need [0-9.]+\), (\d+) swaps$",
                     last)
        if not m:
            return "no PASS obedient line: %r" % last
        if int(m.group(1)) != SMOOTH_INVERSIONS:
            return "%s swaps, want %d" % (m.group(1), SMOOTH_INVERSIONS)
        return None


# Why each workload is in the benchmark: which layer does the work and
# which layers it bypasses, so that a change to one layer has a
# workload that exercises it and one on which no change is predicted.
WORKLOADS = {
    "grid3": RunWorkload(
        "grid3",
        "3-stage grid rung, 524,288 atoms: procsim and names do most of "
        "the work; words.parse is never called",
        GRID3_PARAMS, grid3_words, GRID3_CHECKS, hwords=True,
        list_checks=True),
    "scan2": RunWorkload(
        "scan2",
        "2 stages with 4096-letter words: the words.parse readability "
        "scan does most of the work; the grid layers are bypassed",
        SCAN2_PARAMS, scan2_words, SCAN2_CHECKS, hwords=False,
        list_checks=False),
    "smooth8": SmoothWorkload(
        "8x8 smooth realize of a 1008-inversion permutation: smoothreal "
        "does all the work; the exact-arithmetic layers stay idle"),
}

# over-cap probe: grid3 with the cap one atom below its last stage
CAP_PROBE_WORKLOAD = "grid3"
CAP_PROBE_ATOMS = WORKLOADS[CAP_PROBE_WORKLOAD].atoms - 1
CAP_MESSAGE = re.compile("resource cap: stage-3 grid needs %d atoms, cap is %d"
                         % (CAP_PROBE_ATOMS + 1, CAP_PROBE_ATOMS))
