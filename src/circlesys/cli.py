"""Command-line interface.

Subcommands mirror the library modules: params, words, seq, proc,
names, factor, smooth, and run (manifest-driven verification suite).
Verification output is line oriented,

    CHECK <name> PASS|FAIL value=<exact-or-float> bound=<...>

with exact rationals printed as a/b.  Exit status: 0 when every check
passes, 1 on any FAIL, 2 on input or parse errors, 3 when a resource
cap is hit.
"""

import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np

from . import consys, factor, names, procsim, smoothreal, stagemap, words
from .errors import (CoherenceError, ConstraintError, InputError,
                     OracleMismatch, ResourceError, ToleranceError)
from .ratarith import (DEFAULT_ATOM_CAP, content_lines, dyn_order,
                       load_params, parse_key_values, read_text)


def frac(x):
    if isinstance(x, Fraction) or isinstance(x, int):
        return str(x)
    return repr(x)


def load_tuples(path):
    """One tuple per line, space-separated indices; # comments."""
    out = []
    for ln, line in content_lines(read_text(path)):
        try:
            out.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError("%s:%d: not an integer tuple" % (path, ln))
    if not out:
        raise InputError("%s: no tuples" % path)
    return out


class Context:
    """Shared state for checks and subcommands, read from the params file
    and the word files; the sequence and processes are built lazily."""

    def __init__(self, params, prewords=(), hwords=(),
                 cap_atoms=DEFAULT_ATOM_CAP, sigma=None):
        self.params = load_params(params)
        self.prewords = [load_tuples(p) for p in prewords]
        self.h_words = [load_tuples(p) for p in hwords]
        self.cap_atoms = cap_atoms
        self.sigma = sigma if sigma is not None else self.params.s[0]
        self._cs = None
        self._procs = None
        self._uniformity = {}
        # checks run on several threads build each property once
        self._lock = threading.Lock()

    @property
    def cs(self):
        with self._lock:
            if self._cs is None:
                if not self.prewords:
                    raise InputError("this operation needs preword files")
                self._cs = consys.build_sequence(self.sigma, self.params,
                                                 self.prewords)
        return self._cs

    @property
    def procs(self):
        """Grid processes for stages 0..len(h_words)."""
        with self._lock:
            if self._procs is None:
                if not self.h_words:
                    raise InputError("this operation needs h-word files")
                self._procs = list(procsim.stages(
                    self.params, self.h_words, self.cap_atoms))
        return self._procs

    def uniformity(self, n):
        """`consys.verify_uniformity` of stage n, built once and shared by
        the `uniformity` and `cylinder` checks."""
        cs = self.cs        # `cs` takes the lock itself, so read it first
        with self._lock:
            if n not in self._uniformity:
                self._uniformity[n] = consys.verify_uniformity(cs, n)
        return self._uniformity[n]


# ---------------------------------------------------------------------------
# checks for the `run` suite


def check_recursion(ctx):
    p, q = ctx.params.p, ctx.params.q
    ok = p[0] == 0 and q[0] == 1
    for n in range(len(ctx.params.k)):
        ok &= p[n + 1] == p[n] * q[n] * ctx.params.k[n] * ctx.params.l[n] + 1
        ok &= q[n + 1] == ctx.params.k[n] * ctx.params.l[n] * q[n] ** 2
        gap = ctx.params.alpha(n + 1) - ctx.params.alpha(n)
        ok &= gap == Fraction(1, q[n + 1])
    return ok, "q=" + ",".join(map(str, q)), "recursive identity, gap 1/q"


def _skipped(skipped):
    """The ` skipped=...` tail of a check value; empty when none was."""
    return " skipped=" + ",".join(skipped) if skipped else ""


def check_numerology(ctx):
    # the q[n] - 1 mirror identities of a stage hold exactly when p[n] is
    # a unit mod q[n] (the `DynOrder` premise), so no table is read
    p, q = ctx.params.p, ctx.params.q
    bound = "q-j_i = j_{q-i}"
    for n in range(1, ctx.params.stages + 1):
        if math.gcd(p[n], q[n]) != 1:
            return False, "stage %d" % n, bound
    return True, str(sum(qn - 1 for qn in q[1:])), bound


def check_readability(ctx):
    # q_{n-1} = 1 (stage 1) gives degenerate spacer patterns with no
    # readability guarantee, so the scan starts where q exceeds 1; as
    # q[0] = 1, stage 1 is always skipped and the tail is never empty
    scanned, skipped = [], []
    bound = "offsets 0,q only"
    for n in range(1, ctx.cs.depth + 1):
        if ctx.params.q[n - 1] == 1:
            skipped.append("%d(q=1)" % n)
            continue
        if not ctx.cs.is_materialized(n):
            skipped.append("%d(lazy)" % n)
            continue
        bad = consys.check_unique_readability(ctx.cs, n)
        if bad:
            return False, "stage %d offset %d" % (n, bad[0][2]), bound
        scanned.append(str(n))
    value = "0 violations scanned=%s" % (",".join(scanned) or "none")
    return True, value + _skipped(skipped), bound


def _stage_stats(ctx, n, w):
    p = ctx.params
    return words.boundary_stats(w, k=p.k[n - 1], l=p.l[n - 1], q=p.q[n - 1],
                                order=dyn_order(p, n - 1))


def check_boundary(ctx):
    # the value is the boundary fraction of the deepest stage checked
    value, skipped = "none", []
    bound = "1/l exactly, near <= 3/l"
    for n in range(1, ctx.cs.depth + 1):
        if not ctx.cs.is_materialized(n):
            skipped.append("%d(lazy)" % n)
            continue
        # the masses are closed forms of (k, l, q); only a word's spacer
        # letters, compared with the layout, can fail
        for i, w in enumerate(ctx.cs.levels[n]):
            try:
                st = _stage_stats(ctx, n, w)
            except InputError as exc:
                return False, "stage %d word %d %s" % (n, i, exc), bound
        value = frac(st.boundary_fraction)
    return True, value + _skipped(skipped), bound


def check_uniformity(ctx):
    bound = "equal counts"
    for n in range(ctx.cs.depth):
        rep = ctx.uniformity(n)
        if not rep.strong:
            return False, "stage %d eps=%s" % (n, frac(rep.eps)), bound
    return True, "f=%s" % frac(rep.f_value), bound


def check_cylinder(ctx):
    # word u's gap at base level n is (max - min of column u of M) / k[n];
    # only the first word over the bound, or else the widest, is measured
    worst = Fraction(0)
    bound = Fraction(0)
    for n in range(ctx.cs.depth):
        rep = ctx.uniformity(n)
        gaps = rep.M.max(0) - rep.M.min(0)
        over = gaps > math.floor(2 * rep.eps * ctx.params.k[n])
        u = int(np.argmax(over if over.any() else gaps))
        est = consys.estimate_cylinder(ctx.cs, u, n, n, rep.eps)
        if not est.within_bound:
            return False, frac(est.gap), "<= " + frac(est.bound)
        worst = max(worst, est.gap)
        bound = max(bound, est.bound)
    return True, frac(worst), "<= " + frac(bound)


def check_process(ctx):
    """The towers partition the grid, and each h commutes with its stage's
    rotation.  Premise: tower s is Z of `orbit(s)`, row s read at the
    columns t p mod q, so as gcd(p, q) = 1 the orbits tile the grid, and
    the towers do exactly when Z is a permutation, that is, when W is."""
    proc = ctx.procs[-1]
    ok = proc.Z.is_permutation()
    for n, h in enumerate(proc.h_list):
        rot = procsim.rotation_perm(ctx.params, n, h.cols, h.rows)
        ok &= h.commutes_with(rot)
    return ok, "%d atoms" % proc.atoms, "towers partition; h rot = rot h"


def check_requirements(ctx):
    rep = procsim.check_requirements(ctx.params, ctx.h_words)
    ok = rep.req1 != "fail" and rep.req2 and rep.req3
    val = "req1=%s req2=%s req3=%s" % (rep.req1, rep.req2, rep.req3)
    if not rep.req2:
        val += " req2_witness=%r" % (rep.req2_witness,)
    if not rep.req3:
        val += " witness=%r" % (rep.req3_witness,)
    return ok, val, "towers distinct, readback exact"


def check_names(ctx):
    procs = ctx.procs
    bound = "simulated = circular product"
    for n in range(1, len(procs)):
        for s in range(ctx.params.s[n]):
            try:
                names.crosscheck_tower(procs[n], procs[n - 1],
                                       procs[n].h_list[n - 1], s)
            except OracleMismatch as exc:
                value = "stage %d tower %d pos %d" % (n, s, exc.index)
                return False, value, bound
    return True, "all towers", bound


def check_stability(ctx):
    """Name stability of the top transition n -> n + 1 against 1 - 3/l[n].

    When l[n] <= 3 that bound is at most 0 and no count can miss it, so
    the stage is named as skipped and nothing is counted.  The skip loses
    no check: what `name_stability` asserts besides its count, that Z is
    a permutation and that h commutes with the stage-n rotation, is what
    `process` checks, and sf - sc = 1 follows from the recursion
    p[n+1] = p[n] q[n] k[n] l[n] + 1 that `recursion` checks.
    """
    procs = ctx.procs
    n = len(procs) - 2
    bound = names.stability_bound(ctx.params, n)
    if bound <= 0:
        return True, "none skipped=%d(l<=3)" % (n + 1), ">= " + frac(bound)
    rep = names.name_stability(procs[-2], procs[-1])
    return rep.fraction >= bound, frac(rep.fraction), ">= " + frac(bound)


def check_distinct(ctx):
    rep = names.distinct_names(ctx.procs[-1])
    val = "distinct" if rep.distinct else "duplicate %s,%s" % rep.witness
    return rep.distinct, val, "pairwise distinct tower names"


def check_factor(ctx):
    # rho_trace validates gap ranges and the d_index round-trip itself
    depth = min(2, ctx.params.stages)
    bound = "rho monotone, gaps < 1/q_n"
    count = 0
    for pt in factor.enumerate_coherent(ctx.params, depth):
        try:
            factor.rho_trace(pt)
        except CoherenceError as exc:
            return False, "offsets %s: %s" % (pt.offsets, exc), bound
        count += 1
    skipped = ["%d(depth>2)" % n
               for n in range(depth + 1, ctx.params.stages + 1)]
    return True, "%d points" % count + _skipped(skipped), bound


CHECK_FUNCS = {
    "recursion": check_recursion,
    "numerology": check_numerology,
    "readability": check_readability,
    "boundary": check_boundary,
    "uniformity": check_uniformity,
    "cylinder": check_cylinder,
    "process": check_process,
    "requirements": check_requirements,
    "names": check_names,
    "stability": check_stability,
    "distinct": check_distinct,
    "factor": check_factor,
}


# the checks `run` adds for preword and for h-word files
PREWORD_CHECKS = ["readability", "boundary", "uniformity", "cylinder"]
HWORD_CHECKS = ["process", "requirements", "names", "stability", "distinct",
                "factor"]

# subcommand actions that only print checks: (command, action) -> checks
ACTION_CHECKS = {
    ("seq", "verify"): ["readability", "boundary"],
    ("seq", "measure"): ["uniformity", "cylinder"],
    ("proc", "reqs"): ["requirements", "process"],
    ("names", "stability"): ["stability"],
    ("names", "distinct"): ["distinct"],
}

# flags that only some actions of a subcommand read, with their defaults:
# command -> action -> {dest: default}.  `build_parser` adds each as
# --dest, an int flag for an int default and a repeated one for (), and
# leaves it None, so a flag given to an action that does not read it is
# refused.
ACTION_FLAGS = {
    "words": {"decode": {"pos": 0, "index": 0}, "stats": {"index": 0},
              "build": {"range": None}, "parse": {"text": ""}},
    "seq": {"s-window": {"window": "", "origin": 0}},
    "names": {"tower": {"index": 0}},
    "factor": {"pi": {"width": 8}},
    "smooth": {"stage": {"params": None, "hwords": ()},
               "swap": {"grid": "2x2", "k": 0},
               "realize": {"grid": "2x2", "perm": None}},
}

# the least value of each integer input, a manifest key or a flag
LEAST = {"cap_atoms": 1, "sigma": 1, "jobs": 1, "samples": 1, "seed": 0,
         "width": 0}


def _at_least(name, key, value):
    """`value` of input `key`, named `name`, refused below LEAST[key]."""
    least = LEAST[key]
    if value < least:
        raise InputError("%s must be %s, got %d" % (
            name, "at least %d" % least if least else "non-negative", value))
    return value


def _check_flags(args):
    """Refuse the flags of sibling actions and integers below their least
    values; default the action's own flags."""
    actions = ACTION_FLAGS.get(args.command, {})
    own = actions.get(vars(args).get("action"), {})
    refused = sorted({dest for flags in actions.values() for dest in flags
                      if dest not in own and getattr(args, dest) is not None})
    if refused:
        raise InputError("%s %s does not read %s" % (
            args.command, args.action,
            ", ".join("--" + dest for dest in refused)))
    for dest, default in own.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    for key in LEAST:
        if vars(args).get(key) is not None:
            _at_least("--" + key.replace("_", "-"), key, getattr(args, key))


def _check_line(name, ok, value, bound):
    """The verdict line of one check, as the module docstring gives it."""
    return "CHECK %s %s value=%s bound=%s" % (
        name, "PASS" if ok else "FAIL", value, bound)


def known_checks(checks, source=None):
    """`checks` sorted by name; InputError, naming `source` if given,
    for an unknown check or one named twice."""
    checks = sorted(checks)
    where = "" if source is None else source + ": "
    for i, name in enumerate(checks):
        if name not in CHECK_FUNCS:
            raise InputError("%sunknown check %r" % (where, name))
        if name in checks[i + 1:i + 2]:
            raise InputError("%sduplicate check %r" % (where, name))
    return checks


def run_checks(ctx, checks, jobs=1):
    """Returns (lines, all_passed); lines sorted by check name.
    InputError for an unknown check or one named twice."""
    checks = known_checks(checks)

    def one(name):
        ok, value, bound = CHECK_FUNCS[name](ctx)
        return _check_line(name, ok, value, bound), ok

    if jobs > 1:
        import concurrent.futures
        for module in (consys, factor, names, procsim, words):
            module.__name__     # reading any attribute executes it
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(one, checks))
    else:
        results = [one(name) for name in checks]
    lines = [line for line, _ in results]
    return lines, all(ok for _, ok in results)


# ---------------------------------------------------------------------------
# manifests


class RunManifest:
    # `seed` is accepted for old manifests and checked, but `run` is
    # deterministic and reads no seed
    KEYS = ("params", "prewords", "hwords", "checks", "seed", "cap_atoms",
            "out", "sigma", "jobs")

    def __init__(self, path):
        base = os.path.dirname(os.path.abspath(path))
        seen = parse_key_values(read_text(path), self.KEYS,
                                required=("params",), source=path)

        def rel(p):
            return p if os.path.isabs(p) else os.path.join(base, p)

        def integer(key, default=None):
            """The value of `key`, held to LEAST even if nothing reads it."""
            if key not in seen:
                return default
            try:
                value = int(seen[key])
            except ValueError:
                raise InputError("%s: %s must be an integer, got %r"
                                 % (path, key, seen[key]))
            return _at_least("%s: %s" % (path, key), key, value)

        self.params_path = rel(seen["params"])
        self.preword_paths = [rel(p) for p in seen.get("prewords", "").split()]
        self.hword_paths = [rel(p) for p in seen.get("hwords", "").split()]
        self.checks = seen.get("checks", "").split() or None
        if self.checks:
            known_checks(self.checks, path)
        integer("seed")
        self.cap_atoms = integer("cap_atoms", DEFAULT_ATOM_CAP)
        self.out = rel(seen["out"]) if "out" in seen else None
        self.sigma = integer("sigma")
        self.jobs = integer("jobs", 1)

    def context(self):
        return Context(self.params_path, self.preword_paths,
                       self.hword_paths, self.cap_atoms, self.sigma)

    def default_checks(self):
        out = ["recursion", "numerology"]
        if self.preword_paths:
            out += PREWORD_CHECKS
        if self.hword_paths:
            out += HWORD_CHECKS
        return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(args, out):
    params = load_params(args.params)
    for key in ("k", "l", "s", "p", "q"):
        values = getattr(params, key)
        out.write("%s = %s\n" % (key, " ".join(map(str, values))))
    out.write("alpha = %s\n" % " ".join(frac(params.alpha(n))
                                        for n in range(len(params.q))))
    return 0


def _context_from_args(args):
    keys = ("params", "prewords", "hwords", "cap_atoms", "sigma")
    return Context(**{k: v for k, v in vars(args).items() if k in keys})


def _parse_range(text):
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InputError("range must be LO:HI, got %r" % text)


def _level(ctx, stage, first):
    """The words of construction stage `stage`, refused outside
    [first, depth]."""
    if not first <= stage <= ctx.cs.depth:
        raise InputError("stage %d out of range [%d, %d]"
                         % (stage, first, ctx.cs.depth))
    return ctx.cs.levels[stage]


def _stage_word(ctx, stage, index):
    """Word `index` of construction stage `stage` (1..depth)."""
    level = _level(ctx, stage, 1)
    if not 0 <= index < len(level):
        raise InputError("index %d out of range [0, %d)" % (index, len(level)))
    return level[index]


def cmd_words(args, out):
    ctx = _context_from_args(args)
    if args.action == "build":  # positions lo..hi of each word, one a line
        rng = _parse_range(args.range) if args.range else None
        level = _level(ctx, args.stage, 1)
        total = len(level[0])
        lo, hi = rng or (0, total)
        if not 0 <= lo <= hi <= total:
            raise InputError("range [%d, %d) outside word length %d"
                             % (lo, hi, total))
        for w in level:
            toks = ([w[m] for m in range(lo, hi)]
                    if isinstance(w, words.LazyCircularWord) else w[lo:hi])
            out.write(words.word_to_text(toks) + "\n")
    elif args.action == "decode":
        w = _stage_word(ctx, args.stage, args.index)
        if not isinstance(w, words.LazyCircularWord):
            p, n = ctx.params, args.stage - 1
            children = [ctx.cs.levels[n][c]
                        for c in ctx.cs.prewords[n][args.index]]
            w = words.LazyCircularWord(children, p.k[n], p.l[n], p.q[n],
                                       dyn_order(p, n))
        pos = words.decode_position(w, args.pos)
        out.write("letter = %s\n" % words.word_to_text((w[args.pos],)))
        out.write("position = %r\n" % (pos,))
    elif args.action == "parse":
        level = _level(ctx, args.stage, 0)
        if not ctx.cs.is_materialized(args.stage):
            raise InputError("stage %d words have %d letters, past the word "
                             "cap %d" % (args.stage, len(level[0]),
                                         consys.DEFAULT_WORD_CAP))
        hits = words.parse(words.text_to_word(args.text), level)
        for off, wi in hits:
            out.write("offset=%d word=%d\n" % (off, wi))
        if not hits:
            out.write("no occurrences\n")
    elif args.action == "stats":
        st = _stage_stats(ctx, args.stage,
                          _stage_word(ctx, args.stage, args.index))
        out.write("boundary = %s\n" % frac(st.boundary_fraction))
        out.write("near = %s\n" % frac(st.near_fraction))
    return 0


def cmd_seq(args, out):
    ctx = _context_from_args(args)
    if args.action == "build":
        for n in range(ctx.cs.depth + 1):
            lv = ctx.cs.levels[n]
            out.write("stage %d: %d words of length %d\n"
                      % (n, len(lv), len(lv[0])))
        return 0
    window = words.text_to_word(args.window)  # s-window
    cert = consys.in_S_window(window, ctx.cs, args.origin)
    if cert.failed_stage is not None:
        out.write("REFUSED at stage %d\n" % cert.failed_stage)
        return 1
    for m in sorted(cert.witnesses):
        out.write("stage %d: a=%d b=%d\n" % ((m,) + cert.witnesses[m]))
    return 0


def cmd_proc(args, out):
    ctx = _context_from_args(args)
    proc = ctx.procs[-1]
    if args.action == "build":
        out.write("stage %d: %d x %d grid, %d atoms, %d towers\n"
                  % (proc.stage, proc.cols, proc.rows, proc.atoms,
                     ctx.params.s[proc.stage]))
        return 0
    if args.action == "towers":
        for s in range(ctx.params.s[proc.stage]):
            out.write("tower %d: %s\n"
                      % (s, " ".join(map(str, proc.tower(s)))))
        return 0
    rep = procsim.eps_approx(ctx.procs[-2], proc)  # eps
    out.write(_check_line("eps-approx", rep.subordinate, frac(rep.eps),
                          "subordinate off deleted set") + "\n")
    return 0 if rep.subordinate else 1


def cmd_names(args, out):
    ctx = _context_from_args(args)
    if args.action == "tower":
        name = names.simulate_tower_name(ctx.procs[-1], args.index)
        out.write(words.word_to_text(name.tolist()) + "\n")
        return 0
    proc, prev = ctx.procs[-1], ctx.procs[-2]  # crosscheck
    for s in range(ctx.params.s[proc.stage]):
        name = names.simulate_tower_name(proc, s)
        out.write(words.word_to_text(name.tolist()) + "\n")
        try:
            names.crosscheck_tower(proc, prev, proc.h_list[-1], s, name)
        except OracleMismatch as exc:
            out.write("ORACLE-MATCH: no (tower %d, position %d)\n"
                      % (s, exc.index))
            return 1
    out.write("ORACLE-MATCH: yes\n")
    return 0


def cmd_factor(args, out):
    params = load_params(args.params)
    try:
        offsets = tuple(int(t) for t in args.point.split(","))
    except ValueError:
        raise InputError("point must be comma-separated integers: %r"
                         % args.point)
    pt = factor.SymbolicPoint(params, offsets)
    if args.action == "rho":
        tr = factor.rho_trace(pt)
        out.write("rho = %s\n" % " ".join(frac(r) for r in tr.rhos))
        out.write("gaps = %s\n" % " ".join(frac(g) for g in tr.gaps))
        return 0
    if args.action == "shift":
        res = factor.shift_point(pt)
        if isinstance(res, factor.BoundaryCrossing):
            out.write("boundary crossing at stage %d\n" % res.stage)
        else:
            out.write("point = %s\n" % ",".join(map(str, res.offsets)))
        return 0
    n = len(pt.offsets) - 1  # pi
    skel = factor.skeleton(params, n)
    lo = max(0, pt.offsets[n] - args.width)
    hi = min(params.q[n], pt.offsets[n] + args.width)
    window = tuple(skel[m] for m in range(lo, hi))
    out.write(words.word_to_text(factor.collapse_pi(window)) + "\n")
    return 0


def _obedient_line(ok, fraction, eps, tail=""):
    """The verdict on a sampled obedient fraction, which needs 1 - eps."""
    return "%s obedient %.4f (need %.4f)%s" % (
        "PASS" if ok else "FAIL", fraction, 1 - eps, tail)


def _obedience_table(sigma, drawn, obeyed, out):
    for cell, (ok, count) in enumerate(zip(obeyed, drawn)):
        out.write("rect %2d -> %2d obedient %s\n"
                  % (cell, sigma[cell], "%.4f" % (ok / count) if count
                     else "n/a (0 samples)"))
    return sum(obeyed) / sum(drawn)


def cmd_smooth(args, out):
    smoothreal.check_smooth_samples("smooth " + args.action, args.samples)
    # swap's eps is its StandardSwap delta, which must stay below 1/2
    top = 0.5 if args.action == "swap" else 1.0
    if not 0 < args.eps < top:
        raise InputError("smooth %s needs --eps in (0, %g), got %r"
                         % (args.action, top, args.eps))
    if args.action == "stage":
        if args.params is None or not args.hwords:
            raise InputError("smooth stage needs --params and --hwords")
        ctx = _context_from_args(args)
        grids = []
        for n, h_words in enumerate(ctx.h_words):
            procsim.check_h_cap(ctx.params, n, ctx.cap_atoms)
            grids.append(procsim.h_from_words(ctx.params, n, h_words))
        try:
            _, reports = stagemap.stage_map(
                ctx.params, grids, args.eps, seed=args.seed,
                samples=args.samples)
        except ToleranceError as exc:
            stage = "" if exc.stage is None else ", stage %d" % exc.stage
            out.write(_obedient_line(False, 1 - exc.achieved, args.eps, stage)
                      + "\n")
            return 1
        for n, rep in enumerate(reports):
            out.write("stage %d obedient %.4f (%d swaps)\n"
                      % (n + 1, rep.obedient, len(rep.swaps)))
        out.write("PASS\n")
        return 0
    grid = _parse_grid(args.grid)
    smoothreal.check_smooth_cells("smooth %s grid" % args.action, grid)
    tail = ""
    if args.action == "swap":
        plane = smoothreal.CellSchedule(grid, [[args.k]], args.eps)
        sigma = list(range(grid[0] * grid[1]))
        sigma[args.k], sigma[args.k + 1] = sigma[args.k + 1], sigma[args.k]
        counts = smoothreal.obedience(
            plane, sigma, np.random.default_rng(args.seed), args.samples)
    else:  # realize
        if args.perm is None:
            # realize_perm samples from default_rng(seed); the
            # permutation comes from a child stream, independent of it
            rng = np.random.default_rng(
                np.random.SeedSequence(args.seed).spawn(1)[0])
            sigma = rng.permutation(grid[0] * grid[1]).tolist()
        else:
            try:
                sigma = [int(v) for v in args.perm.split(",")]
            except ValueError:
                raise InputError("--perm must be comma-separated integers, "
                                 "got %r" % args.perm)
        rep = smoothreal.realize_perm(sigma, grid, args.eps, seed=args.seed,
                                      samples=args.samples)
        counts, tail = (rep.drawn, rep.obeyed), ", %d swaps" % len(rep.swaps)
    frac_ok = _obedience_table(sigma, *counts, out)
    ok = frac_ok >= 1 - args.eps
    out.write(_obedient_line(ok, frac_ok, args.eps, tail) + "\n")
    return 0 if ok else 1


def _parse_grid(text):
    try:
        m, n = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise InputError("grid must be MxN, got %r" % text)
    if m < 1 or n < 1:
        raise InputError("grid must be at least 1x1, got %r" % text)
    return m, n


def cmd_run(args, out):
    manifest = RunManifest(args.manifest)
    checks = manifest.checks or manifest.default_checks()
    lines, ok = run_checks(manifest.context(), checks, jobs=manifest.jobs)
    report = "\n".join(lines) + "\n"
    out.write(report)
    if manifest.out:
        os.makedirs(manifest.out, exist_ok=True)
        with open(os.path.join(manifest.out, "report.txt"), "w") as fh:
            fh.write(report)
    return 0 if ok else 1


def build_parser():
    import argparse     # only command-line parsing loads it

    top = argparse.ArgumentParser(prog="circlesys")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, *actions, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if actions:
            p.add_argument("action", choices=actions)
        return p

    def inputs(p, files):
        """--params and the word files `files`, each with the flag that
        shapes what is built from them."""
        p.add_argument("--params", required=True)
        p.add_argument("--" + files, action="append", default=[])
        if files == "prewords":
            p.add_argument("--sigma", type=int)
        else:
            p.add_argument("--cap-atoms", type=int, default=DEFAULT_ATOM_CAP)

    command("params", cmd_params,
            help="derive p, q, alpha from a file").add_argument("params")
    p = command("words", cmd_words, "build", "decode", "parse", "stats")
    inputs(p, "prewords")
    p.add_argument("--stage", type=int, required=True)
    inputs(command("seq", cmd_seq, "build", "verify", "measure", "s-window"),
           "prewords")
    inputs(command("proc", cmd_proc, "build", "towers", "eps", "reqs"),
           "hwords")
    inputs(command("names", cmd_names, "tower", "crosscheck", "stability",
                   "distinct"), "hwords")
    p = command("factor", cmd_factor, "rho", "shift", "pi")
    p.add_argument("--params", required=True)
    p.add_argument("--point", required=True)
    p = command("smooth", cmd_smooth, "swap", "realize", "stage")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    command("run", cmd_run).add_argument("manifest")
    for name, actions in ACTION_FLAGS.items():
        flags = {}
        for own in actions.values():
            flags.update(own)
        for dest, default in flags.items():
            sub.choices[name].add_argument("--" + dest, **(
                {"action": "append"} if default == ()
                else {"type": int} if isinstance(default, int) else {}))
    return top


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        checks = ACTION_CHECKS.get((args.command, vars(args).get("action")))
        if checks:
            lines, ok = run_checks(_context_from_args(args), checks)
            out.write("\n".join(lines) + "\n")
            return 0 if ok else 1
        return args.handler(args, out)
    except (InputError, ConstraintError, CoherenceError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ToleranceError, OracleMismatch) as exc:
        print("FAIL: %s" % exc, file=sys.stderr)
        return 1
    except ResourceError as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
