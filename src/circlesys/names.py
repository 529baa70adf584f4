"""Names of tower levels and their symbolic cross-check.

A tower level at stage n is labelled by the base-alphabet strip it came
from, unless it entered a spacer column at some stage m <= n, in which
case it carries that stage's b or e label forever after.  The labels
use the same integer convention as the words module (strips are their
index, spacers are B and E), so a simulated tower name can be compared
letter-for-letter with a circular product of the previous stage's
names.  The two computations share nothing past the parameters: one
reads grid labels, the other multiplies words.  The grid route keeps
each process's labels in its rotation frame, labels o Z, built from the
small h tables (`q_labels`); tower s reads it along `proc.orbit(s)`,
one chunk of levels at a time, into a name array of the label dtype.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, OracleMismatch, ResourceError
from .procsim import refine, rotation_perm, rotation_shift
from .ratarith import chunks, dyn_order, spacer_columns
from .words import B, E, circ

# serialises the first computation of a process's labels across threads
_LABELS_LOCK = threading.Lock()


def label_dtype(s0):
    """Narrowest signed integer dtype holding the labels 0..s0-1, B and E.

    int8 while s0 <= 128; a fixed-width label table must not wrap, so a
    strip count no dtype can hold is refused.
    """
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if info.min <= min(B, E) and s0 - 1 <= info.max:
            return np.dtype(dtype)
    raise ResourceError("%d base strips do not fit a 64-bit label" % s0)


def q_labels(params, h_list, stage, cols, rows):
    """Labels of the stage-n process in its rotation frame, F = labels o Z,
    one `label_dtype(s[0])` entry per atom of the cols x rows stage grid.

    An atom is b/e when its pullback through Z_m lands in a stage-m
    spacer column for some m <= stage, the latest such stage winning;
    other atoms keep their base strip index.  From F_0 = arange(s[0]),
    F_m is F_{m-1} refined to h_m's grid, gathered through h_m, refined
    to the stage-m grid, and then given B and E in the stage-m spacer
    columns.  It rests on two facts: Z_m = lift(Z_{m-1}) lift(h_m)
    (which `compose_stage` keeps factored) with lifts moving sub-atoms rigidly, so off the
    new columns F_m(y) = F_{m-1}(coarse(h_m(y))); and the stage-m marks
    pulled back through Z_m are whole columns.  Each stage's marks are
    computed before its frame, so a stage whose dynamical-order table is
    past int64 is refused before its frame is allocated.
    """
    if (cols, rows, len(h_list)) != (params.q[stage], params.s[stage], stage):
        raise InputError("a %d x %d grid with %d h tables is not stage %d"
                         % (cols, rows, len(h_list), stage))
    frame = np.arange(params.s[0], dtype=label_dtype(params.s[0]))
    for m, h in enumerate(h_list, 1):
        marks = spacer_columns(params, m)
        frame = refine(frame, params.q[m - 1], params.s[m - 1],
                       h.cols, h.rows)[h.table]
        frame = refine(frame, h.cols, h.rows, params.q[m], params.s[m])
        grid = frame.reshape(params.s[m], params.q[m])
        np.copyto(grid, B, where=marks.b_cols)
        np.copyto(grid, E, where=marks.e_cols)
    return frame


def frame_labels(proc):
    """Stage labels of `proc` in its rotation frame (entry y labels atom
    Z(y)), computed by `q_labels` on first use and kept read-only on the
    process, so every name check of one process shares one table."""
    with _LABELS_LOCK:
        if proc.labels is None:
            labels = q_labels(proc.params, proc.h_list, proc.stage,
                              proc.cols, proc.rows)
            labels.flags.writeable = False
            proc.labels = labels
    return proc.labels


def simulate_tower_name(proc, s):
    """Label sequence along tower s of the given process, base to top,
    as an array of the frame's label dtype, gathered chunk by chunk."""
    frame = frame_labels(proc)
    name = np.empty(proc.params.q[proc.stage], dtype=frame.dtype)
    for lo, hi in chunks(0, name.size):
        name[lo:hi] = frame[proc.orbit(s, lo, hi)]
    return name


def u_words(proc, h, s):
    """The k child name-words for strip s of the next-stage relabeling.

    Word j lists, in rotation-orbit order, the stage-n labels of the
    h-images of the strip-s atoms in residue class j of the first-pass
    columns.  These are the tuple entries whose circular product the
    next stage's tower name must reproduce on its interior.

    The labels are the process's own frame (`frame_labels`): h's grid
    refines the process grid and a lifted Z moves sub-atoms rigidly, so
    an h-grid atom carries the frame label of the atom containing it.
    """
    n, params = proc.stage, proc.params
    k, q, p = params.k[n], params.q[n], params.p[n]
    if (h.cols, h.rows) != (k * q, params.s[n + 1]):
        raise InputError("h resolution %dx%d does not fit stage %d"
                         % (h.cols, h.rows, n))
    col = np.arange(k)[:, None] + (np.arange(q) * p % q)[None, :] * k
    frame = refine(frame_labels(proc), proc.cols, proc.rows, h.cols, h.rows)
    return [tuple(word) for word in frame[h.table[s * h.cols + col]].tolist()]


def transect_word(params, n, children):
    """Rebuild the stage-(n+1) word by stepping an interval of width
    1/q[n+1] through its passes, without using the circular product.

    The dynamical order is recovered by walking the stage-n rotation
    orbit; inner letters come from the geometric column the interval
    occupies at each step; the b/e runs follow the pass arithmetic.
    The first pass has no e run, so each child's first copy shows up
    as a full b run.
    """
    k, l, q = params.k[n], params.l[n], params.q[n]
    p = params.p[n]
    p2, q2 = params.p[n + 1], params.q[n + 1]
    children = [tuple(w) for w in children]
    if len(children) != k or any(len(w) != q for w in children):
        raise InputError("need %d children of length %d" % (k, q))

    dynpos = [0] * q                 # steps for the orbit to reach column c
    c = 0
    for step in range(q):
        dynpos[c] = step
        c = (c + p) % q

    out = []
    x = 0                            # interval position, in units of 1/q[n+1]
    block_len = l * q
    for t in range(k * l * q * q):
        m = t // (k * block_len)
        rr = t % block_len
        jm = dynpos[m]
        if rr < q - jm:
            out.append(B)
        elif rr >= block_len - jm:
            out.append(E)
        else:
            a = x // block_len       # occupied column of the k*q grid
            out.append(children[a % k][dynpos[a // k]])
        x = (x + p2) % q2
    return tuple(out)


def crosscheck_tower(proc_next, proc, h, s):
    """Two independent names for tower s at the next stage.

    The grid route simulates the tower and reads labels; the symbolic
    route takes the circular product of the child name-words chosen by
    h_words[s].  They must agree everywhere: on the interior by the
    name computation, on the spacers because both install them from the
    same column arithmetic.  Both names are arrays of the label dtype;
    the symbolic one is built from the child words alone.  Raises
    OracleMismatch with the first differing position and both letters.
    """
    simulated = simulate_tower_name(proc_next, s)
    us = u_words(proc, h, s)
    n, params = proc.stage, proc.params
    symbolic = circ(us, params.k[n], params.l[n], params.q[n],
                    dyn_order(params, n), dtype=simulated.dtype)
    for lo, hi in chunks(0, simulated.size):
        bad = np.flatnonzero(simulated[lo:hi] != symbolic[lo:hi])
        if bad.size:
            i = lo + int(bad[0])
            raise OracleMismatch(
                "tower %d name disagrees at position %d" % (s, i), index=i,
                left=int(simulated[i]), right=int(symbolic[i]))
    return simulated


@dataclass
class StabilityReport:
    matched: int
    atoms: int
    fraction: Fraction
    bound: Fraction         # 1 - 3/l[n]


def name_stability(coarse, fine):
    """Fraction of atoms whose [-q, q] names agree across the two stages.

    Both names read the fine stage's labels along the transforms
    Z R^j Z^-1, Z being the stage's relabeling lifted to the fine grid.
    Counted over y = Zf^-1 x, both read F = labels o Zf (`frame_labels`):
    the fine name is F[R_fine^j y], the coarse one labels[Zc R_coarse^j V y]
    with V = Zc^-1 Zf = lift(h), as `compose_stage` builds Zf = lift(Wf)
    with Wf = lift(Wc) h.  h commutes with the stage-n rotation (it is built
    equivariant), so V does too and the coarse name is F[R_coarse^j y].
    R^j shifts each row by j sf or j sc columns, and sf - sc = p[n+1] -
    p[n] q[n+1]/q[n] = 1 as p[n+1] = p[n] q[n] k[n] l[n] + 1.  So each row
    of F is matched with itself at offsets j sf and j sc, |j| <= q[n].
    Each of these premises is asserted; that Zf is a permutation is
    checked on Wf, its factor on h's own grid.
    """
    params, n = coarse.params, coarse.stage
    if fine.stage != n + 1 or fine.h_list[:-1] != coarse.h_list:
        raise InputError("fine must extend coarse by one stage")
    q = params.q[n]
    cols, rows = fine.cols, fine.rows
    h = fine.h_list[-1]
    assert fine.Z.is_permutation()
    assert h.commutes_with(rotation_perm(params, n, h.cols, h.rows))
    sf = rotation_shift(params, n + 1, cols)
    sc = rotation_shift(params, n, cols)
    assert (sf - sc) % cols == 1
    frame = frame_labels(fine).reshape(rows, cols)
    shifts = [(j * sf % cols, j * sc % cols) for j in range(-q, q + 1)]
    chunk = 1 << 18         # columns per pass, so `ok` stays in cache
    matched = 0
    for row in frame:
        twice = np.tile(row, 2)         # twice[u + a] = row[(u + a) % cols]
        for lo in range(0, cols, chunk):
            hi = min(lo + chunk, cols)
            ok = np.ones(hi - lo, dtype=bool)
            for a, b in shifts:
                ok &= twice[lo + a:hi + a] == twice[lo + b:hi + b]
            matched += int(np.count_nonzero(ok))
    return StabilityReport(matched, fine.atoms, Fraction(matched, fine.atoms),
                           1 - Fraction(3, params.l[n]))


@dataclass
class DistinctReport:
    distinct: bool
    witness: object         # (s, s') with equal names, or None


def distinct_names(proc):
    """Whether all towers of the process carry different names.

    Towers are keyed by a hash of their name, so only one name is held
    at a time; towers with equal keys are compared letter by letter, so
    a collision never reports a duplicate.  The witness is the first
    tower whose name repeats, with the first tower carrying that name.
    """
    seen = {}       # key -> earlier towers with that key, names distinct
    for s in range(proc.params.s[proc.stage]):
        name = simulate_tower_name(proc, s)
        key = hash(name.tobytes())
        for t in seen.get(key, ()):
            if np.array_equal(simulate_tower_name(proc, t), name):
                return DistinctReport(False, (t, s))
        seen.setdefault(key, []).append(s)
    return DistinctReport(True, None)
