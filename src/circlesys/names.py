"""Names of tower levels and their symbolic cross-check.

A tower level at stage n is labelled by the base-alphabet strip it came
from, unless it entered a spacer column at some stage m <= n, in which
case it carries that stage's b or e label forever after.  The labels
use the same integer convention as the words module (strips are their
index, spacers are B and E), so a simulated tower name can be compared
letter-for-letter with a circular product of the previous stage's
names.  The two computations share nothing past the parameters: one
reads grid labels, the other multiplies words.  The grid route keeps
each process's labels o Z as `FrameRuns`, column runs that all rows
share (`q_labels`); tower s reads row s along `proc.orbit(s)`.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratarith
from .errors import InputError, OracleMismatch, ResourceError
from .procsim import containing_atom, rotation_perm, rotation_shift
from .ratarith import FrameRuns, chunks, dyn_order, spacer_columns
from .words import circ, label_dtype

# serialises the first computation of a process's labels across threads
_LABELS_LOCK = threading.Lock()


def q_labels(params, h_list, stage, cols, rows):
    """Labels of the stage-n process in its rotation frame, F = labels o Z,
    as `FrameRuns` of `label_dtype(s[0])` over the cols x rows stage grid.

    An atom is b/e when its pullback through Z_m lands in a stage-m
    spacer column for some m <= stage, the latest such stage winning;
    other atoms keep their base strip index.  From F_0 = arange(s[0]),
    F_m is F_{m-1} refined to h_m's grid, gathered through h_m, refined
    to the stage-m grid, and then given B and E in the stage-m spacer
    columns.  It rests on two facts: Z_m = lift(Z_{m-1}) lift(h_m)
    (which `compose_stage` keeps factored) with lifts moving sub-atoms
    rigidly, so off the new columns F_m(y) = F_{m-1}(coarse(h_m(y))); and
    the stage-m marks pulled back through Z_m are whole columns.  So the
    gather runs on h_m's own small grid, whose column runs refine by
    scaling their breakpoints; the mark runs go on top, and a piece equal
    to its predecessor in every row is merged into it.
    """
    if (cols, rows, len(h_list)) != (params.q[stage], params.s[stage], stage):
        raise InputError("a %d x %d grid with %d h tables is not stage %d"
                         % (cols, rows, len(h_list), stage))
    dtype = label_dtype(params.s[0])
    frame = FrameRuns(1, np.zeros(1, dtype=np.int64),
                      np.arange(params.s[0], dtype=dtype).reshape(-1, 1))
    for m, h in enumerate(h_list, 1):
        marks = spacer_columns(params, m)
        q0, s0 = params.q[m - 1], params.s[m - 1]
        grid = frame.at(containing_atom(h.table, h.cols, h.rows, q0, s0)
                        ).reshape(h.rows, h.cols)
        cuts = np.flatnonzero(np.append(True, np.any(
            grid[:, 1:] != grid[:, :-1], axis=0)))
        scaled = cuts * (params.q[m] // h.cols)
        # a start in both lists repeats; `keep` drops the repeat
        starts = np.sort(np.concatenate([scaled, marks.starts]))
        kind = marks.at(starts)
        base = grid[:, cuts[np.searchsorted(scaled, starts, "right") - 1]]
        letters = np.where(kind == 0, base, kind).astype(dtype)
        keep = np.append(True, np.any(letters[:, 1:] != letters[:, :-1],
                                      axis=0))
        frame = FrameRuns(params.q[m], starts[keep], letters[:, keep])
    return frame


def frame_labels(proc):
    """Stage labels of `proc` in its rotation frame (entry y labels atom
    Z(y)), computed by `q_labels` on first use and kept read-only on the
    process, so every name check of one process shares one frame."""
    with _LABELS_LOCK:
        if proc.labels is None:
            labels = q_labels(proc.params, proc.h_list, proc.stage,
                              proc.cols, proc.rows)
            labels.starts.flags.writeable = False
            labels.letters.flags.writeable = False
            proc.labels = labels
    return proc.labels


def simulate_tower_name(proc, s):
    """Label sequence along tower s of the given process, base to top,
    as an array of the frame's label dtype: the tower's frame row (level
    0 is its column 0) read along the orbit chunk by chunk."""
    base = int(proc.orbit(s, 0, 1)[0])
    row = frame_labels(proc).row(base // proc.cols)
    name = np.empty(proc.params.q[proc.stage], dtype=row.dtype)
    for lo, hi in chunks(0, name.size):
        name[lo:hi] = row[proc.orbit(s, lo, hi) - base]
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
    k, q = params.k[n], params.q[n]
    if (h.cols, h.rows) != (k * q, params.s[n + 1]):
        raise InputError("h resolution %dx%d does not fit stage %d"
                         % (h.cols, h.rows, n))
    col = np.arange(k)[:, None] + proc.orbit(0)[None, :] * k
    atom = containing_atom(h.table[s * h.cols + col], h.cols, h.rows,
                           proc.cols, proc.rows)
    return [tuple(word) for word in frame_labels(proc).at(atom).tolist()]


def crosscheck_tower(proc_next, proc, h, s, simulated=None):
    """Two independent names for tower s at the next stage.

    The grid route simulates the tower and reads labels; the symbolic
    route takes the circular product of the child name-words chosen by
    h_words[s].  They must agree everywhere: on the interior by the
    name computation, on the spacers because both install them from the
    same column arithmetic.  Both names are arrays of the label dtype;
    the symbolic one is built from the child words alone.  A caller that
    has already simulated the tower passes its name as `simulated`.
    Raises OracleMismatch with the first differing position and both
    letters; returns the simulated name.
    """
    if simulated is None:
        simulated = simulate_tower_name(proc_next, s)
    us = u_words(proc, h, s)
    n, params = proc.stage, proc.params
    symbolic = circ(us, params.k[n], params.l[n], params.q[n],
                    dyn_order(params, n), np.empty_like(simulated))
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
    bound: Fraction         # stability_bound(params, n)


def stability_bound(params, n):
    """1 - 3/l[n], the least fraction of atoms whose names agree across
    the transition n -> n + 1."""
    return 1 - Fraction(3, params.l[n])


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

    On F's runs, with w = u + j sc, shift j > 0 fails at u when row[w] !=
    row[w + j], and shift -j at u = w + j + j sc: a step function of w,
    stepping at the run starts and at the run starts minus j.  Per row,
    the matched atoms are cols minus the length of the union of these
    unequal intervals, merged by sort and sweep (Klee 1977).  The
    intervals are packed in int64 keys (`_LENGTH`), so a fine stage of
    more than 2**31 columns raises ResourceError before anything is built.
    """
    params, n = coarse.params, coarse.stage
    if fine.stage != n + 1 or fine.h_list[:-1] != coarse.h_list:
        raise InputError("fine must extend coarse by one stage")
    cols, rows = fine.cols, fine.rows
    if cols > _MAX_COLS:
        raise ResourceError("stage-%d name stability needs %d columns, "
                            "interval-key limit is %d"
                            % (n + 1, cols, _MAX_COLS))
    q = params.q[n]
    h = fine.h_list[-1]
    assert fine.Z.is_permutation()
    assert h.commutes_with(rotation_perm(params, n, h.cols, h.rows))
    sf = rotation_shift(params, n + 1, cols)
    sc = rotation_shift(params, n, cols)
    assert (sf - sc) % cols == 1
    frame = frame_labels(fine)
    starts, letters, pieces = frame.starts, frame.letters, frame.starts.size
    # disjoint unequal intervals of each row, then of all rows at once;
    # a pass holds about 8 arrays of 2 entries per piece and shift
    bad = [np.empty(0, dtype=np.int64)] * (rows + 1)
    per = max(1, ratarith.CHUNK // (16 * pieces))
    for j0 in range(1, q + 1, per):
        if bad[-1][:2].tolist() == [cols]:      # every atom is unmatched
            break
        j = np.arange(j0, min(j0 + per, q + 1), dtype=np.int64)[:, None]
        # per shift, the run starts merged with the run starts minus j;
        # the low bit marks the shifted ones, which sort after
        w = np.concatenate([np.broadcast_to(2 * starts, (j.size, pieces)),
                            (starts - j) % cols * 2 + 1], axis=1)
        w.sort(axis=1)
        shifted = w & 1
        w >>= 1
        a = np.cumsum(1 - shifted, axis=1) - 1              # piece of w
        b = (np.cumsum(shifted, axis=1) - 1                 # piece of w + j
             + np.searchsorted(starts, j)) % pieces
        length = np.diff(w, axis=1, append=cols)
        step = (length > 0) & (a != b)
        j = np.broadcast_to(j, w.shape)[step]
        w, length, a, b = w[step], length[step], a[step], b[step]
        unequal = letters[:, a] != letters[:, b]
        every = unequal.all(axis=0)
        for r, mask in enumerate(list(unequal & ~every) + [every]):
            if mask.any():
                lo = np.concatenate([w[mask] - j[mask] * sc,
                                     w[mask] + j[mask] * (sc + 1)]) % cols
                bad[r] = _union(bad[r], lo, np.tile(length[mask], 2), cols)
    unmatched = sum(int(np.sum(_union(bad[-1], keys >> 32, keys & _LENGTH,
                                      cols) & _LENGTH)) for keys in bad[:-1])
    matched = fine.atoms - unmatched
    return StabilityReport(matched, fine.atoms, Fraction(matched, fine.atoms),
                           stability_bound(params, n))


# an interval [lo, lo + length) of a row is the key lo << 32 | length,
# exact in int64 while lo < cols <= 2**31 and length <= cols < 2**32;
# `name_stability` refuses a wider stage before it allocates
_LENGTH = (1 << 32) - 1
_MAX_COLS = 1 << 31


def _union(keys, lo, length, cols):
    """Keys of the disjoint intervals covering `keys` and the arcs [lo, lo +
    length) of a circle of cols columns, split at column 0: sorted by
    start, an interval opens past the running maximum of the ends."""
    over = lo + length - cols
    keys = np.sort(np.concatenate([keys, lo << 32 | (length - np.maximum(
        over, 0)), over[over > 0]]))
    lo = keys >> 32
    hi = np.maximum.accumulate(lo + (keys & _LENGTH))    # running max of ends
    first = np.flatnonzero(lo > np.r_[-1, hi[:-1]])
    return lo[first] << 32 | (np.maximum.reduceat(hi, first) - lo[first])


@dataclass
class DistinctReport:
    distinct: bool
    witness: object         # (s, s') with equal names, or None


def distinct_names(proc):
    """Whether all towers of the process carry different names.

    Premise: tower s reads row s of the frame (`frame_labels`) at the
    columns t p mod q, t < q, one bijection for every row as gcd(p, q) =
    1.  So two towers share a name exactly when their frame rows, hence
    their rows of the letter table (the runs are shared), are equal.
    The witness is the first tower whose name repeats, with the first
    tower carrying that name.
    """
    first = {}
    for s, row in enumerate(frame_labels(proc).letters):
        t = first.setdefault(row.tobytes(), s)
        if t != s:
            return DistinctReport(False, (t, s))
    return DistinctReport(True, None)
