"""Periodic processes on a rectangular grid of atoms.

The unit square is cut into cols x rows congruent atoms (columns index
the x direction).  A stage-n process carries the composed relabeling
Z_n = h_1 ... h_n, a permutation of the stage-n grid, together with
the rotation by p[n]/q[n]; tower s is the Z_n-image of the rotation
orbit of one first-column atom.  Z_n is kept factored as the lift of a
permutation of h_n's own small grid and is applied to indices on demand.

Atoms are indexed idx = s * cols + u for column u and row s.
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import ConstraintError, InputError, ResourceError
from .ratarith import DEFAULT_ATOM_CAP, chunks, spacer_columns


class GridPermutation:
    """Permutation of grid atoms, as the table of atom images."""

    def __init__(self, cols, rows, table):
        self.cols = cols
        self.rows = rows
        self.table = np.asarray(table, dtype=np.int64)
        if self.table.shape != (cols * rows,):
            raise InputError("table size %d does not match %d x %d grid"
                             % (self.table.size, cols, rows))

    @classmethod
    def identity(cls, cols, rows):
        return cls(cols, rows, np.arange(cols * rows, dtype=np.int64))

    def compose(self, other):
        """(self . other)(x) = self(other(x))."""
        if (self.cols, self.rows) != (other.cols, other.rows):
            raise InputError("resolution mismatch in composition")
        return GridPermutation(self.cols, self.rows, self.table[other.table])

    def inverse(self):
        inv = np.empty_like(self.table)
        inv[self.table] = np.arange(self.table.size, dtype=np.int64)
        return GridPermutation(self.cols, self.rows, inv)

    def lift(self, cols, rows):
        """Refine to a finer grid, moving each sub-atom rigidly: sub-atom
        (dr, dc) of atom a lands at offset (dr, dc) in the image of a.
        The table is `LiftedPermutation` applied to every index."""
        lifted = LiftedPermutation(self, cols, rows)
        return GridPermutation(cols, rows, lifted.apply(
            np.arange(cols * rows, dtype=np.int64)))

    def commutes_with(self, other):
        """Whether self . other == other . self."""
        return self.compose(other) == other.compose(self)

    def is_permutation(self):
        """Whether every atom is hit once; entries outside [0, size) fail."""
        size = self.table.size
        if size and (self.table.min() < 0 or self.table.max() >= size):
            return False
        hit = np.zeros(size, dtype=bool)
        hit[self.table] = True
        return bool(hit.all())

    def __eq__(self, other):
        return (isinstance(other, GridPermutation)
                and self.cols == other.cols and self.rows == other.rows
                and np.array_equal(self.table, other.table))


class LiftedPermutation:
    """`base.lift(cols, rows)` applied to indices without building it.

    A lift moves the block of sub-atoms of each base atom rigidly onto
    the block of its image, so every index in the block moves by the
    same amount: apply finds each index's base atom and adds that
    atom's displacement, a table of base size.  Indices go through in
    `ratarith.chunks`, so only the output is full-size.
    """

    def __init__(self, base, cols, rows):
        if cols % base.cols or rows % base.rows:
            raise InputError("%d x %d does not refine %d x %d"
                             % (cols, rows, base.cols, base.rows))
        self.base = base
        self.cols = cols
        self.rows = rows
        band = cols * (rows // base.rows)       # indices per base row
        a = np.arange(base.table.size, dtype=np.int64)
        self._shift = ((base.table // base.cols - a // base.cols) * band
                       + (base.table % base.cols - a % base.cols)
                       * (cols // base.cols))

    def apply(self, i):
        src = np.asarray(i, dtype=np.int64)
        out = np.empty(src.shape, dtype=np.int64)
        src, dst = src.reshape(-1), out.reshape(-1)
        for lo, hi in chunks(0, src.size):
            chunk = src[lo:hi]
            atom = containing_atom(chunk, self.cols, self.rows,
                                   self.base.cols, self.base.rows)
            np.add(chunk, self._shift[atom], out=dst[lo:hi])
        return out

    def is_permutation(self):
        """A lift is a permutation exactly when its base is."""
        return self.base.is_permutation()


def containing_atom(i, cols, rows, coarse_cols, coarse_rows):
    """Index on a coarse_cols x coarse_rows grid of the atom containing
    each atom i of a cols x rows grid that refines it."""
    atom = i // (cols * (rows // coarse_rows)) * coarse_cols
    atom += i % cols // (cols // coarse_cols)
    return atom


def rotation_shift(params, n, cols):
    """Columns the rotation by p[n]/q[n] moves a grid of `cols` columns."""
    if cols % params.q[n]:
        raise InputError("cols=%d not divisible by q[%d]=%d"
                         % (cols, n, params.q[n]))
    return params.p[n] * (cols // params.q[n]) % cols


def rotation_perm(params, n, cols, rows):
    """The rotation by p[n]/q[n] as a column shift on a cols x rows grid."""
    shift = rotation_shift(params, n, cols)
    u = np.arange(cols * rows, dtype=np.int64)
    table = (u // cols) * cols + (u % cols + shift) % cols
    return GridPermutation(cols, rows, table)


def h_from_words(params, n, h_words):
    """Stage-(n+1) relabeling permutation built from its word data.

    h_words has s[n+1] words of length k[n] over {0..s[n]-1}.  On the
    first column of width 1/q[n] the atom in slot t of strip s is sent
    into the target strip h_words[s][t]; matching is deterministic:
    occurrences of each symbol ordered by (word, slot) meet target atoms
    ordered by (row, column).  The rest of the grid is the equivariant
    copy under the stage-n rotation.
    """
    if not 0 <= n < params.stages:
        raise InputError("h-words for stage %d, but the parameters have "
                         "stages 1..%d" % (n + 1, params.stages))
    k, q = params.k[n], params.q[n]
    s_lo, s_hi = params.s[n], params.s[n + 1]
    h_words = [tuple(w) for w in h_words]
    if len(h_words) != s_hi:
        raise InputError("expected %d words, got %d" % (s_hi, len(h_words)))
    for s, w in enumerate(h_words):
        if len(w) != k:
            raise InputError("word %d has length %d, expected %d" % (s, len(w), k))
        if any(not 0 <= c < s_lo for c in w):
            raise InputError("word %d uses symbols outside 0..%d" % (s, s_lo - 1))
    cols, rows = k * q, s_hi
    strip = rows // s_lo                       # rows per stage-n strip
    words = np.array(h_words, dtype=np.int64).reshape(rows, k)
    # first-column target sp * k + tp of each (word, slot) s * k + t
    target = np.empty(rows * k, dtype=np.int64)
    for i in range(s_lo):
        sources = np.flatnonzero(words == i)
        if sources.size != strip * k:
            raise ConstraintError(
                "symbol %d occurs %d times but its strip holds %d atoms; "
                "each word needs it exactly k/s = %d times"
                % (i, sources.size, strip * k, k // s_lo))
        target[sources] = np.arange(i * strip * k, (i + 1) * strip * k)
    # the equivariant copy m moves slot and target by m k columns
    table = ((target // k * cols + target % k).reshape(rows, 1, k)
             + np.arange(q, dtype=np.int64).reshape(q, 1) * k)
    perm = GridPermutation(cols, rows, table.reshape(-1))
    assert perm.is_permutation()
    return perm


@dataclass
class GridProcess:
    """Stage-n process: grid resolution, factored relabeling, towers.

    The relabeling is held as Z = lift(W), W a permutation of h_n's own
    grid (the stage grid itself at stage 0), so the process holds no
    per-atom relabeling table; `Z` applies the lift to index arrays on
    demand.

    `labels` holds the stage labels in the rotation frame, labels o Z,
    as `FrameRuns` once `names.frame_labels` has computed them on first
    use; building a process leaves it None.
    """
    params: object
    stage: int
    cols: int
    rows: int
    W: GridPermutation      # Z = W lifted to the cols x rows stage grid
    h_list: list            # the h permutations at their native resolutions
    labels: object = field(default=None, init=False, repr=False,
                           compare=False)

    @property
    def atoms(self):
        return self.cols * self.rows

    @cached_property
    def Z(self):
        return LiftedPermutation(self.W, self.cols, self.rows)

    def orbit(self, s, lo=0, hi=None):
        """Rotation-frame indices of levels lo..hi-1 of tower s, base to
        top; the whole tower, q[stage] levels, by default.  The grid of a
        stage-n process is q[n] x s[n] (`initial_process`,
        `compose_stage`), so tower s is the rotation orbit through row s:
        level t lies in column t p mod q of that row, and only these
        levels are computed."""
        n = self.stage
        q, p = self.params.q[n], self.params.p[n]
        hi = q if hi is None else hi
        if not 0 <= s < self.params.s[n]:
            raise InputError("tower %d out of range [0, %d)"
                             % (s, self.params.s[n]))
        if not 0 <= lo <= hi <= q:
            raise InputError("levels [%d, %d) outside a tower of height %d"
                             % (lo, hi, q))
        # (lo + t) p = t p + lo p (mod q): int64-exact for a chunk of levels
        col = (np.arange(hi - lo, dtype=np.int64) * p + lo * p % q) % q
        col += s * self.cols
        return col

    def tower(self, s, lo=0, hi=None):
        """Atom indices of levels lo..hi-1 of tower s, base to top; the
        whole tower by default."""
        return self.Z.apply(self.orbit(s, lo, hi))

    def towers(self):
        return [self.tower(s) for s in range(self.params.s[self.stage])]


def initial_process(params):
    """The stage-0 process: trivial rotation, s[0] height-1 towers."""
    cols, rows = 1, params.s[0]
    return GridProcess(params, 0, cols, rows,
                       GridPermutation.identity(cols, rows), [])


def compose_stage(proc, h, cap_atoms=DEFAULT_ATOM_CAP):
    """Advance a stage-n process to stage n+1 with the relabeling h.

    Z_{n+1} = lift(Z_n) lift(h), and lift is a homomorphism over nested
    grids, so Z_{n+1} = lift(W_{n+1}) with W_{n+1} = lift(W_n) h on h's
    grid, which refines W_n's.  Only W_{n+1} is built.
    """
    n = proc.stage
    params = proc.params
    if n >= params.stages:
        raise InputError("no stage-%d parameters" % (n + 1,))
    want = (params.k[n] * params.q[n], params.s[n + 1])
    if (h.cols, h.rows) != want:
        raise InputError("h has resolution %dx%d, expected %dx%d"
                         % (h.cols, h.rows, *want))
    check_atom_cap(params, n + 1, cap_atoms)
    cols, rows = params.q[n + 1], params.s[n + 1]
    W = proc.W.lift(h.cols, h.rows).compose(h)
    return GridProcess(params, n + 1, cols, rows, W, proc.h_list + [h])


def check_atom_cap(params, n, cap_atoms):
    """ResourceError if the stage-n grid, q[n] x s[n] atoms, exceeds
    cap_atoms; `h_from_words` refuses a stage past the parameters."""
    if n <= params.stages and params.q[n] * params.s[n] > cap_atoms:
        raise ResourceError("stage-%d grid needs %d atoms, cap is %d"
                            % (n, params.q[n] * params.s[n], cap_atoms))


def stages(params, h_words_per_stage, cap_atoms=DEFAULT_ATOM_CAP):
    """The processes of stages 0, 1, ..., len(h_words_per_stage) in turn,
    each composed from the one before with `h_from_words` of its list.
    Each stage's grid is held to cap_atoms before its h is built, as
    h_{n+1}'s table of k[n] q[n] s[n+1] entries can alone be past any
    memory."""
    proc = initial_process(params)
    yield proc
    for n, h_words in enumerate(h_words_per_stage):
        check_atom_cap(params, n + 1, cap_atoms)
        proc = compose_stage(proc, h_from_words(params, n, h_words),
                             cap_atoms=cap_atoms)
        yield proc


def build_process(params, h_words_per_stage, cap_atoms=DEFAULT_ATOM_CAP):
    """The last of `stages`: the process of stage len(h_words_per_stage)."""
    *_, proc = stages(params, h_words_per_stage, cap_atoms)
    return proc


@dataclass
class EpsApproxReport:
    eps: Fraction           # mass of the deleted set D
    deleted: int            # atoms in D
    blocks: int             # complete coarse traversals found
    subordinate: bool       # off D, fine towers traverse coarse towers


def eps_approx(coarse, fine):
    """Approximation defect between consecutive processes.

    Position t of fine tower s lies in a coarse atom of level own[t] = S q
    + j, level j of coarse tower S.  A block, one base-to-top traversal of
    a coarse tower, starts at each position t that is not a new spacer (a
    column freshly labelled b or e at the fine stage) with own[t] % q == 0
    and no break own[i+1] != own[i] + 1 for i in [t, t + q - 1).  The
    deleted set D is what the windows [t, t + q) leave out, atoms - q
    blocks atoms; eps is its mass (1/l for one stage step), and
    `subordinate` says that D holds new spacers only.  D is not minimal
    for this: the all-b run of the first pass traverses a coarse tower too.

    A greedy walk along the tower, stepping by 1, over a block from a
    start or over a run of spacers, finds the same blocks: two starts are
    at least q apart, since one at offset 0 < d < q inside a block has own
    = S q + d, not 0 mod q, so no step passes over a start.  The windows
    are complete traversals, so when the towers of both stages partition
    their grids (asserted on Z) the kept atoms meet the levels of each
    coarse tower in equal masses.  One fine tower is held at a time.
    """
    params = coarse.params
    if fine.stage != coarse.stage + 1:
        raise InputError("processes must be one stage apart")
    assert coarse.Z.is_permutation() and fine.Z.is_permutation()
    q = params.q[coarse.stage]
    qf = params.q[fine.stage]

    # coarse level S q + j of each coarse atom
    level = np.empty(coarse.atoms, dtype=np.int64)
    level[np.concatenate(coarse.towers())] = np.arange(coarse.atoms)

    # word position t of a fine tower is a new spacer iff the column it
    # occupies is freshly labelled at the fine stage; plain[t] counts the
    # other positions before t
    marks = spacer_columns(params, fine.stage)
    is_spacer = marks.row(0)[fine.orbit(0)] != 0
    plain = np.concatenate(([0], np.cumsum(~is_spacer)))

    blocks = 0
    kept = 0                                # plain positions in windows
    own = np.empty(qf, dtype=np.int64)
    for s in range(params.s[fine.stage]):
        for lo, hi in chunks(0, qf):
            own[lo:hi] = level[containing_atom(
                fine.tower(s, lo, hi), fine.cols, fine.rows, coarse.cols,
                coarse.rows)]
        breaks = np.flatnonzero(np.diff(own) != 1)
        t = np.flatnonzero(own[:qf - q + 1] % q == 0)
        # no break in [t, t + q - 1): the first break at or after t
        # comes at t + q - 1 or later
        after = np.append(breaks, qf)[np.searchsorted(breaks, t)]
        t = t[~is_spacer[t] & (after >= t + q - 1)]
        blocks += t.size
        kept += int(np.sum(plain[t + q] - plain[t]))    # windows are disjoint
    deleted = fine.atoms - q * blocks
    subordinate = kept == params.s[fine.stage] * int(plain[-1])
    return EpsApproxReport(Fraction(deleted, fine.atoms), deleted, blocks,
                           subordinate)


@dataclass
class RequirementReport:
    req1: str               # "pass" | "unverifiable" | "fail"
    req2: bool
    req2_witness: object    # (stage, word_index, symbol) or None
    req3: bool
    req3_witness: object    # (stage, i, j) duplicate pair or None


def check_requirements(params, h_words_per_stage):
    """The three admissibility requirements, checked on a finite prefix.

    Growth of s can only be confirmed or refuted asymptotically, so a
    non-decreasing but not-yet-growing prefix is reported as
    "unverifiable" rather than passed.
    """
    stages = len(h_words_per_stage)
    if stages > params.stages:
        raise InputError("got %d h-word lists but only %d stages of "
                         "parameters" % (stages, params.stages))
    s = params.s[:stages + 1]
    if any(b < a for a, b in zip(s, s[1:])):
        req1 = "fail"
    elif len(s) > 1 and s[-1] > s[0]:
        req1 = "pass"
    else:
        req1 = "unverifiable"

    req2, req2_w = True, None
    req3, req3_w = True, None
    for n, h_words in enumerate(h_words_per_stage):
        h_words = [tuple(w) for w in h_words]
        want = params.k[n] // params.s[n]
        for wi, w in enumerate(h_words):
            for i in range(params.s[n]):
                if w.count(i) != want and req2:
                    req2, req2_w = False, (n + 1, wi, i)
        seen = {}
        for wi, w in enumerate(h_words):
            if w in seen and req3:
                req3, req3_w = False, (n + 1, seen[w], wi)
            seen.setdefault(w, wi)
    return RequirementReport(req1, req2, req2_w, req3, req3_w)
