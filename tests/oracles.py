"""The dense routes that the run-length frame replaced, kept as oracles.

Each holds one entry per column or per atom, as the package did before
its frame became column runs: the spacer marks as two bool columns from
the whole dynamical-order tables, the frame as one label per atom, the
stability count by rolling every row through every shift, distinct
names by hashing every tower's name, and the process check by
scattering every tower level into one bool per atom.  `transect_word`
builds a stage word without the circular product, by stepping an
interval through its passes.  `naive_parse` scans a text by looking
up its window at every offset.  `dict_uniformity` and
`table_cylinders` count the construction sequence's words as the
package did before one multiplicity array: a dict entry per (word,
tuple) pair, and per level a table of lists of the occurrences of every
base word, grown from the identity; `per_word_check_cylinder` measures
every base word in turn.  The spacer masses come from a sweep over the
spacer runs of a word, and the mirror of a dynamical order from its
whole table.  `zigzag_cell` and `cell_of_points` locate boustrophedon
cells by index and by point, which the package only does inside
`TrackedPoints`.  `loop_first_column_sigma` reads a relabeling's first
column block cell by cell, and `loop_h_from_words` builds a relabeling
by matching its atoms one at a time, every equivariant copy in turn.  `full_pass_perm_to_swaps` bubble-sorts
with full passes, and `dict_swap_layers` keeps each cell's last layer
in a dict.  `stagewise_shift_point` shifts a symbolic point by testing
each advanced stage offset itself, where `factor.shift_point` asks
`SymbolicPoint`.
"""

from fractions import Fraction

import numpy as np

from circlesys import consys, smoothreal
from circlesys.consys import CylinderEstimate, UniformityReport
from circlesys.errors import ConstraintError, InputError
from circlesys.factor import BoundaryCrossing, SymbolicPoint, skeleton
from circlesys.names import StabilityReport, label_dtype
from circlesys.procsim import (GridPermutation, rotation_perm,
                               rotation_shift)
from circlesys.ratarith import chunks, dyn_order
from circlesys.words import B, E, Interior


def dense(runs):
    """A FrameRuns with one letter per atom, row after row."""
    lengths = np.diff(runs.starts, append=runs.cols)
    return np.repeat(runs.letters, lengths, axis=1).reshape(-1)


def table_marks(params, m):
    """(b_cols, e_cols): the stage-m spacer columns as bools, each column
    c tested at its word position j_c of the stage-m circular product,
    from the whole stage-m and stage-(m-1) tables."""
    k, l, q_prev = params.k[m - 1], params.l[m - 1], params.q[m - 1]
    t = dyn_order(params, m).table
    ji = dyn_order(params, m - 1).table
    block_len = l * q_prev
    i = t // (k * block_len)
    rr = t % block_len
    return rr < q_prev - ji[i], rr >= block_len - ji[i]


def refine(values, cols, rows, fine_cols, fine_rows):
    """Per-atom values of a cols x rows grid read on a grid refining it,
    each column and each row repeated."""
    return np.repeat(np.repeat(values.reshape(rows, cols), fine_cols // cols,
                               axis=1), fine_rows // rows, axis=0).reshape(-1)


def dense_q_labels(params, h_list, stage, cols, rows):
    """`q_labels` with one label per atom: F_{m-1} refined to h_m's grid,
    gathered through h_m, refined to the stage-m grid, then given B and
    E in the stage-m spacer columns."""
    frame = np.arange(params.s[0], dtype=label_dtype(params.s[0]))
    for m, h in enumerate(h_list, 1):
        b_cols, e_cols = table_marks(params, m)
        frame = refine(frame, params.q[m - 1], params.s[m - 1],
                       h.cols, h.rows)[h.table]
        frame = refine(frame, h.cols, h.rows, params.q[m], params.s[m])
        grid = frame.reshape(params.s[m], params.q[m])
        np.copyto(grid, B, where=b_cols)
        np.copyto(grid, E, where=e_cols)
    assert frame.size == cols * rows
    return frame


def dense_frame(proc):
    return dense_q_labels(proc.params, proc.h_list, proc.stage, proc.cols,
                          proc.rows)


def dense_name_stability(coarse, fine):
    """`name_stability` by matching every row of the dense frame with
    itself at the offsets j sf and j sc, |j| <= q[n], atom by atom."""
    params, n = coarse.params, coarse.stage
    q = params.q[n]
    cols, rows = fine.cols, fine.rows
    sf = rotation_shift(params, n + 1, cols)
    sc = rotation_shift(params, n, cols)
    frame = dense_frame(fine).reshape(rows, cols)
    shifts = [(j * sf % cols, j * sc % cols) for j in range(-q, q + 1)]
    matched = 0
    for row in frame:
        twice = np.tile(row, 2)         # twice[u + a] = row[(u + a) % cols]
        ok = np.ones(cols, dtype=bool)
        for a, b in shifts:
            ok &= twice[a:cols + a] == twice[b:cols + b]
        matched += int(np.count_nonzero(ok))
    return StabilityReport(matched, fine.atoms, Fraction(matched, fine.atoms),
                           1 - Fraction(3, params.l[n]))


def hashed_distinct_names(proc):
    """`distinct_names` by reading every tower's name off the dense frame,
    keyed by a hash of its bytes and compared letter by letter on equal
    keys: (distinct, witness)."""
    frame = dense_frame(proc)

    def name(s):
        return frame[proc.orbit(s)]

    seen = {}
    for s in range(proc.params.s[proc.stage]):
        key = hash(name(s).tobytes())
        for t in seen.get(key, ()):
            if np.array_equal(name(t), name(s)):
                return False, (t, s)
        seen.setdefault(key, []).append(s)
    return True, None


def scatter_check_process(ctx):
    """`check_process` by scattering every tower level into one bool per
    atom: the towers partition the grid when their `atoms` entries hit
    every atom (entries lie on the grid, as W is gathered from the
    identity)."""
    proc = ctx.procs[-1]
    hit = np.zeros(proc.atoms, dtype=bool)
    entries = 0
    for s in range(ctx.params.s[proc.stage]):
        for lo, hi in chunks(0, ctx.params.q[proc.stage]):
            tower = proc.tower(s, lo, hi)
            hit[tower] = True
            entries += tower.size
    ok = entries == proc.atoms and bool(hit.all())
    for n, h in enumerate(proc.h_list):
        rot = rotation_perm(ctx.params, n, h.cols, h.rows)
        ok &= h.commutes_with(rot)
    return ok, "%d atoms" % proc.atoms, "towers partition; h rot = rot h"


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


def naive_parse(x, dictionary):
    """`parse` by looking up the window at every offset of x among the
    dictionary words, as tuples of ints, each under its first index."""
    index = {}
    for i, w in enumerate(dictionary):
        index.setdefault(tuple(int(a) for a in w), i)
    length = len(dictionary[0])
    x = tuple(int(a) for a in x)
    return [(off, index[x[off:off + length]])
            for off in range(len(x) - length + 1)
            if x[off:off + length] in index]


def dict_uniformity(cs, n):
    """`verify_uniformity` by a dict of the scaled multiplicity of every
    (word, tuple) pair, each measure summed one Fraction at a time."""
    k, l, q = cs.params.k[n], cs.params.l[n], cs.params.q[n]
    per_copy = q * (l - 1)
    tuples = cs.prewords[n]
    nwords = len(cs.levels[n])
    qratio = Fraction(cs.params.q[n + 1], q)
    counts = {}
    for wi, tup in enumerate(tuples):
        for c in range(nwords):
            counts[(c, wi)] = tup.count(c) * per_copy
    densities = [
        Fraction(sum(counts[(c, wi)] for wi in range(len(tuples))), 1) / qratio
        / len(tuples)
        for c in range(nwords)
    ]
    eps = max(
        sum(abs(Fraction(counts[(c, wi)], 1) / qratio - densities[c])
            for c in range(nwords))
        for wi in range(len(tuples))
    )
    values = {counts[(c, wi)] for c in range(nwords) for wi in range(len(tuples))}
    strong = len(values) == 1
    f_value = values.pop() if strong else None
    M = np.array([[tup.count(c) for c in range(nwords)] for tup in tuples])
    return UniformityReport(n, densities, strong, f_value, eps, M)


def occurrence_table(cs, base_level, upto):
    """occ[m][j][i]: occurrences of level-base word i in level-m word j."""
    base = cs.levels[base_level]
    occ = {base_level: [[1 if i == j else 0 for i in range(len(base))]
                        for j in range(len(base))]}
    total = {base_level: 1}
    for m in range(base_level, upto):
        per_copy = cs.params.q[m] * (cs.params.l[m] - 1)
        occ[m + 1] = [
            [sum(occ[m][c][i] for c in tup) * per_copy for i in range(len(base))]
            for tup in cs.prewords[m]
        ]
        total[m + 1] = cs.params.k[m] * per_copy * total[m]
    return occ, total


def table_cylinders(cs, base_level, n, eps):
    """`estimate_cylinder` of every level-base word index in turn, read
    from one `occurrence_table`."""
    occ, total = occurrence_table(cs, base_level, n + 1)
    bound = 2 * Fraction(eps)
    out = []
    for ui in range(len(cs.levels[base_level])):
        props = [Fraction(row[ui], total[n + 1]) for row in occ[n + 1]]
        gap = max(props) - min(props)
        out.append(CylinderEstimate(n, base_level, ui, props, gap, bound,
                                    gap <= bound))
    return out


def per_word_check_cylinder(ctx):
    """`check_cylinder` by measuring every level-n word of every stage
    against that stage's uniformity report."""
    worst = Fraction(0)
    bound = Fraction(0)
    for n in range(ctx.cs.depth):
        eps = consys.verify_uniformity(ctx.cs, n).eps
        for u in range(len(ctx.cs.levels[n])):
            est = consys.estimate_cylinder(ctx.cs, u, n, n, eps)
            worst = max(worst, est.gap)
            bound = max(bound, est.bound)
            if not est.within_bound:
                return False, str(est.gap), "<= " + str(est.bound)
    return True, str(worst), "<= " + str(bound)


def boundary_intervals(k, l, q, order):
    """Spacer runs of a circular product, as half-open position intervals."""
    block_len = l * q
    out = []
    for i in range(q):
        ji = order[i]
        for j in range(k):
            base = (i * k + j) * block_len
            if ji < q:
                out.append((base, base + q - ji))
            if ji > 0:
                out.append((base + block_len - ji, base + block_len))
    return out


def swept_spacer_mass(k, l, q, order):
    """(spacer positions, positions within q of a spacer) of a circular
    product, by dilating each spacer run by q on both sides and
    measuring the union."""
    n = k * l * q * q
    intervals = boundary_intervals(k, l, q, order)
    boundary = sum(hi - lo for lo, hi in intervals)
    near = 0
    cursor = 0
    for lo, hi in intervals:  # already sorted and disjoint
        lo = max(lo - q, cursor, 0)
        hi = min(hi + q, n)
        if hi > lo:
            near += hi - lo
            cursor = hi
    return boundary, near


def reversed_view_mirror(order):
    """Whether q - j_i = j_{q-i} for 0 < i < q, on the whole table."""
    t = order.table
    return np.array_equal(order.q - t[1:], t[:0:-1])


def zigzag_index(grid, col, row):
    m, n = grid
    pos = col if row % 2 == 0 else m - 1 - col
    return row * m + pos


def zigzag_cell(grid, k):
    """(column, row) of boustrophedon index k on an m x n grid."""
    m, n = grid
    row, pos = divmod(k, m)
    col = pos if row % 2 == 0 else m - 1 - pos
    return col, row


def cell_of_points(grid, pts):
    """Boustrophedon cell index of each point, by the cell formula that
    `TrackedPoints` applies once to the points it tracks."""
    return smoothreal._cells(smoothreal.zigzag_table(grid), pts[:, 0],
                             pts[:, 1])


def loop_first_column_sigma(params, n, h_grid):
    """stagemap.first_column_sigma before its one gather, verbatim but
    for reading h_grid.table where GridPermutation.apply was called."""
    k = params.k[n]
    rows = params.s[n + 1]
    sigma = [0] * (k * rows)
    for s in range(rows):
        for t in range(k):
            img = int(h_grid.table[s * h_grid.cols + t])
            tp, sp = img % h_grid.cols, img // h_grid.cols
            sigma[zigzag_index((k, rows), t, s)] = zigzag_index((k, rows), tp, sp)
    return sigma


def loop_h_from_words(params, n, h_words):
    """procsim.h_from_words before its copies became one broadcast,
    verbatim but for the input validation, which the package keeps:
    symbol by symbol, the (word, slot) occurrences are zipped with the
    strip's (row, column) atoms and written once per copy."""
    k, q = params.k[n], params.q[n]
    s_lo, s_hi = params.s[n], params.s[n + 1]
    h_words = [tuple(w) for w in h_words]
    cols, rows = k * q, s_hi
    strip = rows // s_lo
    table = np.arange(cols * rows, dtype=np.int64)
    for i in range(s_lo):
        sources = [(s, t) for s in range(rows) for t in range(k)
                   if h_words[s][t] == i]
        targets = [(sp, tp) for sp in range(i * strip, (i + 1) * strip)
                   for tp in range(k)]
        if len(sources) != len(targets):
            raise ConstraintError(
                "symbol %d occurs %d times but its strip holds %d atoms; "
                "each word needs it exactly k/s = %d times"
                % (i, len(sources), len(targets), k // s_lo))
        for (s, t), (sp, tp) in zip(sources, targets):
            for m in range(q):
                table[s * cols + t + m * k] = sp * cols + tp + m * k
    return GridPermutation(cols, rows, table)


def full_pass_perm_to_swaps(sigma):
    """smoothreal.perm_to_swaps before its passes stopped at the last
    swap, verbatim but for the recomposition check: every pass compares
    every adjacent pair, until one swaps nothing."""
    arr = list(sigma)
    swaps = []
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k] > arr[k + 1]:
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                swaps.append(k)
                changed = True
    return swaps


def dict_swap_layers(swaps):
    """smoothreal.swap_layers before its last layers became a list,
    verbatim: a dict from cell to the last layer touching it."""
    last = {}
    layers = []
    for k in swaps:
        depth = max(last.get(k, -1), last.get(k + 1, -1)) + 1
        if depth == len(layers):
            layers.append([])
        layers[depth].append(k)
        last[k] = last[k + 1] = depth
    return layers


def stagewise_shift_point(point):
    """`factor.shift_point` by its own walk of the stages: the point
    with every stage offset advanced by one, or the BoundaryCrossing of
    the lowest stage whose advanced offset leaves its word, is a spacer
    position or sits over another inner position than the stage below's."""
    params = point.params
    cand = tuple(r + 1 for r in point.offsets[1:])
    for n in range(1, point.depth + 1):
        r = cand[n - 1]
        if r >= params.q[n]:
            return BoundaryCrossing(n)
        pos = skeleton(params, n).decode(r)
        if not isinstance(pos, Interior):
            return BoundaryCrossing(n)
        inner = 0 if n == 1 else cand[n - 2]
        if pos.inner != inner:
            return BoundaryCrossing(n)
    return SymbolicPoint(params, (0,) + cand)
