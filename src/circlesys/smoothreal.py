"""Numeric realization of grid permutations by smooth plane maps.

An adjacent pair of grid cells is swapped by conjugating a half-turn of
a disk into the pair: an area-preserving affine map takes the pair onto
[0,2]x[0,1], a measure-preserving concentric map takes that rectangle
onto a disk, and a smooth twist rotates the subdisk of radius R - gamma
by pi while dying off before radius R.  Outside radius R the map is the
identity, so the swaps patch together over the grid.  Every Jacobian in
the chain is 1 (almost everywhere for the concentric map, exactly for
the twist), hence so is the composite's.

The concentric map sends the square of sup-radius t onto the circle of
radius 2t/sqrt(pi) and is odd, so a swap has three regions, told apart
by that radius alone: inside r_in = R - gamma it is the point reflection
(u, v) -> (2 - u, 1 - v), beyond R it is the identity, and only on the
thin ring between them do the points go through the concentric map and
the twist.  The reflection (one rounded subtraction per coordinate) and
the identity are computed directly, not through the disk.

Cells are numbered along the boustrophedon path (row 0 left to right,
row 1 right to left, ...), which makes consecutive indices spatially
adjacent, so adjacent transpositions suffice to realize any cell
permutation.  Swaps on disjoint pairs commute, so the swap list is
scheduled into layers of disjoint swaps, each one map (CellSwap).  A
schedule (CellSchedule) finds each point's cell once per pass: the
points deep in their cells move by the core reflection alone, and only
the few shallow ones go through every layer, which finds them by their
cells, moves only those inside a pair, and finds only their cells
again.  A pass moves its points SWAP_CHUNK at a time, so it holds the
tracked points (x and y in one array, and an int16 cell: 18 bytes each)
and working arrays of one chunk.  A verdict (`obedience`) moves none of
its deep points, as their trajectories give their end cells, and draws
its sample a chunk at a time, so it holds one chunk and at most
SHALLOW_BATCH shallow points whatever the sample count.  The layers of
a schedule share one set of tables (SwapTables): the boustrophedon
index, one StandardSwap, every pair's orientation, origin and core
reflection, and one int16 array with a row for each layer that holds,
per cell, the index k of the layer's pair on it, built in one
vectorized pass.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceError
from .ratarith import chunks

# Cells of the largest grid realized: the swap list is a pure-Python
# bubble sort with up to N(N-1)/2 swaps in at most 2N-3 layers, and
# the pair table and the tracked cells hold indices below N as int16.
MAX_SMOOTH_CELLS = 1024
# the largest per-swap delta realize_perm uses (StandardSwap needs < 1/2)
MAX_DELTA = 0.25
# Points a CellSwap moves per StandardSwap call, deep points a pass
# moves at a time, and sample points a verdict (`obedience`) draws and
# judges at a time, so each holds working arrays of at most this many
# points: `smooth realize` on 8x8 (seeds 1 to 3, eps 0.1, 20,000
# samples) peaked at 37.71-37.76 MB of RSS with 4096 and 39.22-39.37 MB
# with 16384 in a pass, and about 0.5 MB higher with a verdict drawn
# 16,384 points at a time than 4,096.  `TrackedPoints` finds the first
# cells of the points it is given `ratarith.CHUNK` at a time.
SWAP_CHUNK = 4096
# Sample points of one smooth realize, swap or stage.  A verdict holds
# one chunk of them and at most SHALLOW_BATCH shallow points, so its
# memory does not grow with the count, and the cap bounds time only:
# `smooth realize` on 8x8 peaks at about 37 MB of RSS with 20,000,
# 2,000,000 and this many samples alike, and takes about 0.8 s here.
MAX_SMOOTH_SAMPLES = 1 << 24
# Shallow points a pass or a verdict sends through its layers at once.
# They are about 4 w of a moved cell's area (w the deep margin of
# CellSchedule), a few in 10,000 at smooth8's delta, but most points
# once delta nears 1/2, and each held costs a copy, an index and a
# layer's search (34 bytes), so a verdict holds at most about 0.6 MB
# of them.
SHALLOW_BATCH = 1 << 14
# Margin, in cell widths, that a deep point keeps beyond the ring of
# every swap it meets.  One step rounds each coordinate five times and
# moves its distance to a cell edge by less than (m/2 + 5) 2^-52 cell
# widths along an axis of m cells (the last addition rounds in [0, 1]).
# Over the at most 2,045 steps of a grid of 1,024 cells that is 2.4e-10
# on 1024x1 and 1e-11 on 32x32; on the 1024x1 reversal the margin left
# is 0.8 of this slack, as at the start.
DEEP_SLACK = 1e-9


class PlaneMap:
    """Invertible map of the unit square (or a rectangle) to itself."""

    def forward(self, pts):
        raise NotImplementedError

    def inverse(self, pts):
        raise NotImplementedError


class Composite(PlaneMap):
    """Apply maps[0] first, maps[-1] last."""

    def __init__(self, maps):
        self.maps = list(maps)

    def forward(self, pts):
        for m in self.maps:
            pts = m.forward(pts)
        return pts

    def inverse(self, pts):
        for m in reversed(self.maps):
            pts = m.inverse(pts)
        return pts


def smoothstep(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    # exp(-1/1e-300) underflows to the 0 that the step is at x = 0 and 1
    g = np.exp(-1.0 / np.maximum(x, 1e-300))
    h = np.exp(-1.0 / np.maximum(1.0 - x, 1e-300))
    return g / (g + h)


def _square_to_disk(x, y):
    """Concentric square-to-disk map with unit Jacobian a.e.

    The square ring of sup-radius t goes to the circle of radius
    2t/sqrt(pi); within a ring, angles vary linearly on each of the
    four wedges cut by the diagonals.
    """
    ax, ay = np.abs(x), np.abs(y)
    horizontal = ax >= ay
    off = ax > 0
    phi = np.where(horizontal,
                   (math.pi / 4) * np.where(off, y / np.where(off, x, 1), 0.0),
                   math.pi / 2 - (math.pi / 4) * x / np.where(ay > 0, y, 1))
    r0 = np.where(horizontal, x, y) * (2.0 / math.sqrt(math.pi))  # signed
    return r0 * np.cos(phi), r0 * np.sin(phi)


def _disk_to_square(X, Y):
    t = np.hypot(X, Y) * (math.sqrt(math.pi) / 2.0)  # sup-radius of the ring
    theta = np.arctan2(Y, X)
    slope = t * (4 / math.pi)
    # the four wedges: right, left, and top or bottom by the sign of theta
    spread = np.abs(theta)
    right, left = spread <= math.pi / 4, spread >= 3 * math.pi / 4
    top = theta > 0
    x = np.where(right, t, np.where(left, -t, np.where(
        top, slope * (math.pi / 2 - theta),
        -slope * (math.pi / 2 - (theta + math.pi)))))
    y = np.where(right, slope * theta, np.where(left, -slope * (
        theta - np.sign(theta + 1e-300) * math.pi), np.where(top, t, -t)))
    return x, y


class StandardSwap(PlaneMap):
    """Half-turn swap of the two unit cells of [0,2]x[0,1].

    delta is the exceptional mass as a fraction of the pair: the map is
    the exact point reflection (u, v) -> (2 - u, 1 - v) on the disk of
    area 2*(1-delta) (radius r_in) and exactly the identity outside the
    disk of area 2*(1-delta/2) (radius R); a smooth twist interpolates
    on the ring r_in <= r < R between them, and only ring points go
    through the concentric map.
    """

    def __init__(self, delta):
        if not 0 < delta < 0.5:
            raise InputError("delta must be in (0, 1/2), got %r" % (delta,))
        self.delta = delta
        self.R = math.sqrt(2 * (1 - delta / 2) / math.pi)
        self.r_in = math.sqrt(2 * (1 - delta) / math.pi)
        self.gamma = self.R - self.r_in

    def _twist(self, pts, sign):
        u, v = pts[:, 0], pts[:, 1]
        x = (u - 1.0) / math.sqrt(2)
        y = (v - 0.5) * math.sqrt(2)
        # disk radius of each point: that of its square ring
        r = np.maximum(np.abs(x), np.abs(y)) * (2.0 / math.sqrt(math.pi))
        core = r < self.r_in
        # the twist angle is +-pi on the core, where the odd concentric
        # map makes the half-turn a point reflection of the rectangle
        out = pts.copy(order="K")
        np.subtract(2.0, u, out=out[:, 0], where=core)
        np.subtract(1.0, v, out=out[:, 1], where=core)
        ring = np.flatnonzero(~core & (r < self.R))     # r_in <= r < R
        if len(ring):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                X, Y = _square_to_disk(x[ring], y[ring])
                f = sign * (math.pi
                            * smoothstep((self.R - np.hypot(X, Y)) / self.gamma))
                c, s = np.cos(f), np.sin(f)
                x, y = _disk_to_square(X * c - Y * s, X * s + Y * c)
            out[ring, 0] = x * math.sqrt(2) + 1.0
            out[ring, 1] = y / math.sqrt(2) + 0.5
        return out

    def forward(self, pts):
        return self._twist(np.asarray(pts, dtype=float), +1.0)

    def inverse(self, pts):
        return self._twist(np.asarray(pts, dtype=float), -1.0)

    def smooth_samples(self, rng, count, margin=2e-3):
        """Sample the pair rectangle away from the numerically stiff
        ring, the wedge diagonals, and the center, where finite
        differences of the (everywhere unit) Jacobian are unreliable."""
        pts = np.empty((0, 2))
        while len(pts) < count:
            cand = rng.random((4 * count, 2)) * np.array([2.0, 1.0])
            x = (cand[:, 0] - 1.0) / math.sqrt(2)
            y = (cand[:, 1] - 0.5) * math.sqrt(2)
            keep = np.abs(np.abs(x) - np.abs(y)) > margin
            t = np.maximum(np.abs(x), np.abs(y))
            r = t * 2.0 / math.sqrt(math.pi)
            keep &= (r < self.r_in - margin) | (r > self.R + margin)
            keep &= r > margin
            keep &= np.minimum(np.abs(x), np.abs(y)) > margin
            pts = np.vstack([pts, cand[keep]])
        return pts[:count]


class SwapTables:
    """What every layer of swaps on one grid shares: the boustrophedon
    index, the cell size, one StandardSwap, and the orientation, origin
    and core reflection of each adjacent pair (cells k and k+1), with x
    and y as rows, so each numpy step runs along the points.  A grid has
    at most MAX_SMOOTH_CELLS cells, so a pair index fits the int16 pair
    table."""

    def __init__(self, grid, delta):
        m, n = grid
        check_smooth_cells("smooth %dx%d grid" % (m, n), grid)
        self.inner = StandardSwap(delta)
        self.index = zigzag_table(grid)
        self.size = np.array([[1.0 / m], [1.0 / n]])   # one cell's x and y
        # row and column of each boustrophedon index, from the table's
        # inverse permutation
        row, col = np.divmod(np.argsort(self.index, axis=None), m)
        self.centre = np.stack([col + 0.5, row + 0.5])  # x and y, per cell
        c0, c1, r0, r1 = col[:-1], col[1:], row[:-1], row[1:]
        if (np.abs(c0 - c1) + np.abs(r0 - r1) != 1).any():
            raise AssertionError("boustrophedon neighbours are not adjacent")
        self.transpose = c0 == c1               # vertical pair
        # per pair, the origin's x and y, then the core reflection as
        # u -> 2 - u along the pair and v -> 1 - v across it
        self.turn = np.stack([np.minimum(c0, c1) / m, np.minimum(r0, r1) / n,
                              np.where(self.transpose, 1.0, 2.0),
                              np.where(self.transpose, 2.0, 1.0)])
        # the largest offset of a deep point from its cell's centre,
        # 1/2 - w, with 1 - sqrt(1 - delta) written without its
        # cancellation
        self.reach = 0.5 - (delta / (1 + math.sqrt(1 - delta)) + DEEP_SLACK)

    def half_turns(self, pts, pairs):
        """Move each point i of pts, x and y as its two rows, by the core
        reflection of pair pairs[i], in place: x <- (K - (x - x0)/sx) sx
        + x0 and likewise y, the operations of CellSwap on a core point."""
        turn = self.turn.take(pairs, axis=1)
        pts -= turn[:2]
        pts /= self.size
        np.subtract(turn[2:], pts, out=pts)
        pts *= self.size
        pts += turn[:2]

    def pair_of_cell(self, layers):
        """(len(layers), cells) int16 table: per layer, the index k of
        the pair holding each cell, or -1; InputError unless each layer
        is pairs k in range with no cell in common."""
        cells = self.index.size
        sizes = [len(layer) for layer in layers]
        k = np.fromiter((kk for layer in layers for kk in layer),
                        dtype=np.intp, count=sum(sizes))
        bad = (k < 0) | (k >= cells - 1)
        if bad.any():
            raise InputError("pair index %d out of range" % k[bad][0])
        k = k.astype(np.int16)
        # cell k of layer i is entry i * cells + k of the flattened table
        at = np.repeat(np.arange(len(layers)) * cells, sizes)
        at += k
        # the writes to each cell, counted in the table itself: a pair
        # writes a cell at most once, so int16 holds the counts unless a
        # layer lists more than 32,767 pairs (and so clashes)
        table = np.zeros(len(layers) * cells, dtype=np.int16
                         if max(sizes, default=0) < 1 << 15 else np.intp)
        np.add.at(table, at, 1)
        at += 1
        np.add.at(table, at, 1)
        at -= 1
        # a pair that shares a cell shares its first cell, or the pair
        # sharing its second cell does
        clash = table[at] != 1
        if clash.any():
            raise InputError("pair %d shares a cell with another pair"
                             % k[clash][0])
        table.fill(-1)
        table[at] = k
        at += 1
        table[at] = k
        return table.reshape(len(layers), cells)


class CellSwap(PlaneMap):
    """StandardSwap conjugated into disjoint adjacent cell pairs of a grid:
    one layer of a CellSchedule, which builds it.

    k is the layer's boustrophedon pair indices (cells k and k+1), with
    no cell in common, and pair_of_cell its row of the schedule's
    `SwapTables.pair_of_cell`.  Disjoint swaps commute, so all of them
    are one map.  It moves TrackedPoints, which carry each point's cell,
    in place: a gather of pair_of_cell finds the points inside a pair,
    and SWAP_CHUNK of them at a time are mapped to their pair's
    rectangle, moved by one StandardSwap call, mapped back and have
    their cells found again.  Each point goes through its own pair's
    conjugation alone, so a layer equals its swaps applied one by one,
    bit for bit (short of a point within an ulp of a cell edge, whose
    cell and rectangle test can disagree).  A schedule hands its layers
    only the shallow points of a pass, at most SHALLOW_BATCH at a time.
    """

    def __init__(self, tables, k, pair_of_cell):
        self.tables = tables
        self.k = k
        self.pair_of_cell = pair_of_cell

    def _apply(self, pts, fn):
        hit = np.flatnonzero(self.pair_of_cell.take(pts.cell) >= 0)
        for lo, hi in chunks(0, len(hit), SWAP_CHUNK):
            self._move(pts, hit[lo:hi], fn)
        return pts

    def _move(self, pts, hit, fn):
        """Apply fn, in pair coordinates, to the points `hit` of pts
        that lie in their pair's rectangle."""
        t = self.tables
        # take casts the int16 cells to intp at once, where indexing
        # casts them in slower buffered steps; the pair indices are cast
        # once, as numpy casts int16 indices again at every gather
        pair = np.take(self.pair_of_cell, pts.cell[hit]).astype(np.intp)
        flip = t.transpose[pair]
        x0, y0 = t.turn[:2].take(pair, axis=1)
        u = pts.x[hit]
        u -= x0
        u /= t.size[0]
        v = pts.y[hit]
        v -= y0
        v /= t.size[1]
        # column-major, so StandardSwap works on contiguous columns;
        # a vertical pair lies along y
        std = np.empty((len(hit), 2), order="F")
        std[:, 0] = np.where(flip, v, u)
        std[:, 1] = np.where(flip, u, v)
        del u, v
        # at a cell edge the rectangle, the swap's domain, has the last word
        inside = (std[:, 0] >= 0) & (std[:, 0] < 2.0) & \
                 (std[:, 1] >= 0) & (std[:, 1] < 1.0)
        if not inside.all():
            hit, flip, x0, y0, std = (a[inside]
                                      for a in (hit, flip, x0, y0, std))
        if len(hit):
            std = fn(std)
            x = np.where(flip, std[:, 1], std[:, 0])
            x *= t.size[0]
            x += x0
            y = np.where(flip, std[:, 0], std[:, 1])
            y *= t.size[1]
            y += y0
            del std
            pts.x[hit] = x
            pts.y[hit] = y
            pts.cell[hit] = _cells(t.index, x, y)

    def forward(self, pts):
        return self._apply(pts, self.tables.inner.forward)

    def inverse(self, pts):
        return self._apply(pts, self.tables.inner.inverse)


class TrackedPoints:
    """Points as one (n, 2) float array, with x and y its column views,
    plus each point's int16 boustrophedon cell under `index` (a
    `zigzag_table` of at most MAX_SMOOTH_CELLS cells), found once.
    A schedule's pass updates all three in place, so it tracks the cells
    from layer to layer, and whoever passed them in reads the moved
    points' cells without finding them again.  The points are a copy of
    pts, or drawn into place by `draw`."""

    def __init__(self, index, pts):
        _check_index(index)
        self._track(index, np.array(pts, dtype=float, order="C"))

    @classmethod
    def draw(cls, index, rng, count):
        """Track `count` points of the unit square drawn by
        rng.random((count, 2)), keeping the drawn array, not a copy."""
        _check_index(index)
        tracked = cls.__new__(cls)
        tracked._track(index, rng.random((count, 2)))
        return tracked

    def _track(self, index, pts):
        self._hold(pts, np.empty(len(pts), dtype=np.int16))
        for lo, hi in chunks(0, len(pts)):
            self.cell[lo:hi] = _cells(index, self.x[lo:hi], self.y[lo:hi])

    def _hold(self, pts, cell):
        self._pts = pts
        self.x, self.y = pts[:, 0], pts[:, 1]
        self.cell = cell

    def __len__(self):
        return len(self._pts)

    def array(self):
        """The tracked (n, 2) array itself, not a copy."""
        return self._pts

    def take(self, hit):
        """The points `hit` as TrackedPoints of their own: copies, with
        their cells as tracked here."""
        part = TrackedPoints.__new__(TrackedPoints)
        part._hold(self._pts[hit], self.cell[hit])
        return part

    def put(self, hit, part):
        """Write back the points `hit` taken as `part`."""
        self._pts[hit] = part._pts
        self.cell[hit] = part.cell


def _check_index(index):
    """ResourceError before tracking cells of a grid past the cap, as
    the int16 cells hold indices below MAX_SMOOTH_CELLS."""
    n, m = index.shape
    check_smooth_cells("smooth %dx%d grid" % (m, n), (m, n))


class Trajectories(NamedTuple):
    """Where the layers of one pass take a point of each cell that stays
    in the core of its swaps: the j-th pair met from start cell c is
    pairs[j, c] (int16, -1 past its last), c meets steps[c] pairs and
    ends in cell end[c]."""
    pairs: np.ndarray       # (most steps, cells) int16
    steps: np.ndarray       # (cells,) intp
    end: np.ndarray         # (cells,) intp

    @classmethod
    def walk(cls, rows, cells):
        """Follow every cell through the pair-table rows of a pass, in
        order: once to count its steps, once to fill the table."""
        steps = np.zeros(cells, dtype=np.intp)
        pairs = None
        for fill in (False, True):
            if fill:
                pairs = np.full((steps.max(initial=0), cells), -1,
                                dtype=np.int16)
                steps.fill(0)
            at = np.arange(cells)
            for row in rows:
                k = row.take(at)
                met = np.flatnonzero(k >= 0)
                k = k[met]
                if fill:
                    pairs[steps[met], met] = k
                steps[met] += 1
                # the other cell of pair k, which holds cells k and k + 1
                at[met] = 2 * k + 1 - at[met]
        return cls(pairs, steps, at)


class CellSchedule(Composite):
    """The CellSwap layers of one grid, applied in order to one tracked
    copy of the points, so each point's cell is found once per pass.
    The layers share one SwapTables and read their rows of its one
    pair table.  TrackedPoints are moved in place and returned; an
    array is copied once to track it, and that copy returned.  With
    no layers the schedule is the identity.

    A pass splits the points by where they sit in their tracked cells.
    A swap is the exact point reflection (u, v) -> (2 - u, 1 - v) of
    its pair on the core r < r_in, which is |u - 1| < sqrt(1 - delta)
    and |v - 1/2| < sqrt(1 - delta)/2 in pair coordinates.  So a deep
    point, at least w = 1 - sqrt(1 - delta) + DEEP_SLACK cell widths
    from each edge of its cell, is in the core of any pair holding the
    cell, horizontal or vertical, on either side; the half-turn keeps
    its distance to every edge, so it stays that deep through every
    swap it meets.  Deep points, SWAP_CHUNK at a time, move only at
    their own swaps, along their start cell's Trajectories: at each
    step the floating-point operations a CellSwap applies to a core
    point (`SwapTables.half_turns`), and no test of its rectangle, ring
    or cell, whose outcome is known.  Points of cells that meet no pair
    stay as they are.  The shallow rest, near a cell edge or off the
    unit square, go through every layer (Composite) as TrackedPoints of
    their own, at most SHALLOW_BATCH at a time."""

    def __init__(self, grid, layers, delta):
        self.tables = SwapTables(grid, delta)
        super().__init__(
            CellSwap(self.tables, layer, row)
            for layer, row in zip(layers, self.tables.pair_of_cell(layers)))
        self.index = self.tables.index
        self._paths = {}

    def paths(self, inverse):
        """The Trajectories of a forward or an inverse pass."""
        if inverse not in self._paths:
            rows = [m.pair_of_cell for m in self.maps]
            self._paths[inverse] = Trajectories.walk(
                rows[::-1] if inverse else rows, self.index.size)
        return self._paths[inverse]

    def split(self, pts, part, paths):
        """The points in the slice `part` of TrackedPoints pts whose cell
        meets a pair on `paths`, as two index arrays into `part`: the
        deep ones, and the shallow rest, near a cell edge or off the
        unit square."""
        t = self.tables
        n, m = t.index.shape
        cell = pts.cell[part].astype(np.intp)
        # the larger offset from the cell's centre, in cell widths
        far = np.abs(pts.x[part] * m - t.centre[0].take(cell))
        np.maximum(far, np.abs(pts.y[part] * n - t.centre[1].take(cell)),
                   out=far)
        deep = far <= t.reach
        moved = paths.steps.take(cell) > 0
        return np.flatnonzero(moved & deep), np.flatnonzero(moved & ~deep)

    def follow(self, pts, hit, paths):
        """Move the deep points `hit` of pts along their trajectories,
        sorted by step count so the points of each step are a prefix."""
        start = pts.cell[hit].astype(np.intp)
        steps = paths.steps.take(start)
        order = np.argsort(steps)[::-1]
        hit, start = hit[order], start[order]
        active = len(hit) - np.cumsum(np.bincount(steps))
        moving = np.stack([pts.x[hit], pts.y[hit]])
        for j, count in enumerate(active[:-1]):
            self.tables.half_turns(moving[:, :count],
                                   paths.pairs[j].take(start[:count]))
        pts.x[hit], pts.y[hit] = moving
        pts.cell[hit] = paths.end.take(start)

    def _pass(self, pts, inverse):
        layers = super().inverse if inverse else super().forward
        paths = self.paths(inverse)

        def shallow():
            for lo, hi in chunks(0, len(pts), SWAP_CHUNK):
                deep, rest = self.split(pts, slice(lo, hi), paths)
                if len(deep):
                    self.follow(pts, deep + lo, paths)
                yield rest + lo

        for hit in _batches(shallow(), np.empty(0, np.intp)):
            part = pts.take(hit)
            layers(part)
            pts.put(hit, part)
        return pts

    def _tracked(self, pts, inverse):
        if isinstance(pts, TrackedPoints):
            return self._pass(pts, inverse)
        return self._pass(TrackedPoints(self.index, pts), inverse).array()

    def forward(self, pts):
        return self._tracked(pts, False)

    def inverse(self, pts):
        return self._tracked(pts, True)


def _batches(parts, empty):
    """The arrays `parts` joined in runs of at most SHALLOW_BATCH entries,
    or one longer part alone.  The last run is yielded even if it is
    `empty`, so the layers run at least once.  A run is joined every 64
    parts, so that it holds a few arrays however many parts it spans:
    with a few shallow points in each of its 4,096 chunks, `smooth
    realize` on 8x8 at MAX_SMOOTH_SAMPLES peaked at 37.8 MB of RSS with
    one array per part, 37.4 MB so joined."""
    run, held = [empty], 0
    for part in parts:
        if held and held + len(part) > SHALLOW_BATCH:
            yield np.concatenate(run)
            run, held = [empty], 0
        run.append(part)
        held += len(part)
        if len(run) == 64:
            run = [np.concatenate(run)]
    yield np.concatenate(run)


def zigzag_table(grid):
    """(n, m) table of the boustrophedon index of each (row, column)."""
    m, n = grid
    index = np.arange(m * n).reshape(n, m)
    index[1::2] = index[1::2, ::-1]
    return index


def _cells(index, x, y):
    n, m = index.shape
    # x * m and y * n truncated as astype(int) does, straight into one
    # int array, and the clipped column kept in the smallest type that
    # holds m - 1: 9 bytes a point where a float and an int array for
    # each coordinate took 32 and kept an 8x8 smooth realize's peak RSS
    # about 0.2 MB higher (37.8 against 37.6 MB, medians of 14 fresh
    # children, seeds 1 and 2, on a 2-vCPU guest)
    cell = np.multiply(x, m, out=np.empty(len(x), dtype=int),
                       casting="unsafe")
    np.minimum(np.maximum(cell, 0, out=cell), m - 1, out=cell)
    col = cell.astype(np.min_scalar_type(m - 1))
    np.multiply(y, n, out=cell, casting="unsafe")
    np.minimum(np.maximum(cell, 0, out=cell), n - 1, out=cell)
    cell *= m
    cell += col
    # in place: every entry is in range, and mode="raise" would gather
    # into a buffer first
    return np.take(index.ravel(), cell, out=cell, mode="clip")


def perm_to_swaps(sigma):
    """Adjacent transpositions whose left-to-right composition is sigma.

    sigma maps boustrophedon cell indices to boustrophedon cell
    indices.  Bubble-sorting the value list records at most N(N-1)/2
    swaps; applying them in order to cell contents realizes sigma.
    """
    sigma = list(sigma)
    N = len(sigma)
    if sorted(sigma) != list(range(N)):
        raise InputError("not a permutation of 0..%d" % (N - 1))
    arr = list(sigma)
    swaps = []
    # past a pass's last swap the values are sorted and in place, so the
    # next pass stops there (Knuth, TAOCP Vol. 3, 5.2.2, bubble sort
    # with BOUND) and records the same swaps as full passes would
    bound = N - 1
    while bound:
        last = 0
        for k in range(bound):
            if arr[k] > arr[k + 1]:
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                swaps.append(k)
                last = k
        bound = last
    assert len(swaps) <= N * (N - 1) // 2
    # recompose and verify: content of cell i flows to (t_L ... t_1)(i)
    acc = list(range(N))
    for k in swaps:
        acc[k], acc[k + 1] = acc[k + 1], acc[k]
    composed = [0] * N
    for pos, content in enumerate(acc):
        composed[content] = pos
    assert composed == sigma
    return swaps


def swap_layers(swaps):
    """Group a swap list into layers of swaps on disjoint cell pairs.

    Each swap goes into the first layer after every earlier swap that
    shares a cell with it, so swaps that overlap keep their order and
    applying the layers one after another is the same map as applying
    the swaps one after another.
    """
    # per cell, the index of the last layer touching it
    last = [-1] * (max(swaps, default=-1) + 2)
    layers = []
    for k in swaps:
        depth = max(last[k], last[k + 1]) + 1
        if depth == len(layers):
            layers.append([])
        layers[depth].append(k)
        last[k] = last[k + 1] = depth
    return layers


def check_smooth_samples(what, samples):
    """ResourceError if `samples` sample points exceed
    MAX_SMOOTH_SAMPLES; `what` names the action or stage."""
    if samples > MAX_SMOOTH_SAMPLES:
        raise ResourceError("%s needs %d samples, cap is %d"
                            % (what, samples, MAX_SMOOTH_SAMPLES))


def check_smooth_cells(what, grid):
    """ResourceError if an m x n smooth grid has more than
    MAX_SMOOTH_CELLS cells; `what` names the action or stage."""
    cells = grid[0] * grid[1]
    if cells > MAX_SMOOTH_CELLS:
        raise ResourceError("%s needs %d cells, cap is %d"
                            % (what, cells, MAX_SMOOTH_CELLS))


class RealizeReport(NamedTuple):
    plane_map: PlaneMap
    swaps: list
    delta: float
    drawn: list             # per cell, the sample points starting in it
    obeyed: list            # per cell, those landing in its image's cell

    @property
    def obedient(self):     # the sampled fraction landing in the right cell
        return sum(self.obeyed) / sum(self.drawn)


def obedience(plane, sigma, rng, samples):
    """(drawn, obeyed): per cell, how many of `samples` points drawn by
    `rng` start in it, and how many of those the CellSchedule `plane`
    moves into the cell sigma sends it to.

    The sample is drawn and judged SWAP_CHUNK points at a time, by
    rng.random((count, 2)), which continues the stream as one draw of
    all of them would.  A deep point ends where its start cell's
    trajectory ends (`paths.end`), the cell `CellSchedule.follow`
    writes, so it is counted there unmoved; only the shallow rest go
    through the layers (`Composite.forward`), at most SHALLOW_BATCH at a
    time.  So a verdict holds one chunk and one batch, whatever
    `samples`."""
    paths = plane.paths(False)
    image = np.asarray(sigma, dtype=np.intp)
    # per cell, the points drawn in it and those that obeyed
    counts = np.zeros((2, len(sigma)), dtype=np.intp)

    def obeyed(start, end):
        counts[1] += np.bincount(start[end == image[start]],
                                 minlength=len(sigma))

    def shallow():
        for lo, hi in chunks(0, samples, SWAP_CHUNK):
            pts = TrackedPoints.draw(plane.index, rng, hi - lo)
            start = pts.cell.astype(np.intp)
            counts[0] += np.bincount(start, minlength=len(sigma))
            _, rest = plane.split(pts, slice(None), paths)
            end = paths.end.take(start)
            end[rest] = -1              # judged once through the layers
            obeyed(start, end)
            yield pts.array()[rest]

    for batch in _batches(shallow(), np.empty((0, 2))):
        # cells are found point by point, so these are the draw's
        part = TrackedPoints(plane.index, batch)
        start = part.cell.astype(np.intp)
        Composite.forward(plane, part)
        obeyed(start, part.cell)
    return counts[0].tolist(), counts[1].tolist()


def realize_perm(sigma, grid, eps, seed=0, samples=20000):
    """Smooth map moving each grid cell onto its image under sigma, and
    the per-cell counts (`obedience`) of `samples` points drawn once
    with `seed` and moved once through it.

    The budget eps is split evenly over the adjacent swaps, each of
    delta = min(eps / len(swaps), MAX_DELTA), applied in layers of
    disjoint swaps (`swap_layers`).  A swap mishandles only its ring and
    the corners of its pair past the outer disk, 2 delta / N of the
    square for N cells, and the swaps preserve measure, so at most
    2 eps / N <= eps of it is mishandled in all.  No other delta is
    tried: judging the sampled fraction against 1 - eps is the caller's.
    """
    m, n = grid
    check_smooth_cells("smooth %dx%d grid" % (m, n), grid)
    if not 0 < eps < 1:
        raise InputError("eps must be in (0, 1), got %r" % (eps,))
    if samples < 1:
        raise InputError("samples must be at least 1, got %r" % (samples,))
    check_smooth_samples("smooth %dx%d grid" % (m, n), samples)
    if len(sigma) != m * n:
        raise InputError("permutation has %d entries, the %dx%d grid %d cells"
                         % (len(sigma), m, n, m * n))
    swaps = perm_to_swaps(sigma)
    delta = min(eps / max(len(swaps), 1), MAX_DELTA)
    plane = CellSchedule(grid, swap_layers(swaps), delta)
    return RealizeReport(plane, swaps, delta, *obedience(
        plane, sigma, np.random.default_rng(seed), samples))
