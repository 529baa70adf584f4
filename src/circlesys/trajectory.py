"""Deep points of a smooth-swap pass, moved along their cell's trajectory.

A swap is the exact point reflection (u, v) -> (2 - u, 1 - v) of its
pair on the core r < r_in, which is |u - 1| < sqrt(1 - delta) and
|v - 1/2| < sqrt(1 - delta)/2 in pair coordinates.  So a point at least
w = 1 - sqrt(1 - delta) + DEEP_SLACK cell widths from each edge of its
cell is in the core of any pair holding the cell, horizontal or
vertical, on either side; the half-turn keeps its distance to every
edge, so it stays that deep through every swap it meets.  Such a deep
point follows its start cell's trajectory: at each step the floating-
point operations a CellSwap applies to a core point, and no test of
its rectangle, ring or cell, whose outcome is known.

This is a module of its own because each smooth command compiles it
from source when no byte-code cache is written: folded into `smoothreal`
it raised an 8x8 `smooth realize`'s peak RSS from 37.6 to 38.0 MB
(medians of 14 fresh children, seeds 1 and 2, on a 2-vCPU guest).
"""

import math
from dataclasses import dataclass

import numpy as np

# Margin, in cell widths, that a deep point keeps beyond the ring of
# every swap it meets.  One step rounds each coordinate five times and
# moves its distance to a cell edge by less than (m/2 + 5) 2^-52 cell
# widths along an axis of m cells (the last addition rounds in [0, 1]).
# Over the at most 2,045 steps of a grid of 1,024 cells that is 2.4e-10
# on 1024x1 and 1e-11 on 32x32; on the 1024x1 reversal the margin left
# is 0.8 of this slack, as at the start.
DEEP_SLACK = 1e-9


@dataclass
class Trajectories:
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


class DeepPoints:
    """The deep points of the passes of one CellSchedule, on its
    SwapTables and the pair-table rows of its layers.  The tables hold
    x and y as rows, so each numpy step runs along the points."""

    def __init__(self, tables, rows):
        self.tables = tables
        self.rows = rows
        self.size = np.reshape(tables.scale, (2, 1))
        # per pair, the origin's x and y, then the core reflection as
        # u -> 2 - u on the long axis and v -> 1 - v on the short one
        self.turn = np.concatenate([tables.origin.T, np.where(
            tables.transpose, [[1.0], [2.0]], [[2.0], [1.0]])])
        delta = tables.inner.delta
        # the largest offset from a cell's centre, 1/2 - w, with
        # 1 - sqrt(1 - delta) written without its cancellation
        self.reach = 0.5 - (delta / (1 + math.sqrt(1 - delta)) + DEEP_SLACK)
        self._paths = {}

    def paths(self, inverse):
        """The Trajectories of a forward or an inverse pass."""
        if inverse not in self._paths:
            self._paths[inverse] = Trajectories.walk(
                self.rows[::-1] if inverse else self.rows,
                self.tables.index.size)
        return self._paths[inverse]

    def move(self, pts, part, inverse):
        """Move the deep points in the slice `part` of TrackedPoints pts
        to where the pass takes them; the indices in `part` of the
        shallow rest, the points near a cell edge or off the unit square
        whose cell meets a pair."""
        t, paths = self.tables, self.paths(inverse)
        n, m = t.index.shape
        cell = pts.cell[part].astype(np.intp)
        # the larger offset from the cell's centre, in cell widths
        far = np.abs(pts.x[part] * m - t.centre[0].take(cell))
        np.maximum(far, np.abs(pts.y[part] * n - t.centre[1].take(cell)),
                   out=far)
        deep = far <= self.reach
        moved = paths.steps.take(cell) > 0
        hit = np.flatnonzero(moved & deep)
        if len(hit):
            self.follow(pts, hit + part.start, paths)
        return np.flatnonzero(moved & ~deep)

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
            self.half_turns(moving[:, :count],
                            paths.pairs[j].take(start[:count]))
        pts.x[hit], pts.y[hit] = moving
        pts.cell[hit] = paths.end.take(start)

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
