"""Smooth stage maps: the conjugated rotations S_n = H R H^{-1}.

Each relabeling h_m of a grid process is realized on its first-column
block by `smoothreal.realize_perm` and copied periodically across the
circle (PeriodicStrip); H = h_1 o ... o h_n conjugates the stage-n
rotation R by p[n]/q[n].  `map_distance` and `sample_jacobian` measure
plane maps.  Only `smooth stage` and the library use this module, so
`smooth swap` and `smooth realize` never load it.
"""

import numpy as np

from .errors import ToleranceError
from .smoothreal import (Composite, PlaneMap, check_smooth_cells,
                         realize_perm, zigzag_table)


class PeriodicStrip(PlaneMap):
    """A map of [0, w]x[0,1] copied periodically in x with period w."""

    def __init__(self, inner, width):
        self.inner = inner
        self.width = width

    def _apply(self, pts, fn):
        local = np.array(pts, dtype=float, copy=True)
        base = np.floor(local[:, 0] / self.width) * self.width
        local[:, 0] -= base
        local[:, 0] /= self.width
        out = fn(local)
        out[:, 0] = out[:, 0] * self.width + base
        return out

    def forward(self, pts):
        return self._apply(pts, self.inner.forward)

    def inverse(self, pts):
        return self._apply(pts, self.inner.inverse)


class Rotation(PlaneMap):
    def __init__(self, alpha):
        self.alpha = float(alpha)

    def _shift(self, pts, alpha):
        out = np.array(pts, dtype=float, copy=True)
        out[:, 0] = (out[:, 0] + alpha) % 1.0
        return out

    def forward(self, pts):
        return self._shift(pts, self.alpha)

    def inverse(self, pts):
        return self._shift(pts, -self.alpha)


class StageMap(PlaneMap):
    """S_n = H R H^{-1}, H = h_1 o ... o h_n one Composite (h_n first)."""

    def __init__(self, h_maps, alpha):
        self.h = Composite(reversed(h_maps))
        self.rot = Rotation(alpha)

    def conjugate_in(self, pts):
        return self.h.inverse(pts)

    def conjugate_out(self, pts):
        return self.h.forward(pts)

    def forward(self, pts):
        return self.conjugate_out(self.rot.forward(self.conjugate_in(pts)))

    def inverse(self, pts):
        return self.conjugate_out(self.rot.inverse(self.conjugate_in(pts)))


def first_column_sigma(params, n, h_grid):
    """Cell permutation of the first-column block of a relabeling,
    in boustrophedon numbering on the k[n] x s[n+1] cell grid."""
    k = params.k[n]
    rows = params.s[n + 1]
    index = zigzag_table((k, rows))
    # h maps the block onto itself (see h_from_words): the atom in row s,
    # column t < k of h's grid goes to row img // cols, column img % cols
    img = h_grid.table.reshape(rows, h_grid.cols)[:, :k]
    sigma = np.empty(k * rows, dtype=np.int64)
    sigma[index] = index.ravel()[img // h_grid.cols * k + img % h_grid.cols]
    return sigma.tolist()


def stage_map(params, h_grids, eps=0.05, seed=0, samples=20000):
    """Smooth realization S_n of the stage-n transformation.

    h_grids are the grid relabelings h_1..h_n at native resolution.
    Each is realized on its first-column block and copied periodically
    with period 1/q[m-1]; the conjugated rotation by p[n]/q[n] is S_n.
    Returns (StageMap, list of RealizeReport); ToleranceError names the
    first stage whose sampled obedient fraction is below 1 - eps.
    """
    maps = []
    reports = []
    for m, h in enumerate(h_grids):
        grid = (params.k[m], params.s[m + 1])
        check_smooth_cells("stage-%d smooth grid" % (m + 1), grid)
        sigma = first_column_sigma(params, m, h)
        rep = realize_perm(sigma, grid, eps, seed=seed + m, samples=samples)
        if rep.obedient < 1 - eps:
            raise ToleranceError("stage %d obedient fraction %.4f below 1 - %g"
                                 % (m + 1, rep.obedient, eps),
                                 achieved=1 - rep.obedient, stage=m + 1)
        reports.append(rep)
        width = 1.0 / params.q[m]
        maps.append(PeriodicStrip(rep.plane_map, width)
                    if params.q[m] > 1 else rep.plane_map)
    n = len(h_grids)
    return StageMap(maps, params.alpha(n)), reports


def map_distance(map_a, map_b, pts):
    """Mean and max displacement between two maps of the cylinder,
    with the horizontal coordinate taken mod 1."""
    a = map_a.forward(np.asarray(pts, dtype=float))
    b = map_b.forward(np.asarray(pts, dtype=float))
    d = np.abs(a - b)
    d[:, 0] = np.minimum(d[:, 0], 1.0 - d[:, 0])
    dist = np.hypot(d[:, 0], d[:, 1])
    return float(np.mean(dist)), float(np.max(dist))


def sample_jacobian(plane_map, pts, h=1e-5):
    """Central-difference Jacobian determinants of a plane map."""
    pts = np.asarray(pts, dtype=float)
    dx = np.array([h, 0.0])
    dy = np.array([0.0, h])
    fxp = plane_map.forward(pts + dx)
    fxm = plane_map.forward(pts - dx)
    fyp = plane_map.forward(pts + dy)
    fym = plane_map.forward(pts - dy)
    jxx = (fxp[:, 0] - fxm[:, 0]) / (2 * h)
    jyx = (fxp[:, 1] - fxm[:, 1]) / (2 * h)
    jxy = (fyp[:, 0] - fym[:, 0]) / (2 * h)
    jyy = (fyp[:, 1] - fym[:, 1]) / (2 * h)
    return jxx * jyy - jxy * jyx
