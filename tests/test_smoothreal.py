import io
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys import cli, ratarith, smoothreal
from circlesys.errors import InputError, ResourceError, ToleranceError
from circlesys.procsim import h_from_words
from circlesys.ratarith import derive_params
from circlesys.smoothreal import (DEEP_SLACK, MAX_DELTA, MAX_SMOOTH_CELLS,
                                  MAX_SMOOTH_SAMPLES,
                                  CellSchedule, CellSwap, Composite, PlaneMap,
                                  StandardSwap, SwapTables, TrackedPoints,
                                  Trajectories, obedience, perm_to_swaps,
                                  realize_perm, swap_layers, zigzag_table)
from circlesys.smoothreal import _disk_to_square, _square_to_disk, smoothstep
from circlesys.stagemap import (first_column_sigma, map_distance,
                                sample_jacobian, stage_map)
from oracles import (cell_of_points, dict_swap_layers,
                     full_pass_perm_to_swaps, loop_first_column_sigma,
                     zigzag_cell)
from strategies import small_processes

RNG = np.random.default_rng(20240817)
DESK_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def test_square_disk_round_trip():
    lim = 1 / math.sqrt(2)
    x = RNG.uniform(-lim, lim, 4000)
    y = RNG.uniform(-lim, lim, 4000)
    X, Y = _square_to_disk(x, y)
    assert np.max(np.hypot(X, Y)) <= math.sqrt(2 / math.pi) + 1e-12
    x2, y2 = _disk_to_square(X, Y)
    assert np.max(np.abs(x - x2)) < 1e-12
    assert np.max(np.abs(y - y2)) < 1e-12


def test_standard_swap_regions():
    sw = StandardSwap(0.1)
    pts = RNG.random((20000, 2)) * np.array([2.0, 1.0])
    out = sw.forward(pts)
    x = (pts[:, 0] - 1.0) / math.sqrt(2)
    y = (pts[:, 1] - 0.5) * math.sqrt(2)
    X, Y = _square_to_disk(x, y)
    r = np.hypot(X, Y)
    inner = r < sw.r_in - 1e-6
    outer = r > sw.R + 1e-6
    # exact point reflection on the inner disk, identity outside
    refl = np.stack([2.0 - pts[:, 0], 1.0 - pts[:, 1]], axis=1)
    assert np.array_equal(out[inner], refl[inner])
    assert np.array_equal(out[outer], pts[outer])
    back = sw.inverse(out)
    assert np.max(np.abs(back - pts)) < 1e-9


def twist_before_core_split(self, pts, sign):
    """StandardSwap._twist before it split off the core and the outside,
    verbatim: every point goes through the concentric map and the twist."""
    # a layer of swaps hands over most points at once, so each
    # stage's temporaries are dropped before the next is made
    X, Y = _square_to_disk((pts[:, 0] - 1.0) / math.sqrt(2),
                           (pts[:, 1] - 0.5) * math.sqrt(2))
    f = sign * (math.pi
                * smoothstep((self.R - np.hypot(X, Y)) / self.gamma))
    c, s = np.cos(f), np.sin(f)
    del f
    X, Y = X * c - Y * s, X * s + Y * c
    del c, s
    x, y = _disk_to_square(X, Y)
    del X, Y
    out = np.empty_like(pts, dtype=float)
    out[:, 0] = x * math.sqrt(2) + 1.0
    out[:, 1] = y / math.sqrt(2) + 0.5
    return out


def swap_radius(pts):
    """Disk radius of each point of [0,2]x[0,1]: 2/sqrt(pi) times the
    sup-radius of its square ring."""
    x = (pts[:, 0] - 1.0) / math.sqrt(2)
    y = (pts[:, 1] - 0.5) * math.sqrt(2)
    return np.maximum(np.abs(x), np.abs(y)) * (2.0 / math.sqrt(math.pi))


def reflect(pts):
    return np.stack([2.0 - pts[:, 0], 1.0 - pts[:, 1]], axis=1)


@st.composite
def swaps_and_points(draw):
    """A StandardSwap with delta in (0, 1/2) and points of [0,2]x[0,1]:
    drawn ones, the corners, edge midpoints and centre, and points
    on the ring r_in <= r <= R, its two rims included."""
    sw = StandardSwap(draw(st.floats(0, 0.5, exclude_min=True,
                                     exclude_max=True)))
    drawn = draw(st.lists(st.tuples(st.floats(0, 2), st.floats(0, 1)),
                          max_size=40))
    marks = [(u, v) for u in (0.0, 1.0, 2.0) for v in (0.0, 0.5, 1.0)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = np.concatenate([[sw.r_in, sw.R] * 8,
                             rng.uniform(sw.r_in, sw.R, 200)])
    t = radius * (math.sqrt(math.pi) / 2)        # sup-radius of the square
    s = rng.uniform(-1, 1, len(t)) * t
    side = rng.integers(0, 4, len(t))
    x = np.where(side == 0, t, np.where(side == 1, -t, s))
    y = np.where(side == 2, t, np.where(side == 3, -t, s))
    ring = np.stack([x * math.sqrt(2) + 1.0, y / math.sqrt(2) + 0.5], axis=1)
    pts = np.vstack([np.array(drawn + marks, dtype=float).reshape(-1, 2),
                     np.clip(ring, (0.0, 0.0), (2.0, 1.0))])
    return sw, pts


@given(swaps_and_points())
@settings(max_examples=100, deadline=None)
def test_standard_swap_core_is_exact_reflection(swap_pts):
    sw, pts = swap_pts
    core = swap_radius(pts) < sw.r_in
    for out in (sw.forward(pts), sw.inverse(pts)):
        assert np.array_equal(out[core], reflect(pts)[core])


@given(swaps_and_points())
@settings(max_examples=100, deadline=None)
def test_standard_swap_is_identity_beyond_r(swap_pts):
    sw, pts = swap_pts
    outer = swap_radius(pts) >= sw.R
    for out in (sw.forward(pts), sw.inverse(pts)):
        assert np.array_equal(out[outer], pts[outer])


@given(swaps_and_points())
@settings(max_examples=100, deadline=None)
def test_standard_swap_round_trip_off_the_ring(swap_pts):
    sw, pts = swap_pts
    r = swap_radius(pts)
    out = sw.forward(pts)
    back = sw.inverse(out)
    outer = r >= sw.R
    assert np.array_equal(back[outer], pts[outer])
    # where both maps reflect, the round trip is 2 - (2 - u), 1 - (1 - v):
    # exact when u >= 1 and v >= 1/2 (Sterbenz), and otherwise off by the
    # rounding of 2 - u into (1, 2] or of 1 - v into (1/2, 1], because
    # those hold half as many doubles as the numbers they mirror
    both = (r < sw.r_in) & (swap_radius(out) < sw.r_in)
    exact = both & (pts[:, 0] >= 1) & (pts[:, 1] >= 0.5)
    assert np.array_equal(back[exact], pts[exact])
    assert np.all(np.abs(back[both] - pts[both]) <= 2.0 ** -53)


@given(swaps_and_points())
@settings(max_examples=100, deadline=None)
def test_standard_swap_ring_equals_full_twist(swap_pts):
    sw, pts = swap_pts
    r = swap_radius(pts)
    ring = (r >= sw.r_in) & (r < sw.R)
    for sign, fn in ((+1.0, sw.forward), (-1.0, sw.inverse)):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = twist_before_core_split(sw, pts, sign)
        assert np.array_equal(fn(pts)[ring], want[ring])


@given(swaps_and_points())
@settings(max_examples=50, deadline=None)
def test_standard_swap_sends_only_ring_points_through_the_disk(swap_pts):
    sw, pts = swap_pts
    r = swap_radius(pts)
    ring = (r >= sw.r_in) & (r < sw.R)
    seen = {"square": [], "disk": []}

    def counted(key, fn):
        def wrapper(a, b):
            seen[key].append((a, b))
            return fn(a, b)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoothreal, "_square_to_disk",
                   counted("square", _square_to_disk))
        mp.setattr(smoothreal, "_disk_to_square",
                   counted("disk", _disk_to_square))
        sw.forward(pts)
        sw.inverse(pts)
    want_x = (pts[ring, 0] - 1.0) / math.sqrt(2)
    want_y = (pts[ring, 1] - 0.5) * math.sqrt(2)
    assert len(seen["square"]) == len(seen["disk"]) == \
        (2 if ring.any() else 0)
    for x, y in seen["square"]:
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
    assert all(len(X) == len(Y) == ring.sum() for X, Y in seen["disk"])


def test_delta_range():
    with pytest.raises(InputError):
        StandardSwap(0.0)
    with pytest.raises(InputError):
        StandardSwap(0.6)


def polar_twist_jacobian(delta, r, h=1e-6):
    """Finite-difference Jacobian of the twist in polar coordinates.

    (r, theta) -> (r, theta + f(r)) has determinant exactly 1; the
    finite difference confirms it to roundoff regardless of how steep
    f is, because dr'/dtheta vanishes identically.
    """
    swap = StandardSwap(delta)

    def fwd(rr, th):
        f = math.pi * float(smoothstep(np.asarray([(swap.R - rr) / swap.gamma]))[0])
        return rr, th + f

    r = np.asarray(r, dtype=float)
    dets = []
    for rr in r:
        r1p, t1p = fwd(rr + h, 0.3)
        r1m, t1m = fwd(rr - h, 0.3)
        r2p, t2p = fwd(rr, 0.3 + h)
        r2m, t2m = fwd(rr, 0.3 - h)
        drr = (r1p - r1m) / (2 * h)
        dtr = (t1p - t1m) / (2 * h)
        drt = (r2p - r2m) / (2 * h)
        dtt = (t2p - t2m) / (2 * h)
        dets.append(drr * dtt - drt * dtr)
    return np.asarray(dets)


def test_polar_jacobian_unit():
    sw = StandardSwap(0.1)
    r = np.linspace(sw.r_in + 1e-4, sw.R - 1e-4, 40)
    assert np.max(np.abs(polar_twist_jacobian(0.1, r) - 1)) < 1e-8


def test_cartesian_jacobian_unit():
    sw = StandardSwap(0.1)
    pts = sw.smooth_samples(np.random.default_rng(5), 2000)
    dets = sample_jacobian(sw, pts)
    assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-6


def test_zigzag():
    assert [zigzag_cell((3, 2), k) for k in range(6)] == \
        [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
    for k in range(6):
        c, r = zigzag_cell((3, 2), k)
        assert zigzag_table((3, 2))[r, c] == k


def test_cell_swap_vertical_pair():
    # pair (2, 3) on a 3x2 grid crosses rows in the same column
    swap = CellSchedule((3, 2), [[2]], 0.05)
    assert swap.maps[0].tables.transpose[2]
    pts = RNG.random((5000, 2))
    out = swap.forward(pts)
    src = cell_of_points((3, 2), pts)
    dst = cell_of_points((3, 2), out)
    moved = np.isin(src, (2, 3))
    assert np.array_equal(dst[~moved], src[~moved])
    target = np.where(src == 2, 3, np.where(src == 3, 2, src))
    assert np.mean(dst[moved] == target[moved]) > 0.9


def cell_of_points_by_formula(grid, pts):
    """cell_of_points before the table lookup, verbatim."""
    m, n = grid
    col = np.clip((pts[:, 0] * m).astype(int), 0, m - 1)
    row = np.clip((pts[:, 1] * n).astype(int), 0, n - 1)
    pos = np.where(row % 2 == 0, col, m - 1 - col)
    return row * m + pos


@st.composite
def grid_points(draw):
    """A grid and points on its cell edges, next to them, at 0 and 1 and
    slightly outside [0, 1]."""
    grid = draw(st.integers(1, 32)), draw(st.integers(1, 32))

    def coord(cells):
        edge = st.integers(0, cells).map(lambda k: k / cells)
        return st.one_of(st.floats(-0.01, 1.01), edge,
                         edge.map(lambda e: math.nextafter(e, -math.inf)),
                         edge.map(lambda e: math.nextafter(e, math.inf)))

    pts = draw(st.lists(st.tuples(coord(grid[0]), coord(grid[1])),
                        min_size=1, max_size=60))
    return grid, np.array(pts, dtype=float)


@given(grid_points())
@settings(max_examples=200, deadline=None)
def test_cell_of_points_matches_formula(grid_pts):
    grid, pts = grid_pts
    got = cell_of_points(grid, pts)
    want = cell_of_points_by_formula(grid, pts)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_perm_to_swaps_recompose():
    swaps = perm_to_swaps([2, 0, 1, 3])
    acc = list(range(4))
    for k in swaps:
        acc[k], acc[k + 1] = acc[k + 1], acc[k]
    composed = [0] * 4
    for pos, content in enumerate(acc):
        composed[content] = pos
    assert composed == [2, 0, 1, 3]
    with pytest.raises(InputError):
        perm_to_swaps([0, 0, 1])


@given(st.integers(2, 5), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_perm_to_swaps_bound(m, n, rnd):
    # bubble sort makes exactly one adjacent swap per inversion
    size = m * n
    sigma = list(range(size))
    rnd.shuffle(sigma)
    swaps = perm_to_swaps(sigma)
    inversions = sum(1 for i in range(size) for j in range(i + 1, size)
                     if sigma[i] > sigma[j])
    assert len(swaps) == inversions


def test_realize_perm_obedience():
    sigma = [int(v) for v in np.random.default_rng(3).permutation(16)]
    rep = realize_perm(sigma, (4, 4), 0.1, seed=1, samples=20000)
    assert rep.obedient >= 0.9
    # fresh sample, same map: obedience generalizes
    pts = np.random.default_rng(99).random((20000, 2))
    got = cell_of_points((4, 4), rep.plane_map.forward(pts))
    want = np.asarray(sigma)[cell_of_points((4, 4), pts)]
    assert np.mean(got == want) >= 0.9


def test_realize_identity():
    rep = realize_perm(list(range(4)), (2, 2), 0.1)
    assert rep.swaps == []
    assert rep.obedient == 1.0
    # an array in gives a fresh, equal array out; tracked points are
    # returned as they are
    pts = RNG.random((100, 2))
    tracked = TrackedPoints(zigzag_table((2, 2)), pts)
    for fn in (rep.plane_map.forward, rep.plane_map.inverse):
        out = fn(pts)
        assert np.array_equal(out, pts) and not np.shares_memory(out, pts)
        assert fn(tracked) is tracked


def test_stage_map_measure_preserving():
    params = derive_params([2, 2], [4, 4], [2, 2, 4])
    h1 = h_from_words(params, 0, [(0, 1), (1, 0)])
    S1, reports = stage_map(params, [h1], eps=0.05, seed=2, samples=20000)
    assert all(r.obedient >= 0.95 for r in reports)
    pts = RNG.random((4000, 2))
    back = S1.inverse(S1.forward(pts))
    d = np.abs(back - pts)
    d[:, 0] = np.minimum(d[:, 0], 1 - d[:, 0])
    assert np.max(d) < 1e-9


def test_stage_map_names_the_first_stage_below_budget(monkeypatch):
    # the real stage_map and realize_perm, with the sample of stage 2
    # obeying three times in four
    real, calls = smoothreal.obedience, []

    def obedience_low_at_stage_2(plane, sigma, rng, samples):
        calls.append(len(sigma))
        if len(calls) != 2:
            return real(plane, sigma, rng, samples)
        rest = [0] * (len(sigma) - 1)
        return [samples] + rest, [samples * 3 // 4] + rest

    monkeypatch.setattr(smoothreal, "obedience", obedience_low_at_stage_2)
    params = derive_params([2, 2], [4, 4], [2, 2, 4])
    grids = [h_from_words(params, 0, [(0, 1), (1, 0)]),
             h_from_words(params, 1, [(0, 1), (1, 0), (0, 1), (1, 0)])]
    with pytest.raises(ToleranceError, match="^stage 2 obedient fraction "
                       "0.7500 below 1 - 0.1$") as err:
        stage_map(params, grids, eps=0.1, samples=400)
    assert err.value.achieved == 0.25 and err.value.stage == 2
    assert calls == [4, 8]
    calls.clear()
    out = io.StringIO()
    argv = ["smooth", "stage", "--params", str(DESK_DATA / "desk.params"),
            "--hwords", str(DESK_DATA / "words1.txt"),
            "--hwords", str(DESK_DATA / "words2_desk.txt"),
            "--eps", "0.1", "--samples", "400"]
    assert cli.main(argv, out=out) == 1 and calls == [4, 8]
    assert out.getvalue() == "FAIL obedient 0.7500 (need 0.9000), stage 2\n"


def test_map_distance_zero_on_self():
    sw = CellSchedule((2, 2), [[0]], 0.05)
    mean, mx = map_distance(sw, sw, RNG.random((1000, 2)))
    assert mean == 0 and mx == 0


@st.composite
def grid_perms(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return (m, n), draw(st.permutations(range(m * n)))


class OnePairSwap(PlaneMap):
    """The per-swap map from before layering: StandardSwap conjugated
    into one pair, which tests every point against its rectangle."""

    def __init__(self, grid, k, delta):
        m, n = grid
        (c0, r0), (c1, r1) = zigzag_cell(grid, k), zigzag_cell(grid, k + 1)
        self.inner = StandardSwap(delta)
        self.transpose = c0 == c1
        self.origin = (min(c0, c1) / m, min(r0, r1) / n)
        self.scale = (1.0 / m, 1.0 / n)

    def _apply(self, pts, fn):
        pts = np.array(pts, dtype=float, copy=True)
        u = (pts[:, 0] - self.origin[0]) / self.scale[0]
        v = (pts[:, 1] - self.origin[1]) / self.scale[1]
        std = np.stack([v, u] if self.transpose else [u, v], axis=1)
        inside = (std[:, 0] >= 0) & (std[:, 0] < 2.0) & \
                 (std[:, 1] >= 0) & (std[:, 1] < 1.0)
        if inside.any():
            out = fn(std[inside])
            u, v = (out[:, 1], out[:, 0]) if self.transpose \
                else (out[:, 0], out[:, 1])
            pts[inside] = np.stack([u * self.scale[0] + self.origin[0],
                                    v * self.scale[1] + self.origin[1]],
                                   axis=1)
        return pts

    def forward(self, pts):
        return self._apply(pts, self.inner.forward)

    def inverse(self, pts):
        return self._apply(pts, self.inner.inverse)


class UntrackedCellSwap(CellSwap):
    """CellSwap whose _apply finds every point's cell on every call:
    CellSwap._apply before the cells were tracked, verbatim but for
    reading the shared tables by pair index."""

    def _apply(self, pts, fn):
        t = self.tables
        pts = np.array(pts, dtype=float, copy=True)
        pair = self.pair_of_cell[cell_of_points(t.index.shape[::-1], pts)]
        hit = np.flatnonzero(pair >= 0)
        pair = pair[hit]
        flip = t.transpose[pair]
        std = np.empty((len(hit), 2))
        u = (pts[hit, 0] - t.turn[0, pair]) / t.size[0]
        v = (pts[hit, 1] - t.turn[1, pair]) / t.size[1]
        std[:, 0] = np.where(flip, v, u)
        std[:, 1] = np.where(flip, u, v)
        del u, v
        # at a cell edge the rectangle, the swap's domain, has the last word
        inside = (std[:, 0] >= 0) & (std[:, 0] < 2.0) & \
                 (std[:, 1] >= 0) & (std[:, 1] < 1.0)
        if not inside.all():
            hit, pair, flip, std = (a[inside] for a in (hit, pair, flip, std))
        if len(hit):
            std = fn(std)
            pts[hit, 0] = (np.where(flip, std[:, 1], std[:, 0])
                           * t.size[0] + t.turn[0, pair])
            pts[hit, 1] = (np.where(flip, std[:, 0], std[:, 1])
                           * t.size[1] + t.turn[1, pair])
        return pts


def untracked_layers(grid, layers, delta):
    """UntrackedCellSwap layers on one shared SwapTables."""
    tables = SwapTables(grid, delta)
    return Composite([UntrackedCellSwap(tables, layer, row) for layer, row
                      in zip(layers, tables.pair_of_cell(layers))])


def edge_points(grid, rng, count):
    """`count` uniform points of the unit square, then every point whose
    x is a cell edge i/m or the double just below or above one, and whose
    y is likewise j/n or a neighbour of it."""
    m, n = grid

    def near(edges):
        return np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])

    xs = near(np.arange(m + 1) / m)
    ys = near(np.arange(n + 1) / n)
    cross = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    return np.vstack([rng.random((count, 2)), cross])


@given(grid_perms(), st.floats(1e-3, 0.49), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_layered_map_equals_per_swap_map(grid_perm, delta, seed):
    grid, sigma = grid_perm
    swaps = perm_to_swaps(sigma)
    layered = CellSchedule(grid, swap_layers(swaps), delta)
    pts = np.random.default_rng(seed).random((300, 2))
    for oracle in (CellSchedule(grid, [[k] for k in swaps], delta),
                   Composite([OnePairSwap(grid, k, delta) for k in swaps])):
        assert np.array_equal(layered.forward(pts), oracle.forward(pts))
        assert np.array_equal(layered.inverse(pts), oracle.inverse(pts))


@given(grid_perms(), st.floats(1e-3, 0.49), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tracked_schedule_equals_untracked_layers(grid_perm, delta, seed):
    grid, sigma = grid_perm
    swaps = perm_to_swaps(sigma)
    layers = swap_layers(swaps)
    tracked = CellSchedule(grid, layers, delta)
    pts = edge_points(grid, np.random.default_rng(seed), 300)
    untracked = untracked_layers(grid, layers, delta)
    assert np.array_equal(tracked.forward(pts), untracked.forward(pts))
    assert np.array_equal(tracked.inverse(pts), untracked.inverse(pts))
    # per swap, a point within an ulp of a cell edge can fall in another
    # pair's rectangle than its cell's, so only the drawn points compare
    pts = pts[:300]
    per_swap = Composite([OnePairSwap(grid, k, delta) for k in swaps])
    assert np.array_equal(tracked.forward(pts), per_swap.forward(pts))
    assert np.array_equal(tracked.inverse(pts), per_swap.inverse(pts))


@given(grid_perms(), st.floats(1e-3, 0.49), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tracked_schedule_contract(grid_perm, delta, seed):
    grid, sigma = grid_perm
    swaps = perm_to_swaps(sigma)
    layers = swap_layers(swaps)
    pts = edge_points(grid, np.random.default_rng(seed), 300)
    given_pts = pts.copy()
    paired = np.isin(cell_of_points(grid, pts),
                     [c for k in swaps for c in (k, k + 1)])
    schedule = CellSchedule(grid, layers, delta)
    for plane in (schedule, CellSchedule(grid, layers[:1], delta)):
        for fn in (plane.forward, plane.inverse):
            out = fn(pts)
            assert out.shape == pts.shape and not np.shares_memory(out, pts)
            assert np.array_equal(pts, given_pts)
    # points outside every pair are never moved, at a cell edge too
    for fn in (schedule.forward, schedule.inverse):
        assert np.array_equal(fn(pts)[~paired], pts[~paired])
    # each layer undoes itself to rounding; through the whole schedule
    # later layers' twists amplify those roundings, so the bound is per layer
    trail = pts[:300]
    for layer in layers:
        step = CellSchedule(grid, [layer], delta)
        moved = step.forward(trail)
        assert np.max(np.abs(step.inverse(moved) - trail), initial=0.0) < 1e-9
        trail = moved
    assert np.array_equal(trail, schedule.forward(pts[:300]))


def schedule_in_chunks(grid, layers, delta, pts, chunk):
    """Forward and inverse of a CellSchedule with SWAP_CHUNK = chunk,
    and the sizes of the StandardSwap.forward calls of each layer of
    the forward pass."""
    handed = []
    layer_forward, swap_forward = CellSwap.forward, StandardSwap.forward

    def layer(self, pts):
        handed.append([])
        return layer_forward(self, pts)

    def swap(self, pts):
        handed[-1].append(len(pts))
        return swap_forward(self, pts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoothreal, "SWAP_CHUNK", chunk)
        mp.setattr(CellSwap, "forward", layer)
        mp.setattr(StandardSwap, "forward", swap)
        schedule = CellSchedule(grid, layers, delta)
        fwd = schedule.forward(pts)
        layers_seen = len(handed)
        inv = schedule.inverse(pts)
    assert len(handed) == layers_seen == len(layers)
    return fwd, inv, handed


@given(grid_perms(), st.floats(1e-3, 0.49), st.integers(0, 2**32 - 1),
       st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_chunked_schedule_equals_oracles(grid_perm, delta, seed, chunk):
    grid, sigma = grid_perm
    swaps = perm_to_swaps(sigma)
    layers = swap_layers(swaps)
    pts = edge_points(grid, np.random.default_rng(seed), 60)
    fwd, inv, handed = schedule_in_chunks(grid, layers, delta, pts, chunk)
    untracked = untracked_layers(grid, layers, delta)
    assert np.array_equal(fwd, untracked.forward(pts))
    assert np.array_equal(inv, untracked.inverse(pts))
    per_swap = Composite([OnePairSwap(grid, k, delta) for k in swaps])
    assert np.array_equal(fwd[:60], per_swap.forward(pts[:60]))
    assert np.array_equal(inv[:60], per_swap.inverse(pts[:60]))
    # every call gets at most one chunk, and each layer hands on as many
    # points as it does unchunked, so useful_frac does not change
    assert all(0 < size <= chunk for sizes in handed for size in sizes)
    _, _, whole = schedule_in_chunks(grid, layers, delta, pts, len(pts))
    assert all(len(sizes) <= 1 for sizes in whole)
    assert [sum(sizes) for sizes in handed] == [sum(sizes) for sizes in whole]


@given(grid_perms(), st.floats(1e-3, 0.49), st.integers(0, 2**32 - 1),
       st.integers(1, 7), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_windowed_scans_equal_one_window(grid_perm, delta, seed, chunk,
                                         window):
    grid, sigma = grid_perm
    layers = swap_layers(perm_to_swaps(sigma))
    pts = edge_points(grid, np.random.default_rng(seed), 60)
    whole = schedule_in_chunks(grid, layers, delta, pts, chunk)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratarith, "CHUNK", window)
        fwd, inv, handed = schedule_in_chunks(grid, layers, delta, pts, chunk)
        tracked = TrackedPoints(zigzag_table(grid), pts)
    assert np.array_equal(fwd, whole[0]) and np.array_equal(inv, whole[1])
    assert np.array_equal(tracked.cell, cell_of_points(grid, pts))
    # points found in one window are moved with the next window's, so
    # every StandardSwap call gets the chunk it gets with one window
    assert handed == whole[2]


@pytest.mark.parametrize("window", [1, 777, 4096])
def test_windowed_realize_equals_one_window(window, monkeypatch):
    sigma = [int(v) for v in np.random.default_rng(2).permutation(20)]
    want = realize_perm(sigma, (5, 4), 0.05, seed=3, samples=5000)
    monkeypatch.setattr(ratarith, "CHUNK", window)
    got = realize_perm(sigma, (5, 4), 0.05, seed=3, samples=5000)
    assert type(got.obedient) is float and got.obedient < 1
    assert (got.obedient, got.delta) == (want.obedient, want.delta)


def test_schedule_moves_tracked_points_in_place():
    sigma = [int(v) for v in np.random.default_rng(6).permutation(12)]
    schedule = CellSchedule((4, 3), swap_layers(perm_to_swaps(sigma)), 0.05)
    pts = edge_points((4, 3), np.random.default_rng(7), 500)
    for fn in (schedule.forward, schedule.inverse):
        tracked = TrackedPoints(zigzag_table((4, 3)), pts)
        moved = fn(tracked)
        assert moved is tracked
        assert np.array_equal(moved.array(), fn(pts))
        assert np.array_equal(moved.cell,
                              cell_of_points((4, 3), moved.array()))


@pytest.mark.parametrize("window", [1, 777, 4096])
def test_obedience_counts_each_cell(window, monkeypatch):
    # against one untracked pass and whole-sample bincounts
    sigma = [int(v) for v in np.random.default_rng(4).permutation(12)]
    plane = CellSchedule((4, 3), swap_layers(perm_to_swaps(sigma)), 0.05)
    monkeypatch.setattr(ratarith, "CHUNK", window)
    drawn, obeyed = obedience(plane, sigma, np.random.default_rng(5), 3000)
    pts = np.random.default_rng(5).random((3000, 2))
    src = cell_of_points((4, 3), pts)
    dst = cell_of_points((4, 3), plane.forward(pts))
    assert drawn == np.bincount(src, minlength=12).tolist()
    assert obeyed == np.bincount(src[dst == np.asarray(sigma)[src]],
                                 minlength=12).tolist()
    assert 0 < sum(obeyed) < sum(drawn) == 3000


@given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False),
       st.floats(1e-3, MAX_DELTA), st.integers(0, 2**32 - 1),
       st.integers(1, 300), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_chunked_obedience_equals_one_whole_sample_pass(
        m, n, rnd, delta, seed, samples, chunk, swap_chunk, batch):
    # delta up to MAX_DELTA, where realize_perm's eps / swaps stops, so
    # that near half the points are shallow; small chunks and batches
    # make the verdict's chunks and shallow batches cross each other
    sigma = list(range(m * n))
    rnd.shuffle(sigma)
    plane = CellSchedule((m, n), swap_layers(perm_to_swaps(sigma)), delta)
    pts = np.random.default_rng(seed).random((samples, 2))
    src = cell_of_points((m, n), pts)
    dst = cell_of_points((m, n), plane.forward(pts))
    want = (np.bincount(src, minlength=m * n).tolist(),
            np.bincount(src[dst == np.asarray(sigma)[src]],
                        minlength=m * n).tolist())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratarith, "CHUNK", chunk)
        mp.setattr(smoothreal, "SWAP_CHUNK", swap_chunk)
        mp.setattr(smoothreal, "SHALLOW_BATCH", batch)
        got = obedience(plane, sigma, np.random.default_rng(seed), samples)
    assert got == want


def test_realize_perm_memory_per_sample():
    # a verdict holds one SWAP_CHUNK of its sample, that chunk's working
    # arrays and at most SHALLOW_BATCH shallow points, whatever the
    # sample count: about 0.42 MB here at either count, where moving the
    # whole sample held about 22.7 bytes per sample (4.5 MB at 200,000)
    sigma = [int(v) for v in np.random.default_rng(1).permutation(64)]
    for samples in (200000, 2000000):
        tracemalloc.start()
        try:
            realize_perm(sigma, (8, 8), 0.1, seed=1, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, samples


def test_schedule_build_memory():
    # the pair table is the schedule's bulk; counting the writes to each
    # cell in the table itself needs no layers x cells count beside it
    sigma = [int(v) for v in np.random.default_rng(1).permutation(1024)]
    layers = swap_layers(perm_to_swaps(sigma))
    tracemalloc.start()
    try:
        schedule = CellSchedule((32, 32), layers, 1e-7)
        holds, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule.maps) == len(layers)
    assert peak <= 2 * holds


@given(grid_perms(), st.floats(1e-3, 0.999), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_realize_perm_reports_its_one_sample(grid_perm, eps, samples, seed):
    grid, sigma = grid_perm
    rep = realize_perm(sigma, grid, eps, seed=seed, samples=samples)
    assert rep.delta == min(eps / max(len(rep.swaps), 1), MAX_DELTA)
    assert len(rep.drawn) == len(rep.obeyed) == len(sigma)
    assert sum(rep.drawn) == samples
    assert rep.obedient == sum(rep.obeyed) / samples


def test_tracked_points_at_the_cell_cap():
    # 1,024 cells, the cap: the int16 cells and targets reach cell 1023
    grid = (32, 32)
    index = zigzag_table(grid)
    sigma = np.random.default_rng(8).permutation(MAX_SMOOTH_CELLS)
    pts = edge_points(grid, np.random.default_rng(9), 20000)
    tracked = TrackedPoints(index, pts)
    assert tracked.cell.dtype == np.int16
    assert np.array_equal(tracked.cell, cell_of_points(grid, pts))
    assert tracked.cell.max() == MAX_SMOOTH_CELLS - 1
    target = np.asarray(sigma, dtype=np.int16)[tracked.cell]
    assert np.array_equal(target, sigma[cell_of_points(grid, pts)])
    assert target.max() == MAX_SMOOTH_CELLS - 1
    drawn = TrackedPoints.draw(index, np.random.default_rng(3), 20000)
    assert np.array_equal(drawn.array(),
                          np.random.default_rng(3).random((20000, 2)))
    assert np.array_equal(drawn.cell, cell_of_points(grid, drawn.array()))


class Untouchable:
    """Points and a generator that fail if they are read or drawn."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("copied points past the cap")

    def random(self, *args):
        raise AssertionError("drew points past the cap")


@pytest.mark.parametrize("grid", [(33, 32), (1025, 1)])
def test_tracked_points_past_the_cell_cap_refused(grid):
    # refused before the points are copied or drawn
    index = zigzag_table(grid)
    message = "smooth %dx%d grid needs %d cells, cap is %d" % (
        grid + (grid[0] * grid[1], MAX_SMOOTH_CELLS))
    with pytest.raises(ResourceError, match=message):
        TrackedPoints(index, Untouchable())
    with pytest.raises(ResourceError, match=message):
        TrackedPoints.draw(index, Untouchable(), 10)


def test_realize_perm_samples_past_cap_refused():
    samples = MAX_SMOOTH_SAMPLES + 1
    with pytest.raises(ResourceError,
                       match="smooth 2x1 grid needs %d samples, cap is %d"
                       % (samples, MAX_SMOOTH_SAMPLES)):
        realize_perm([1, 0], (2, 1), 0.1, samples=samples)


@given(grid_perms())
@settings(max_examples=100, deadline=None)
def test_swap_layers_schedule(grid_perm):
    grid, sigma = grid_perm
    N = grid[0] * grid[1]
    swaps = perm_to_swaps(sigma)
    layers = swap_layers(swaps)
    for layer in layers:
        cells = [c for k in layer for c in (k, k + 1)]
        assert len(cells) == len(set(cells))
    flat = [k for layer in layers for k in layer]
    assert Counter(flat) == Counter(swaps)
    # swaps that overlap share a cell; per cell, their order is kept
    for c in range(N):
        assert [k for k in flat if c - 1 <= k <= c] == \
            [k for k in swaps if c - 1 <= k <= c]
    assert len(layers) <= max(1, 2 * N - 3)


@pytest.mark.parametrize("N", [2, 3, 7, 16])
def test_reversal_takes_2n_minus_3_layers(N):
    assert len(swap_layers(perm_to_swaps(range(N)[::-1]))) == max(1, 2 * N - 3)


def test_cell_swap_refuses_pairs_sharing_a_cell():
    # overlapping pairs, and a pair listed twice in one layer
    for layer, k in (([1, 2], 2), ([1, 1], 1)):
        with pytest.raises(InputError, match="pair %d shares a cell" % k):
            CellSchedule((3, 2), [[0], layer], 0.05)


def test_layer_past_int16_counts_refused():
    # 65,537 writes to cells 1 and 2 would wrap an int16 count to 1
    with pytest.raises(InputError, match="pair 1 shares a cell"):
        CellSchedule((3, 2), [[0], [1] * 65537], 0.05)


def test_pair_table_is_int16_within_the_cell_cap():
    assert MAX_SMOOTH_CELLS - 1 <= np.iinfo(np.int16).max
    table = SwapTables((4, 3), 0.05).pair_of_cell([[0, 2], [9]])
    assert table.dtype == np.int16
    assert table.tolist() == [[0, 0, 2, 2] + [-1] * 8,
                              [-1] * 9 + [9, 9, -1]]
    with pytest.raises(ResourceError, match="needs 1056 cells, cap is 1024"):
        SwapTables((33, 32), 0.05)


@given(small_processes())
@settings(max_examples=60, deadline=None)
def test_first_column_sigma_equals_the_cell_loop(procs):
    params = procs[-1].params
    for n, h in enumerate(procs[-1].h_list):
        assert first_column_sigma(params, n, h) == \
            loop_first_column_sigma(params, n, h)


def test_realize_perm_applies_one_map_per_layer():
    sigma = [int(v) for v in np.random.default_rng(4).permutation(16)]
    rep = realize_perm(sigma, (4, 4), 0.1, seed=1, samples=2000)
    assert isinstance(rep.plane_map, CellSchedule)
    assert [m.k for m in rep.plane_map.maps] == swap_layers(rep.swaps)


@pytest.mark.parametrize("samples", [0, -5])
def test_realize_perm_needs_a_sample(samples):
    with pytest.raises(InputError,
                       match="samples must be at least 1, got %d" % samples):
        realize_perm([1, 0], (2, 1), 0.1, samples=samples)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_realize_perm_eps_range(eps):
    with pytest.raises(InputError, match="eps"):
        realize_perm([1, 0], (2, 1), eps)


def test_realize_perm_one_swap_with_large_eps():
    # eps / len(swaps) would be a delta of 0.7; the swap takes less
    rep = realize_perm([1, 0], (2, 1), 0.7, samples=2000)
    assert 0 < rep.delta < 0.5 and rep.obedient >= 0.3


def test_grid_past_cap_refused():
    N = MAX_SMOOTH_CELLS + 1
    with pytest.raises(ResourceError,
                       match="smooth %dx1 grid needs %d cells, cap is %d"
                       % (N, N, MAX_SMOOTH_CELLS)):
        realize_perm(list(range(N)), (N, 1), 0.1)



def deep_of_pass(schedule, pts, inverse=False):
    """A pass of schedule over pts, and which points it moved as deep."""
    seen = []
    follow = CellSchedule.follow

    def recorded(self, tracked, hit, paths):
        seen.append(hit.copy())
        return follow(self, tracked, hit, paths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CellSchedule, "follow", recorded)
        out = (schedule.inverse if inverse else schedule.forward)(pts)
    deep = np.zeros(len(pts), dtype=bool)
    for hit in seen:
        assert not deep[hit].any()
        deep[hit] = True
    return deep, out


def core_checked_layers(grid, layers, delta, pts, deep, inverse=False):
    """The untracked layers of a pass, one by one, asserting that each
    point of `deep` a layer moves lies inside its pair's rectangle and
    in the core of its swap: the moved points, each point's count of
    swaps, and the least r_in - r seen."""
    tables = SwapTables(grid, delta)
    rows = tables.pair_of_cell(layers)
    steps = np.zeros(len(pts), dtype=int)
    margin = math.inf
    pts = np.array(pts, dtype=float)
    for i in (range(len(layers))[::-1] if inverse else range(len(layers))):
        pair = rows[i][cell_of_points(grid, pts)]
        hit = np.flatnonzero((pair >= 0) & deep)
        pair = pair[hit]
        u = (pts[hit, 0] - tables.turn[0, pair]) / tables.size[0]
        v = (pts[hit, 1] - tables.turn[1, pair]) / tables.size[1]
        flip = tables.transpose[pair]
        std = np.stack([np.where(flip, v, u), np.where(flip, u, v)], axis=1)
        assert ((std >= 0) & (std < (2.0, 1.0))).all()
        gap = tables.inner.r_in - swap_radius(std)
        assert (gap > 0).all()
        margin = min(margin, gap.min(initial=math.inf))
        steps[hit] += 1
        layer = UntrackedCellSwap(tables, layers[i], rows[i])
        pts = layer.inverse(pts) if inverse else layer.forward(pts)
    return pts, steps, margin


def margin_points(grid, delta, rng, count):
    """(points, edge): `count` drawn points; every cell's centre, then
    points w - 1 ulp, w and w + 1 ulp from each of its edges, w the deep
    margin, and likewise at the ring's own rim 1 - sqrt(1 - delta); and
    then, marked in `edge`, points on the cell edges, at 1.0 and off
    the unit square."""
    m, n = grid
    rim = delta / (1 + math.sqrt(1 - delta))
    offsets = np.array([rim, rim + DEEP_SLACK])
    offsets = np.concatenate([offsets, 1 - offsets])
    cells = [(c, r) for c in range(m) for r in range(n)]
    near = [((c + 0.5) / m, (r + 0.5) / n) for c, r in cells]
    for c, r in cells:
        for a in offsets:
            x, y = (c + a) / m, (r + a) / n
            for d in (-math.inf, 0, math.inf):
                nx = x if d == 0 else math.nextafter(x, d)
                ny = y if d == 0 else math.nextafter(y, d)
                near += [(nx, (r + 0.5) / n), ((c + 0.5) / m, ny), (nx, ny)]
    edge = [(c / m, rng.random()) for c in range(m + 1)] + \
        [(rng.random(), r / n) for r in range(n + 1)] + \
        [(-0.01, 0.5), (1.01, 0.5), (0.5, -1e-9), (0.5, 1.5), (1.0, 1.0),
         (math.nextafter(1.0, 2), 0.3)]
    pts = np.vstack([rng.random((count, 2)), near, edge])
    flags = np.zeros(len(pts), dtype=bool)
    flags[len(pts) - len(edge):] = True
    return pts, flags


def near_an_edge(grid, pts):
    """Points within 1e-12 cell widths of a cell edge or off the unit
    square, where a per-swap map may see another pair's rectangle."""
    scaled = pts * grid
    off = np.abs(scaled - np.round(scaled)) < 1e-12
    return off.any(axis=1) | ((pts < 0) | (pts > 1)).any(axis=1)


@st.composite
def line_grid_perms(draw):
    """Permutations of 1xN, Nx1, 3x2 and small grids."""
    grid = draw(st.one_of(st.tuples(st.just(1), st.integers(2, 12)),
                          st.tuples(st.integers(2, 12), st.just(1)),
                          st.just((3, 2)),
                          st.tuples(st.integers(1, 5), st.integers(1, 5))))
    return grid, draw(st.permutations(range(grid[0] * grid[1])))


# 1e-300 makes the ring thinner than an ulp: r_in == R
DELTAS = st.one_of(st.floats(1e-12, 0.49), st.sampled_from([1e-300, 0.49]))


@given(line_grid_perms(), DELTAS, st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_deep_points_equal_the_layers(grid_perm, delta, seed):
    grid, sigma = grid_perm
    swaps = perm_to_swaps(sigma)
    layers = swap_layers(swaps)
    count = 100
    pts, edge = margin_points(grid, delta, np.random.default_rng(seed), count)
    schedule = CellSchedule(grid, layers, delta)
    untracked = untracked_layers(grid, layers, delta)
    per_swap = Composite([OnePairSwap(grid, k, delta) for k in swaps])
    for inverse in (False, True):
        deep, out = deep_of_pass(schedule, pts, inverse)
        fn = "inverse" if inverse else "forward"
        assert np.array_equal(out, getattr(untracked, fn)(pts))
        inner = ~near_an_edge(grid, pts)
        assert np.array_equal(out[inner], getattr(per_swap, fn)(pts[inner]))
        assert not deep[edge].any()
        paths = schedule.paths(inverse)
        centres = slice(count, count + grid[0] * grid[1])
        moved = paths.steps[cell_of_points(grid, pts[centres])] > 0
        assert deep[centres][moved].all() and not deep[centres][~moved].any()
        # every deep point is in the core at each of its swaps, and
        # meets as many as its start cell's trajectory
        got, steps, _ = core_checked_layers(grid, layers, delta, pts, deep,
                                            inverse)
        assert np.array_equal(got, out)
        want = paths.steps[cell_of_points(grid, pts)]
        assert np.array_equal(steps[deep], want[deep])


@pytest.mark.parametrize("grid", [(1024, 1), (1, 1024)])
def test_deep_margin_outlasts_the_longest_schedule(grid):
    # the reversal of 1,024 cells takes 2,045 layers, and each point
    # about 1,023 steps; points start just past the deep margin, along
    # the grid's long axis, where the rounding of `+ x0` is widest
    N = 1024
    layers = swap_layers(perm_to_swaps(range(N)[::-1]))
    assert len(layers) == 2 * N - 3
    delta = 1e-7
    w = delta / (1 + math.sqrt(1 - delta)) + DEEP_SLACK
    offsets = np.array([w, 1 - w]) * (1 + np.array([1e-6, -1e-6]))
    along = ((np.arange(N)[:, None] + offsets) / N).ravel()
    pts = np.stack([along, np.full(len(along), 0.5)], axis=1)
    if grid == (1, N):
        pts = pts[:, ::-1].copy()
    schedule = CellSchedule(grid, layers, delta)
    for inverse in (False, True):
        deep, out = deep_of_pass(schedule, pts, inverse)
        assert deep.all()
        got, steps, margin = core_checked_layers(grid, layers, delta, pts,
                                                 deep, inverse)
        assert np.array_equal(got, out)
        assert steps.min() > 0 and steps.max() >= N - 1
        # r_in - r starts at about 0.8 DEEP_SLACK; rounding drift over
        # the whole schedule takes only a part of it
        assert margin > 0.5 * DEEP_SLACK


@given(grid_perms())
@settings(max_examples=100, deadline=None)
def test_trajectories_follow_the_swaps(grid_perm):
    grid, sigma = grid_perm
    N = grid[0] * grid[1]
    layers = swap_layers(perm_to_swaps(sigma))
    rows = SwapTables(grid, 0.1).pair_of_cell(layers)
    for inverse, order, image in ((False, layers, sigma),
                                  (True, layers[::-1], np.argsort(sigma))):
        paths = Trajectories.walk(rows[::-1] if inverse else rows, N)
        assert paths.pairs.dtype == np.int16
        assert paths.pairs.shape == (max(paths.steps, default=0), N)
        # content of cell c flows to sigma[c]
        assert np.array_equal(paths.end, image)
        for c in range(N):
            met, at = [], c
            for layer in order:
                for k in layer:
                    if at in (k, k + 1):
                        met.append(k)
                        at = 2 * k + 1 - at
            assert paths.steps[c] == len(met)
            assert paths.pairs[:, c].tolist() == \
                met + [-1] * (paths.pairs.shape[0] - len(met))


@given(grid_perms(), st.floats(0.05, 0.49), st.integers(0, 2**32 - 1),
       st.integers(1, 7), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_shallow_batches_equal_one_batch(grid_perm, delta, seed, chunk,
                                         batch):
    grid, sigma = grid_perm
    layers = swap_layers(perm_to_swaps(sigma))
    pts = edge_points(grid, np.random.default_rng(seed), 60)
    schedule = CellSchedule(grid, layers, delta)
    want = schedule.forward(pts), schedule.inverse(pts)
    sizes = []
    walk = Composite.forward

    def counted(self, tracked):
        sizes.append(len(tracked))
        return walk(self, tracked)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoothreal, "SWAP_CHUNK", chunk)
        mp.setattr(smoothreal, "SHALLOW_BATCH", batch)
        mp.setattr(Composite, "forward", counted)
        got = schedule.forward(pts), schedule.inverse(pts)
        whole = []
        mp.setattr(smoothreal, "SHALLOW_BATCH", len(pts))
        sizes, whole = whole, sizes
        schedule.forward(pts)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # batches of at most `batch` points, or one chunk's, in one call
    # per batch, that together hold the one batch's points
    assert all(size <= max(batch, chunk) for size in whole)
    assert sum(whole) == sum(sizes) and len(sizes) == 1


def test_one_layer_walk_per_pass():
    # with no shallow point the layers still run once, on no points, so
    # each layer's span is seen once per pass
    sigma = [int(v) for v in np.random.default_rng(5).permutation(12)]
    layers = swap_layers(perm_to_swaps(sigma))
    schedule = CellSchedule((4, 3), layers, 0.01)
    centres = np.array([[(c + 0.5) / 4, (r + 0.5) / 3]
                        for c in range(4) for r in range(3)])
    calls = Counter()
    walk, layer = Composite.forward, CellSwap.forward

    def walked(self, tracked):
        calls["walk", len(tracked)] += 1
        return walk(self, tracked)

    def layered(self, tracked):
        calls["layer"] += 1
        return layer(self, tracked)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Composite, "forward", walked)
        mp.setattr(CellSwap, "forward", layered)
        out = schedule.forward(centres)
    assert calls == {("walk", 0): 1, "layer": len(layers)}
    assert np.array_equal(out, untracked_layers((4, 3), layers, 0.01)
                          .forward(centres))


def test_pass_memory_32x32():
    # one pass holds its int16 step table, at most cells x most steps x
    # 2 bytes (2.06 MB here), and working arrays of one SWAP_CHUNK
    sigma = [int(v) for v in np.random.default_rng(1).permutation(1024)]
    layers = swap_layers(perm_to_swaps(sigma))
    schedule = CellSchedule((32, 32), layers, 1e-7)
    pts = TrackedPoints.draw(schedule.index, np.random.default_rng(2), 20000)
    tracemalloc.start()
    try:
        schedule.forward(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    paths = schedule.paths(False)
    assert paths.pairs.dtype == np.int16
    assert paths.pairs.shape == (paths.steps.max(), 1024)
    assert paths.pairs.nbytes <= 2.1e6
    assert peak <= paths.pairs.nbytes + 160 * smoothreal.SWAP_CHUNK


@given(st.integers(1, 40), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_swap_lists_equal_the_full_pass_sort(size, rnd):
    sigma = list(range(size))
    rnd.shuffle(sigma)
    swaps = perm_to_swaps(sigma)
    assert swaps == full_pass_perm_to_swaps(sigma)
    assert swap_layers(swaps) == dict_swap_layers(swaps)
