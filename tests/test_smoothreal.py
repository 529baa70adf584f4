import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys.errors import InputError, ToleranceError
from circlesys.procsim import h_from_words
from circlesys.ratarith import derive_params
from circlesys.smoothreal import (CellSwap, Composite, StandardSwap,
                                  cell_of_points, map_distance, perm_to_swaps,
                                  polar_twist_jacobian, realize_perm,
                                  sample_jacobian, stage_map, zigzag_cell,
                                  zigzag_index)
from circlesys.smoothreal import _disk_to_square, _square_to_disk

RNG = np.random.default_rng(20240817)


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
    assert np.max(np.abs(out[inner] - refl[inner])) < 1e-12
    assert np.max(np.abs(out[outer] - pts[outer])) < 1e-12
    back = sw.inverse(out)
    assert np.max(np.abs(back - pts)) < 1e-9


def test_delta_range():
    with pytest.raises(InputError):
        StandardSwap(0.0)
    with pytest.raises(InputError):
        StandardSwap(0.6)


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
        assert zigzag_index((3, 2), c, r) == k


def test_cell_swap_vertical_pair():
    # pair (2, 3) on a 3x2 grid crosses rows in the same column
    swap = CellSwap((3, 2), 2, 0.05)
    assert swap.transpose
    pts = RNG.random((5000, 2))
    out = swap.forward(pts)
    src = cell_of_points((3, 2), pts)
    dst = cell_of_points((3, 2), out)
    moved = np.isin(src, (2, 3))
    assert np.array_equal(dst[~moved], src[~moved])
    target = np.where(src == 2, 3, np.where(src == 3, 2, src))
    assert np.mean(dst[moved] == target[moved]) > 0.9


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


def test_map_distance_zero_on_self():
    sw = CellSwap((2, 2), 0, 0.05)
    mean, mx = map_distance(sw, sw, RNG.random((1000, 2)))
    assert mean == 0 and mx == 0
