from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys.errors import CoherenceError, InputError
from circlesys.factor import (BoundaryCrossing, SymbolicPoint, collapse_pi,
                              coherent_from_top, enumerate_coherent,
                              rho_trace, shift_point)
from circlesys.ratarith import derive_params
from circlesys.words import B, E
from oracles import stagewise_shift_point
from strategies import small_params

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])


def test_rho_trace_desk():
    pt = SymbolicPoint(DESK, (0, 1, 9))
    tr = rho_trace(pt)
    assert tr.rhos == [0, Fraction(1, 8), Fraction(73, 512)]
    assert tr.gaps == [Fraction(1, 8), Fraction(9, 512)]


def test_incoherent_rejected():
    with pytest.raises(CoherenceError):
        SymbolicPoint(DESK, (0, 1, 10))   # offset 10 sits over copy 1, not 1
    with pytest.raises(CoherenceError):
        SymbolicPoint(DESK, (0, 0, 0))    # offset 0 is a spacer at stage 2


def test_shift_equivariance():
    pt = SymbolicPoint(DESK, (0, 1, 9))
    nxt = shift_point(pt)
    assert nxt.offsets == (0, 2, 10)
    t0, t1 = rho_trace(pt), rho_trace(nxt)
    for n in range(3):
        advance = (t1.rhos[n] - t0.rhos[n]) % 1
        assert advance == DESK.alpha(n) % 1


@pytest.mark.parametrize("offsets, stage", [
    ((0, 8), 1),            # outside [0, q[1])
    ((0, 0), 1),            # a spacer position
    ((0, 1, 512), 2),       # outside [0, q[2])
    ((0, 1, 0), 2),         # a spacer position
    ((0, 1, 10), 2),        # over inner position 2, not 1
    ((0, 0, 9), 1),         # the lowest failing stage is named
])
def test_coherence_error_names_its_stage(offsets, stage):
    with pytest.raises(CoherenceError) as exc:
        SymbolicPoint(DESK, offsets)
    assert exc.value.stage == stage


@pytest.mark.parametrize("offsets", [(), (1, 1), (0, 1, 9, 1)])
def test_malformed_offsets_name_no_stage(offsets):
    with pytest.raises(CoherenceError) as exc:
        SymbolicPoint(DESK, offsets)
    assert exc.value.stage is None


@given(small_params(), st.data())
@settings(max_examples=60, deadline=None)
def test_shift_point_equals_the_stagewise_walk(params, data):
    depth = data.draw(st.integers(0, 2), label="depth")
    pt = data.draw(st.sampled_from(list(enumerate_coherent(params, depth))),
                   label="point")
    for _ in range(data.draw(st.integers(1, 40), label="shifts")):
        got = shift_point(pt)
        assert got == stagewise_shift_point(pt)
        if isinstance(got, BoundaryCrossing):
            break
        pt = got


def test_shift_boundary_crossing():
    pt = SymbolicPoint(DESK, (0, 3, 11))  # stage-1 word ends after offset 3
    res = shift_point(pt)
    assert isinstance(res, BoundaryCrossing)
    assert res.stage == 1


def test_enumerate_coherent_count():
    pts = list(enumerate_coherent(DESK, 2))
    assert len(pts) == 288
    assert all(len(p.offsets) == 3 for p in pts)
    assert len({p.offsets for p in pts}) == 288


def test_coherent_from_top_matches_enumeration():
    tops = {p.offsets[2] for p in enumerate_coherent(DESK, 2)}
    for m in range(DESK.q[2]):
        pt = coherent_from_top(DESK, 2, m)
        assert (pt is not None) == (m in tops)
        if pt is not None:
            assert pt.offsets[2] == m


def test_rho_monotone_all_coherent():
    for pt in enumerate_coherent(DESK, 2):
        tr = rho_trace(pt)
        assert tr.rhos[0] <= tr.rhos[1] <= tr.rhos[2]
        for n, g in enumerate(tr.gaps):
            assert 0 <= g < Fraction(1, DESK.q[n])


def test_collapse_pi():
    assert collapse_pi((B, 0, 1, E, 2)) == (B, 0, 0, E, 0)
