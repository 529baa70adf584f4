"""The chunked array routes against the whole-array routes they replace.

Every route that walks a column- or tower-sized range does it in pieces
of `ratarith.CHUNK` entries.  The properties below shrink CHUNK to 1, 3
and 7, so that pieces end inside towers, passes and column blocks, and
compare each route with its whole-array form, kept here as the oracle.
The last test bounds the memory of the grid checks on a rung whose
stage-3 tower is 2^17 levels high.
"""

import tracemalloc
from contextlib import contextmanager
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys import ratarith
from circlesys.cli import (check_distinct, check_names, check_numerology,
                           check_process)
from circlesys.errors import InputError, ResourceError
from circlesys.names import distinct_names, frame_labels, simulate_tower_name
from circlesys.procsim import build_process, containing_atom
from circlesys.ratarith import (DynOrder, chunks, derive_params,
                                spacer_columns)
from circlesys.words import B, E, circ

from oracles import (dense, reversed_view_mirror, scatter_check_process,
                     table_marks)
from strategies import materialised_z, small_processes

CHUNKS = st.sampled_from([1, 3, 7])


def small(procs):
    """The processes of at most 4096 atoms, which one-entry chunks walk
    quickly; `small_processes` always starts with two of them."""
    return [proc for proc in procs if proc.atoms <= 4096]


@contextmanager
def chunk_size(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratarith, "CHUNK", size)
        yield


def whole_orbit(proc, s):
    """Tower s in the rotation frame by the whole-tower formula: level t
    sits in column t p mod q of its strip's first row."""
    params, n = proc.params, proc.stage
    q, p = params.q[n], params.p[n]
    base = np.arange(q, dtype=np.int64) * p % q * (proc.cols // q)
    return s * (proc.rows // params.s[n]) * proc.cols + base


def test_chunks_tile_the_range():
    with chunk_size(3):
        assert list(chunks(2, 10)) == [(2, 5), (5, 8), (8, 10)]
        assert list(chunks(4, 4)) == []


def test_chunks_of_a_given_size():
    # a size given at the call tiles by it whatever CHUNK is, and CHUNK
    # itself is read at the call, not when chunks was defined
    with chunk_size(3):
        assert list(chunks(2, 10, 4)) == [(2, 6), (6, 10)]
        assert list(chunks(0, 5, 1)) == [(0, 1), (1, 2), (2, 3), (3, 4),
                                         (4, 5)]
        assert list(chunks(7, 7, 2)) == []
        assert list(chunks(0, 3, 100)) == [(0, 3)]
    assert list(chunks(0, 40000)) == [(0, 16384), (16384, 32768),
                                      (32768, 40000)]


@settings(max_examples=40, deadline=None)
@given(small_processes(), CHUNKS, st.data())
def test_orbit_and_tower_pieces_match_whole_towers(procs, size, data):
    for proc in small(procs):
        q = proc.params.q[proc.stage]
        z = materialised_z(proc).table
        for s in range(proc.params.s[proc.stage]):
            orbit = whole_orbit(proc, s)
            assert np.array_equal(proc.orbit(s), orbit)
            assert np.array_equal(proc.tower(s), z[orbit])
            lo = data.draw(st.integers(0, q))
            hi = data.draw(st.integers(lo, q))
            assert np.array_equal(proc.orbit(s, lo, hi), orbit[lo:hi])
            assert np.array_equal(proc.tower(s, lo, hi), z[orbit[lo:hi]])
            with chunk_size(size):
                name = simulate_tower_name(proc, s)
            assert name.dtype == frame_labels(proc).letters.dtype
            assert np.array_equal(name, dense(frame_labels(proc))[orbit])


def test_orbit_refuses_levels_off_the_tower():
    params = derive_params([2, 2], [4, 4], [2, 2, 4])
    proc = build_process(params, [[(0, 1), (1, 0)]])
    for lo, hi in ((-1, 2), (3, 2), (0, 9)):
        with pytest.raises(InputError):
            proc.orbit(0, lo, hi)


@settings(max_examples=40, deadline=None)
@given(small_processes(), CHUNKS)
def test_check_process_by_pieces_matches_whole(procs, size):
    # the premise route against the scatter of tower pieces
    ctx = SimpleNamespace(params=procs[0].params, procs=small(procs))
    whole = check_process(ctx)
    with chunk_size(size):
        assert scatter_check_process(ctx) == whole
    assert whole[0]


@st.composite
def circ_cases(draw):
    k = draw(st.integers(1, 4))
    l = draw(st.integers(2, 5))
    q = draw(st.integers(1, 9))
    order = draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    # the tuple is read off an array of the smallest dtype that holds
    # the symbols, so the largest symbol is drawn across dtype edges
    top = draw(st.sampled_from([5, 127, 128, 255, 256, 32767, 32768,
                                (1 << 20) - 1]))
    children = [tuple(draw(st.integers(0, top)) for _ in range(q))
                for _ in range(k)]
    return children, k, l, q, order


def extended_circ(children, k, l, q, order):
    """The circular product by run-by-run list extension."""
    out = []
    for i in range(q):
        ji = order[i]
        for j in range(k):
            out.extend([B] * (q - ji))
            out.extend(tuple(children[j]) * (l - 1))
            out.extend([E] * ji)
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(circ_cases(), st.sampled_from([np.int8, np.int16, np.int64]))
def test_array_circ_matches_extended_circ(case, dtype):
    children, k, l, q, order = case
    want = extended_circ(children, k, l, q, order)
    assert circ(children, k, l, q, order) == want
    if max(map(max, children)) <= np.iinfo(dtype).max:
        out = np.empty(len(want), dtype=dtype)
        word = circ(children, k, l, q, order, out)
        assert word is out
        assert tuple(word.tolist()) == want


@st.composite
def coefficients(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    l = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    return derive_params(k, l, [1] * (n + 1))


@settings(max_examples=60, deadline=None)
@given(coefficients())
def test_spacer_columns_match_the_table_formula(params):
    # the closed-form runs against each column's word position
    for m in range(1, params.stages + 1):
        if params.q[m] > 4096:
            break
        b_cols, e_cols = table_marks(params, m)
        got = spacer_columns(params, m)
        assert got.cols == params.q[m] and got.letters.shape[0] == 1
        # runs are maximal: no piece repeats its predecessor's kind
        assert np.all(got.letters[0, 1:] != got.letters[0, :-1])
        assert np.array_equal(dense(got), np.where(b_cols, B, 0)
                              + np.where(e_cols, E, 0))


# q[4] = 2^45 columns, past the int64 limit of the dynamical-order arrays
PAST_INT64 = derive_params([2] * 4, [4] * 4, [1] * 5)


def test_marks_refuse_past_int64_before_allocating():
    assert 2 ** 31 <= PAST_INT64.q[4] < 2 ** 63
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="int64 limit"):
            spacer_columns(PAST_INT64, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_numerology_passes_past_int64_without_a_table():
    # the mirror is the DynOrder premise, so no stage is too wide for it
    q = PAST_INT64.q
    ctx = SimpleNamespace(params=PAST_INT64, cap_atoms=q[4])
    (ok, value, _), peak = traced_peak(check_numerology, ctx)
    assert ok and value == str(sum(q) - len(q))
    assert peak < 1 << 20


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 60), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from([np.int8, np.int64]))
def test_containing_atom_matches_double_repeat(cols, seed, fc, fr, dtype):
    rows = 1 + seed % 5
    values = np.random.default_rng(seed).integers(
        -2, 100, cols * rows).astype(dtype)
    want = np.repeat(np.repeat(values.reshape(rows, cols), fc, axis=1),
                     fr, axis=0).reshape(-1)
    fine = np.arange(cols * fc * rows * fr, dtype=np.int64)
    got = values[containing_atom(fine, cols * fc, rows * fr, cols, rows)]
    assert got.dtype == dtype and np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.integers(0, 199))
def test_order_is_mirrored_exactly_when_pinv_is_a_unit(q, pinv):
    # the DynOrder premise, for any pinv: a unit mirrors, one sharing a
    # factor with q does not
    order = DynOrder(1, q)
    order.pinv = pinv % q
    assert reversed_view_mirror(order) == (gcd(order.pinv, q) == 1)


def dict_of_bytes_distinct(proc):
    """distinct_names keyed by the whole name's bytes."""
    seen = {}
    for s in range(proc.params.s[proc.stage]):
        name = dense(frame_labels(proc))[whole_orbit(proc, s)].tobytes()
        if name in seen:
            return (False, (seen[name], s))
        seen[name] = s
    return (True, None)


DESK = derive_params([2, 2], [4, 4], [2, 2, 4])
DESK_DUP = [[(0, 1), (1, 0)], [(0, 1), (1, 0), (0, 1), (1, 0)]]


@settings(max_examples=40, deadline=None)
@given(small_processes(), CHUNKS)
def test_distinct_names_match_dict_of_bytes(procs, size):
    procs = small(procs) + [build_process(DESK, DESK_DUP)]
    with chunk_size(size):
        for proc in procs:
            rep = distinct_names(proc)
            assert (rep.distinct, rep.witness) == dict_of_bytes_distinct(proc)
    assert distinct_names(procs[-1]).witness == (0, 2)


# grid3: q[3] = 2^17 levels per tower, 4 towers, 524,288 stage-3 atoms
GRID3 = derive_params([2, 4, 4], [2, 2, 2], [2, 2, 4, 4])
GRID3_WORDS = [[(0, 1), (1, 0)],
               [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)],
               [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]]


def grid3_context():
    """A fresh grid3 context: processes built, no frame computed yet."""
    procs = [build_process(GRID3, GRID3_WORDS[:n]) for n in range(4)]
    return SimpleNamespace(params=GRID3, procs=procs, cap_atoms=1 << 24)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("check", [check_process, check_names,
                                   check_distinct, check_numerology],
                         ids=lambda f: f.__name__)
def test_grid_checks_peak_below_two_frames(check):
    # a frame of one int8 label per atom is the unit of the bound
    ctx = grid3_context()
    assert GRID3.q[3] >= 2 ** 17
    (ok, _, _), peak = traced_peak(check, ctx)
    frame_bytes = GRID3.q[3] * GRID3.s[3]
    assert ok
    assert peak < 2 * frame_bytes + (1 << 20), peak


def test_spacer_columns_peak_below_two_frames():
    marks, peak = traced_peak(spacer_columns, GRID3, 3)
    frame_bytes = GRID3.q[3] * GRID3.s[3]       # int8 labels
    assert marks.cols == GRID3.q[3]
    assert peak < 2 * frame_bytes + (1 << 20), peak
