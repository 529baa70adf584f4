"""The run-length frame and the checks read from it, against the dense
routes they replaced (`oracles`), and the memory they may take.

`q_labels` builds the frame as column runs; `name_stability` counts on
the runs; `check_process` and `distinct_names` read their premises (W is
a permutation; the tower names are the frame rows read through one
bijection).  Each is compared with its dense oracle on random processes,
and none may allocate one entry per atom.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys import ratarith
from circlesys.cli import check_process
from circlesys.names import (distinct_names, label_dtype, name_stability,
                             q_labels)
from circlesys.procsim import (GridPermutation, build_process, compose_stage,
                               rotation_perm)
from circlesys.ratarith import derive_params

from oracles import (dense, dense_name_stability, dense_q_labels,
                     hashed_distinct_names, scatter_check_process)
from strategies import process_chain, small_processes

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])
DESK_DUP = [[(0, 1), (1, 0)], [(0, 1), (1, 0), (0, 1), (1, 0)]]
# fixed parameters whose h words are drawn: l > 3 gives stability a
# positive bound, three strips and three stages other run shapes
CHAIN_PARAMS = [DESK, derive_params([2, 4], [4, 4], [2, 2, 4]),
                derive_params([2, 2], [3, 8], [2, 2, 4]),
                derive_params([3, 3], [2, 2], [3, 3, 9]),
                derive_params([2, 2, 2], [2, 2, 2], [2, 2, 2, 2])]


@st.composite
def chains(draw):
    """The processes of one of CHAIN_PARAMS, with random h words."""
    return process_chain(draw, draw(st.sampled_from(CHAIN_PARAMS)))


PROCESSES = st.one_of(small_processes(), chains())
CHUNKS = st.sampled_from([1, 3, 7, 1 << 14])


def with_chunk(size, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratarith, "CHUNK", size)
        return fn(*args)


@settings(max_examples=60, deadline=None)
@given(PROCESSES)
def test_frame_runs_expand_to_the_dense_frame(procs):
    for proc in procs:
        args = (proc.params, proc.h_list, proc.stage, proc.cols, proc.rows)
        runs = q_labels(*args)
        assert runs.cols == proc.cols and runs.letters.shape[0] == proc.rows
        assert runs.letters.dtype == label_dtype(proc.params.s[0])
        assert runs.starts[0] == 0 and np.all(np.diff(runs.starts) > 0)
        # no piece repeats its predecessor in every row
        assert np.all(np.any(runs.letters[:, 1:] != runs.letters[:, :-1],
                             axis=0))
        assert np.array_equal(dense(runs), dense_q_labels(*args))


@settings(max_examples=60, deadline=None)
@given(PROCESSES, CHUNKS)
def test_run_stability_matches_the_dense_count(procs, size):
    for coarse, fine in zip(procs, procs[1:]):
        assert (with_chunk(size, name_stability, coarse, fine)
                == dense_name_stability(coarse, fine))


def test_desk_stability_is_65_of_256_on_both_routes():
    procs = [build_process(DESK, DESK_DUP[:n]) for n in range(3)]
    run = name_stability(procs[1], procs[2])
    assert run == dense_name_stability(procs[1], procs[2])
    assert (run.matched, run.atoms) == (65 * 8, 256 * 8)


def not_a_permutation(h, params, n):
    """h with the image of slot 0 of each first-column row also taken
    by slot 1, in every equivariant copy: it still commutes with the
    stage-n rotation, but two atoms share each such image."""
    table = h.table.copy()
    k = params.k[n]
    for m in range(params.q[n]):
        table[m * k::h.cols] = table[1 + m * k::h.cols]
    bad = GridPermutation(h.cols, h.rows, table)
    assert bad.commutes_with(rotation_perm(params, n, h.cols, h.rows))
    assert not bad.is_permutation()
    return bad


@settings(max_examples=60, deadline=None)
@given(PROCESSES)
def test_premise_process_matches_the_scatter(procs):
    params = procs[0].params
    for stop in range(1, len(procs) + 1):
        ctx = SimpleNamespace(params=params, procs=procs[:stop])
        assert check_process(ctx) == scatter_check_process(ctx)
        assert check_process(ctx)[0]
    for n in range(params.stages):
        if params.k[n] < 2:
            continue
        bad = compose_stage(procs[n], not_a_permutation(
            procs[n + 1].h_list[-1], params, n))
        ctx = SimpleNamespace(params=params, procs=procs[:n + 1] + [bad])
        assert check_process(ctx) == scatter_check_process(ctx)
        assert not check_process(ctx)[0]


@settings(max_examples=60, deadline=None)
@given(PROCESSES)
def test_premise_distinct_matches_the_hashed_names(procs):
    for proc in procs + [build_process(DESK, DESK_DUP)]:
        rep = distinct_names(proc)
        assert (rep.distinct, rep.witness) == hashed_distinct_names(proc)
    assert rep.witness == (0, 2)


# 2**21 atoms: the grid3 rung with l[2] = 8, q[3] = 524,288 columns
GRID21 = derive_params([2, 4, 4], [2, 2, 8], [2, 2, 4, 4])
GRID21_WORDS = [[(0, 1), (1, 0)],
                [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)],
                [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]]


def fresh_processes():
    """Stages 2 and 3 of GRID21, with no frame computed yet."""
    return [build_process(GRID21, GRID21_WORDS[:n]) for n in (2, 3)]


def frame(coarse, fine):
    return q_labels(fine.params, fine.h_list, fine.stage, fine.cols,
                    fine.rows)


def stability(coarse, fine):
    return name_stability(coarse, fine)


def process(coarse, fine):
    return check_process(SimpleNamespace(params=fine.params,
                                         procs=[coarse, fine]))


def distinct(coarse, fine):
    return distinct_names(fine)


@pytest.mark.parametrize("step", [frame, stability, process, distinct],
                         ids=lambda f: f.__name__)
def test_no_array_per_atom(step):
    # a first run on DESK loads numpy's lazy imports outside the trace
    step(*[build_process(DESK, DESK_DUP[:n]) for n in (1, 2)])
    coarse, fine = fresh_processes()
    assert fine.atoms >= 1 << 21
    tracemalloc.start()
    try:
        step(coarse, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fine.atoms, peak
