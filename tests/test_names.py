import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys.consys import build_sequence
from circlesys.errors import InputError, OracleMismatch, ResourceError
from circlesys.names import (StabilityReport, crosscheck_tower,
                             distinct_names, frame_labels, label_dtype,
                             name_stability, q_labels, simulate_tower_name,
                             spacer_columns, u_words)
from circlesys.procsim import (GridPermutation, build_process, compose_stage,
                               h_from_words, initial_process, rotation_perm,
                               rotation_shift)
from circlesys.ratarith import derive_params, dyn_order
from circlesys.words import B, E, circ

from oracles import dense, table_marks, transect_word
from strategies import materialised_z, small_processes

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])
W1 = [(0, 1), (1, 0)]
W2_DUP = [(0, 1), (1, 0), (0, 1), (1, 0)]
VAR = derive_params([2, 4], [4, 4], [2, 2, 4])
W2_VAR = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]


def desk_procs():
    p0 = initial_process(DESK)
    h1 = h_from_words(DESK, 0, W1)
    p1 = compose_stage(p0, h1)
    h2 = h_from_words(DESK, 1, W2_DUP)
    p2 = compose_stage(p1, h2)
    return p0, p1, p2, h1, h2


def cs_words(params, prewords, stage):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cs = build_sequence(params.s[0], params, prewords)
    return cs.levels[stage]


def naive_labels(params, h_list, stage, cols, rows):
    """Label every atom of a cols x rows grid for the stage-n process.

    An atom is b/e when its pullback through Z_m lands in a stage-m
    spacer column for some m <= stage.  When several stages claim an
    atom the latest one wins: a new spacer run may transit a column
    that an earlier stage already labelled, and the later relabeling is
    what the stage-n tower names read.  Unclaimed atoms keep their base
    strip index.  Returns one label per atom, in `label_dtype(params.s[0])`.

    This recomputes every Z_m from h_list, in atom order: the oracle of
    `q_labels`, whose rotation-frame labels are these read through Z.
    """
    atoms = cols * rows
    labels = ((np.arange(atoms, dtype=np.int64) // cols) * params.s[0]
              // rows).astype(label_dtype(params.s[0]))
    Z = GridPermutation.identity(cols, rows)
    for m in range(1, stage + 1):
        Z = Z.compose(h_list[m - 1].lift(cols, rows))
        pre = Z.inverse().table
        col_m = (pre % cols) * params.q[m] // cols
        b_cols, e_cols = table_marks(params, m)
        labels[b_cols[col_m]] = B
        labels[e_cols[col_m]] = E
    return labels


def test_spacer_columns_mass():
    marks = dense(spacer_columns(DESK, 2))
    assert marks.size == 512 and set(marks.tolist()) == {0, B, E}
    assert int(np.count_nonzero(marks)) == 512 // 4


def test_simulated_names_equal_construction_words():
    _, p1, p2, _, _ = desk_procs()
    lv1 = cs_words(DESK, [W1, W2_DUP], 1)
    lv2 = cs_words(DESK, [W1, W2_DUP], 2)
    for s in range(2):
        assert tuple(int(x) for x in simulate_tower_name(p1, s)) == \
            tuple(int(x) for x in lv1[s])
    for s in range(4):
        assert tuple(int(x) for x in simulate_tower_name(p2, s)) == \
            tuple(int(x) for x in lv2[s % 2])


def test_crosscheck_all_towers():
    _, p1, p2, h1, h2 = desk_procs()
    p0 = initial_process(DESK)
    for s in range(2):
        crosscheck_tower(p1, p0, h1, s)
    for s in range(4):
        crosscheck_tower(p2, p1, h2, s)


def test_crosscheck_detects_corruption():
    # simulate with the true relabeling but hand the checker a different
    # one: the symbolic route then predicts the wrong child words
    _, p1, p2, h1, h2 = desk_procs()
    bad_h = h_from_words(DESK, 1, [(1, 0), (0, 1), (0, 1), (1, 0)])
    with pytest.raises(OracleMismatch) as exc:
        for s in range(4):
            crosscheck_tower(p2, p1, bad_h, s)
    # tower 0 reads strip 0 where the wrong child words predict strip 1
    assert (exc.value.index, exc.value.left, exc.value.right) == (9, 0, 1)
    assert type(exc.value.left) is int and type(exc.value.right) is int


def test_transect_matches_simulation():
    _, p1, p2, _, _ = desk_procs()
    lv1 = cs_words(DESK, [W1, W2_DUP], 1)
    for s in range(4):
        tr = transect_word(DESK, 1, [lv1[c] for c in W2_DUP[s]])
        assert tr == tuple(int(x) for x in simulate_tower_name(p2, s))


def test_u_words_are_rotation_orbit():
    _, p1, p2, h1, h2 = desk_procs()
    for s in range(4):
        us = u_words(p1, h2, s)
        assert len(us) == DESK.k[1]
        for u in us:
            assert len(u) == DESK.q[1]


def test_stability_desk():
    _, p1, p2, _, _ = desk_procs()
    rep = name_stability(p1, p2)
    assert rep.fraction == Fraction(65, 256)
    assert rep.bound == Fraction(1, 4)
    assert rep.fraction >= rep.bound


def test_stability_large_l():
    params = derive_params([2, 2], [4, 64], [2, 2, 4])
    p0 = initial_process(params)
    p1 = compose_stage(p0, h_from_words(params, 0, W1))
    p2 = compose_stage(p1, h_from_words(params, 1, W2_DUP))
    rep = name_stability(p1, p2)
    assert rep.bound == 1 - Fraction(3, 64)
    assert rep.fraction >= rep.bound


def test_distinct_negative_desk():
    _, _, p2, _, _ = desk_procs()
    rep = distinct_names(p2)
    assert not rep.distinct
    assert rep.witness == (0, 2)


def test_distinct_positive_variant():
    p0 = initial_process(VAR)
    p1 = compose_stage(p0, h_from_words(VAR, 0, W1))
    p2 = compose_stage(p1, h_from_words(VAR, 1, W2_VAR))
    assert distinct_names(p1).distinct
    assert distinct_names(p2).distinct


def test_q_labels_override():
    # a later stage relabels columns lying inside earlier spacer columns,
    # so label counts match the top-stage word structure exactly
    _, _, p2, h1, h2 = desk_procs()
    part = naive_labels(DESK, [h1.lift(512, 4), h2.lift(512, 4)], 2, 512, 4)
    assert np.array_equal(part[materialised_z(p2).table],
                          dense(frame_labels(p2)))
    name = simulate_tower_name(p2, 0)
    word = cs_words(DESK, [W1, W2_DUP], 2)[0]
    assert sum(1 for x in name if x == B) == sum(1 for x in word if x == B)
    assert sum(1 for x in name if x == E) == sum(1 for x in word if x == E)


@settings(max_examples=60, deadline=None)
@given(small_processes())
def test_frame_labels_match_atom_order_oracle(procs):
    for proc in procs:
        naive = naive_labels(proc.params, proc.h_list, proc.stage,
                             proc.cols, proc.rows)
        frame = frame_labels(proc)
        assert frame.letters.dtype == naive.dtype
        assert np.array_equal(dense(frame), naive[materialised_z(proc).table])


def test_q_labels_reads_no_full_size_permutation(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(GridPermutation, name)

        def spy(self, *args):
            calls.append(name)
            return real(self, *args)
        return spy
    for name in ("lift", "compose", "inverse"):
        monkeypatch.setattr(GridPermutation, name, counted(name))
    _, _, _, h1, h2 = desk_procs()
    calls.clear()
    q_labels(DESK, [h1, h2], 2, 512, 4)
    assert calls == []


def test_frame_labels_thin_rung_past_2_22_columns():
    # q[3] = 4194368 columns, just past 2^22: one strip and one child per
    # stage keep the grid to one row, and the stage-3 names are labelled
    params = derive_params([1, 1, 1], [2, 2, 65537], [1, 1, 1, 1])
    q3 = params.q[3]
    assert q3 == 4194368
    proc = build_process(params, [[(0,)]] * 3, cap_atoms=q3)
    frame = dense(frame_labels(proc))
    assert frame.shape == (q3,)
    marks = dense(spacer_columns(params, 3))
    assert int(np.count_nonzero(marks)) == q3 // 65537
    assert np.array_equal(frame[marks != 0], marks[marks != 0])


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(2, 5)),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_spacer_columns_match_the_word_route(kl):
    # spacer-free children make every B/E of the circular product a
    # top-level spacer; column c reads word position j_c
    params = derive_params([k for k, _ in kl], [l for _, l in kl],
                           [1] * (len(kl) + 1))
    for m in range(1, params.stages + 1):
        if params.q[m] > 4096:
            break
        k, l, q = params.k[m - 1], params.l[m - 1], params.q[m - 1]
        w = circ([(0,) * q] * k, k, l, q, dyn_order(params, m - 1))
        order = dyn_order(params, m)
        j = [order[c] for c in range(params.q[m])]
        marks = dense(spacer_columns(params, m))
        assert marks.tolist() == [w[t] if w[t] in (B, E) else 0 for t in j]


def test_q_labels_refuses_a_grid_off_the_stage():
    _, _, _, h1, h2 = desk_procs()
    for cols, rows in ((256, 4), (512, 2), (h2.cols, h2.rows), (1024, 8)):
        with pytest.raises(InputError):
            q_labels(DESK, [h1, h2], 2, cols, rows)
    for h_list in ([h1], [h1, h2, h2]):
        with pytest.raises(InputError):
            q_labels(DESK, h_list, 2, 512, 4)


def naive_matched(coarse, fine):
    """name_stability's count by walking both transforms' orbits.

    Every atom x follows t_coarse = Zc R_coarse Zc^-1 (coarse Z lifted
    to the fine grid) and t_fine = Z R Z^-1 for q[n] steps each way,
    reading fresh fine-stage labels at every step.
    """
    params = coarse.params
    n = coarse.stage
    q = params.q[n]
    cols, rows = fine.cols, fine.rows
    labels = naive_labels(params, fine.h_list, fine.stage, cols, rows)
    Zc = materialised_z(coarse).lift(cols, rows)
    Zf = materialised_z(fine)
    t_coarse = (Zc.compose(rotation_perm(params, n, cols, rows))
                .compose(Zc.inverse()))
    t_fine = (Zf.compose(rotation_perm(params, n + 1, cols, rows))
              .compose(Zf.inverse()))
    for table in (t_coarse.table, t_fine.table):
        assert np.array_equal(np.sort(table), np.arange(cols * rows))
    fwd_c = bwd_c = fwd_f = bwd_f = np.arange(cols * rows, dtype=np.int64)
    inv_c = t_coarse.inverse().table
    inv_f = t_fine.inverse().table
    ok = labels[fwd_c] == labels[fwd_f]
    for _ in range(q):
        fwd_c = t_coarse.table[fwd_c]
        fwd_f = t_fine.table[fwd_f]
        bwd_c = inv_c[bwd_c]
        bwd_f = inv_f[bwd_f]
        ok &= labels[fwd_c] == labels[fwd_f]
        ok &= labels[bwd_c] == labels[bwd_f]
    return int(ok.sum())


def v_route_stability(coarse, fine):
    """name_stability through the coarse relabeling, counted in the
    rotation frame with the gather through V = Zc^-1 Zf.

    Both names are read with the finer stage's labels (`naive_labels`),
    following the two realized transforms t = Z R Z^-1 on the fine
    grid, where Z is the stage's relabeling (the coarse one lifted to
    the fine grid) and R its rotation.  The count is made in the
    rotation frame of the fine process: for y = Zf^-1 x,

        labels[t_fine^j x]   = (labels o Zf)[R_fine^j y]
        labels[t_coarse^j x] = (labels o Zc)[R_coarse^j V y],  V = Zc^-1 Zf,

    and R^j is a roll of the columns within each row.  The atoms
    matched are summed over all of x, so counting over y instead
    leaves the count unchanged.  R_coarse has period q = q[n], so
    steps j and j - q share one gather through V.
    """
    params = coarse.params
    n = coarse.stage
    q = params.q[n]
    cols, rows = fine.cols, fine.rows
    labels = naive_labels(params, fine.h_list, fine.stage, cols, rows)
    Zf = materialised_z(fine)
    Zc = materialised_z(coarse).lift(cols, rows)
    assert Zf.is_permutation() and Zc.is_permutation()
    sf = rotation_shift(params, fine.stage, cols)
    sc = rotation_shift(params, n, cols)
    fine_frame = labels[Zf.table].reshape(rows, cols)        # labels o Zf
    coarse_frame = labels[Zc.table].reshape(rows, cols)      # labels o Zc
    V = Zc.inverse().table[Zf.table]
    ok = np.ones((rows, cols), dtype=bool)
    for j in range(q):
        coarse_step = np.roll(coarse_frame, -j * sc, axis=1).reshape(-1)[V]
        coarse_step = coarse_step.reshape(rows, cols)
        # R_coarse^q is the identity, so step 0 also serves steps -q and q
        for i in (j, j - q) if j else (0, -q, q):
            ok &= np.roll(fine_frame, -i * sf, axis=1) == coarse_step
    matched = int(ok.sum())
    return StabilityReport(matched, cols * rows,
                           Fraction(matched, cols * rows),
                           1 - Fraction(3, params.l[n]))


@settings(max_examples=60, deadline=None)
@given(small_processes())
def test_stability_matches_orbit_walk(procs):
    # the fine-frame count against the coarse-relabeling route and the
    # orbit walk, neither of which assumes h commutes with the rotation
    for coarse, fine in zip(procs, procs[1:]):
        rep = name_stability(coarse, fine)
        assert rep == v_route_stability(coarse, fine)
        assert rep.matched == naive_matched(coarse, fine)


def test_stability_needs_consecutive_stages():
    p0, p1, p2, _, _ = desk_procs()
    for coarse, fine in ((p0, p2), (p1, p1), (p2, p1)):
        with pytest.raises(InputError):
            name_stability(coarse, fine)
    # one stage apart, but fine was not built from this coarse process
    other = compose_stage(p0, h_from_words(DESK, 0, [(1, 0), (0, 1)]))
    with pytest.raises(InputError):
        name_stability(other, p2)


class PastTheGuard(Exception):
    pass


class StandInFine:
    """A stage-1 process of `cols` columns that holds no arrays: reading
    its relabeling, the first thing after the column guard, raises."""
    stage, rows, h_list = 1, 2, [None]

    def __init__(self, cols):
        self.cols = cols

    @property
    def Z(self):
        raise PastTheGuard


@pytest.mark.parametrize("cols, fits", [(2**31, True), (2**31 + 1, False)])
def test_stability_interval_keys_guard_the_columns(cols, fits):
    # keys pack lo << 32 | length, exact in int64 while cols <= 2**31
    coarse = type("StandInCoarse", (), {"params": DESK, "stage": 0,
                                        "h_list": []})()
    if fits:
        with pytest.raises(PastTheGuard):
            name_stability(coarse, StandInFine(cols))
    else:
        with pytest.raises(ResourceError, match=(
                "^stage-1 name stability needs 2147483649 columns, "
                "interval-key limit is 2147483648$")):
            name_stability(coarse, StandInFine(cols))


def test_stability_refuses_h_off_the_rotation():
    # a stage-2 h that swaps two atoms of the first column only is a
    # permutation of the right size, but not equivariant
    _, p1, _, _, h2 = desk_procs()
    table = h2.table.copy()
    table[[0, 1]] = table[[1, 0]]
    bad = GridPermutation(h2.cols, h2.rows, table)
    assert bad.is_permutation()
    assert not bad.commutes_with(rotation_perm(DESK, 1, bad.cols, bad.rows))
    with pytest.raises(AssertionError):
        name_stability(p1, compose_stage(p1, bad))


@settings(max_examples=60, deadline=None)
@given(small_processes())
def test_memoised_names_match_fresh_labels(procs):
    for proc in procs:
        fresh = naive_labels(proc.params, proc.h_list, proc.stage,
                             proc.cols, proc.rows)
        for s in range(proc.params.s[proc.stage]):
            assert simulate_tower_name(proc, s).tolist() \
                == [int(v) for v in fresh[proc.tower(s)]]


def naive_u_words(proc, h, s):
    """u_words by fresh stage-n labels at h's resolution, read atom by
    atom through the lifted Z."""
    n = proc.stage
    params = proc.params
    k, q, p = params.k[n], params.q[n], params.p[n]
    labels = naive_labels(params, proc.h_list, n, h.cols, h.rows)
    Z = materialised_z(proc).lift(h.cols, h.rows)
    out = []
    for j in range(k):
        atoms = [s * h.cols + j + (t * p % q) * k for t in range(q)]
        out.append(tuple(int(labels[Z.table[h.table[a]]]) for a in atoms))
    return out


@settings(max_examples=60, deadline=None)
@given(small_processes())
def test_u_words_match_fresh_labels(procs):
    for proc, nxt in zip(procs, procs[1:]):
        h = nxt.h_list[-1]
        for s in range(proc.params.s[nxt.stage]):
            assert u_words(proc, h, s) == naive_u_words(proc, h, s)


def test_u_words_reject_wrong_resolution():
    _, p1, _, h1, _ = desk_procs()
    with pytest.raises(InputError):
        u_words(p1, h1, 0)


def test_stability_desk_matches_orbit_walk():
    _, p1, p2, _, _ = desk_procs()
    rep = name_stability(p1, p2)
    assert rep.matched == naive_matched(p1, p2)
    assert Fraction(rep.matched, rep.atoms) == Fraction(65, 256)


def test_labels_computed_lazily_once():
    _, _, p2, _, _ = desk_procs()
    assert p2.labels is None
    labels = frame_labels(p2)
    assert labels.letters.dtype == np.int8
    assert not labels.letters.flags.writeable
    assert not labels.starts.flags.writeable
    simulate_tower_name(p2, 0)
    distinct_names(p2)
    assert frame_labels(p2) is labels


def test_labels_memo_shared_across_threads():
    _, _, p2, _, _ = desk_procs()
    got = []
    threads = [threading.Thread(target=lambda: got.append(frame_labels(p2)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(a is got[0] for a in got)


def test_label_dtype_guards_its_range():
    # strips 0..s0-1 and the spacers B = -1, E = -2 must all fit
    assert label_dtype(1) == np.int8
    assert label_dtype(128) == np.int8
    assert label_dtype(129) == np.int16
    assert label_dtype(2 ** 15 + 1) == np.int32
    assert label_dtype(2 ** 31 + 1) == np.int64
    with pytest.raises(ResourceError):
        label_dtype(2 ** 63 + 1)
