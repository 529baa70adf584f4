import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlesys.cli import check_process
from circlesys.errors import ConstraintError, InputError, ResourceError
from circlesys.names import name_stability
from circlesys.procsim import (EpsApproxReport, GridPermutation,
                               LiftedPermutation, build_process,
                               check_requirements, compose_stage, eps_approx,
                               h_from_words, initial_process, rotation_perm,
                               rotation_shift, stages)
from circlesys.ratarith import CHUNK, derive_params

from oracles import loop_h_from_words, table_marks
from strategies import (balanced_h_words, materialised_z, process_chain,
                        small_params, small_processes)

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


def test_grid_sizes():
    _, p1, p2, _, _ = desk_procs()
    assert (p1.cols, p1.rows, p1.atoms) == (8, 2, 16)
    assert (p2.cols, p2.rows, p2.atoms) == (512, 4, 2048)


def test_towers_partition():
    for proc in desk_procs()[:3]:
        towers = proc.towers()
        assert len(towers) == DESK.s[proc.stage]
        atoms = np.concatenate(towers)
        assert len(atoms) == proc.atoms
        assert sorted(atoms.tolist()) == list(range(proc.atoms))
        for t in towers:
            assert len(t) == DESK.q[proc.stage]


def test_h_commutes_with_previous_rotation():
    _, _, _, h1, h2 = desk_procs()
    for n, h in ((0, h1), (1, h2)):
        rot = rotation_perm(DESK, n, h.cols, h.rows)
        assert h.compose(rot) == rot.compose(h)
        assert h.commutes_with(rot) and rot.commutes_with(h)
    # a transposition of two atoms in one row moves with no column shift
    swap = GridPermutation(8, 2, [1, 0] + list(range(2, 16)))
    assert not swap.commutes_with(rotation_perm(DESK, 1, 8, 2))


def test_rotation_shift_moves_every_row():
    for params in (DESK, VAR):
        for n in range(params.stages + 1):
            cols = 4 * params.q[n]
            shift = rotation_shift(params, n, cols)
            table = rotation_perm(params, n, cols, 3).table.reshape(3, cols)
            assert np.array_equal(table % cols,
                                  np.roll(np.arange(cols), -shift)[None]
                                  .repeat(3, axis=0))
    with pytest.raises(InputError):
        rotation_shift(DESK, 2, 100)


def test_orbit_is_rotation_orbit():
    # in the rotation frame a tower is a rotation orbit; its atoms are
    # that orbit's images under Z
    procs = desk_procs()[:3]
    for proc in procs:
        rot = rotation_perm(DESK, proc.stage, proc.cols, proc.rows).table
        for s in range(DESK.s[proc.stage]):
            orbit = proc.orbit(s)
            assert np.array_equal(rot[orbit], np.roll(orbit, -1))
            assert np.array_equal(proc.tower(s),
                                  materialised_z(proc).table[orbit])
    with pytest.raises(InputError):
        procs[1].orbit(2)


def test_lift_is_rigid():
    _, p1, _, h1, _ = desk_procs()
    lifted = h1.lift(8, 2)
    # block refinement: images of the 4 sub-columns of a cell stay together
    for src in range(h1.atoms if hasattr(h1, "atoms") else h1.cols * h1.rows):
        base = int(h1.table[src])
        st, ss = src % h1.cols, src // h1.cols
        bt, bs = base % h1.cols, base // h1.cols
        for off in range(4):
            fine_src = ss * 8 + st * 4 + off
            fine_dst = int(lifted.table[fine_src])
            assert fine_dst == bs * 8 + bt * 4 + off


@st.composite
def lifts(draw):
    """A random permutation of a small grid and refinement factors."""
    cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    table = draw(st.permutations(range(cols * rows)))
    return (GridPermutation(cols, rows, table),
            draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(lifts())
def test_lift_moves_each_atom_rigidly(case):
    g, fc, fr = case
    cols, rows = g.cols * fc, g.rows * fr
    lifted = g.lift(cols, rows)
    assert lifted.is_permutation()
    for src in range(g.cols * g.rows):
        dst = int(g.table[src])
        for dr in range(fr):
            for dc in range(fc):
                fine_src = ((src // g.cols) * fr + dr) * cols \
                    + (src % g.cols) * fc + dc
                fine_dst = ((dst // g.cols) * fr + dr) * cols \
                    + (dst % g.cols) * fc + dc
                assert lifted.table[fine_src] == fine_dst


# index chunks the lifted apply is checked on: empty, one index, and
# sizes on both sides of one and two chunk boundaries
CHUNK_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@settings(max_examples=60, deadline=None)
@given(small_processes(), st.data())
def test_lifted_apply_matches_materialised_z(procs, data):
    for proc in procs:
        table = materialised_z(proc).table
        assert proc.Z.is_permutation()
        assert np.array_equal(proc.Z.apply(np.arange(proc.atoms)), table)
        size = data.draw(st.sampled_from(CHUNK_SIZES)
                         | st.integers(0, 3 * CHUNK))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        idx = np.random.default_rng(seed).integers(0, proc.atoms, size)
        got = proc.Z.apply(idx)
        assert got.dtype == np.int64 and np.array_equal(got, table[idx])


def test_lift_refuses_a_grid_it_does_not_refine():
    _, _, _, _, h2 = desk_procs()
    for cols, rows in ((24, 4), (16, 6), (8, 4)):
        with pytest.raises(InputError):
            LiftedPermutation(h2, cols, rows)


def test_process_holds_only_small_tables():
    # W lives on h's grid, 16 x 4 at stage 2 of DESK, not on the stage grid
    _, p1, p2, h1, h2 = desk_procs()
    assert (p2.W.cols, p2.W.rows) == (h2.cols, h2.rows)
    assert p2.W == p1.W.lift(h2.cols, h2.rows).compose(h2)
    assert p1.W == h1


def test_build_process_allocates_no_full_size_table():
    # grid3: 524,288 stage-3 atoms, so a full-size int64 Z is 4 MiB
    params = derive_params([2, 4, 4], [2, 2, 2], [2, 2, 4, 4])
    w3 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    tracemalloc.start()
    try:
        proc = build_process(params, [W1, W2_VAR, w3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proc.atoms == 524288
    assert peak < 1 << 20


def not_a_permutation(h, params, n):
    """h with the first-column image of slot 0 of row 0 also taken by
    slot 1, in every equivariant copy: it still commutes with the
    stage-n rotation, but two atoms share each such image."""
    table = h.table.copy()
    k = params.k[n]
    for m in range(params.q[n]):
        table[m * k] = table[1 + m * k]
    bad = GridPermutation(h.cols, h.rows, table)
    assert bad.commutes_with(rotation_perm(params, n, h.cols, h.rows))
    assert not bad.is_permutation()
    return bad


def test_checks_fail_when_h_is_not_a_permutation():
    p0, p1, p2, _, h2 = desk_procs()
    bad = compose_stage(p1, not_a_permutation(h2, DESK, 1))
    assert not bad.Z.is_permutation()
    good, _, _ = check_process(SimpleNamespace(params=DESK,
                                               procs=[p0, p1, p2]))
    ok, value, _ = check_process(SimpleNamespace(params=DESK,
                                                 procs=[p0, p1, bad]))
    assert good and not ok and value == "2048 atoms"
    with pytest.raises(AssertionError):
        name_stability(p1, bad)


def test_h_from_words_validation():
    with pytest.raises(ConstraintError):
        h_from_words(DESK, 0, [(0, 0), (1, 0)])   # symbol 0 used 3 times
    with pytest.raises(InputError):
        h_from_words(DESK, 0, [(0, 1)])           # needs s_1 = 2 words
    for n in (-1, DESK.stages):
        with pytest.raises(InputError, match="stage %d" % (n + 1)):
            h_from_words(DESK, n, W1)


@settings(max_examples=100, deadline=None)
@given(small_params(), st.booleans(), st.data())
def test_h_from_words_matches_the_loop(params, balanced, data):
    # unbalanced words are any words of the right length and alphabet
    n = data.draw(st.integers(0, params.stages - 1))
    if balanced:
        h_words = balanced_h_words(data.draw, params, n)
    else:
        word = st.lists(st.integers(0, params.s[n] - 1),
                        min_size=params.k[n], max_size=params.k[n])
        h_words = [data.draw(word) for _ in range(params.s[n + 1])]
    try:
        want = loop_h_from_words(params, n, h_words)
    except ConstraintError as exc:
        with pytest.raises(ConstraintError) as got:
            h_from_words(params, n, h_words)
        assert str(got.value) == str(exc)
    else:
        assert h_from_words(params, n, h_words) == want


@settings(max_examples=40, deadline=None)
@given(small_processes())
def test_stage_grid_is_q_by_s(procs):
    # the premise of `GridProcess.orbit`
    for proc in procs:
        n = proc.stage
        assert (proc.cols, proc.rows) == (proc.params.q[n], proc.params.s[n])


@settings(max_examples=40, deadline=None)
@given(small_params(), st.data())
def test_stages_yield_the_composed_chain(params, data):
    # the chain composed stage by stage, as the run context built it
    count = data.draw(st.integers(0, params.stages))
    words = [balanced_h_words(data.draw, params, n) for n in range(count)]
    chain = [initial_process(params)]
    for n, h_words in enumerate(words):
        chain.append(compose_stage(chain[-1],
                                   h_from_words(params, n, h_words)))
    got = list(stages(params, words))
    assert [(p.stage, p.W) for p in got] == [(p.stage, p.W) for p in chain]
    assert build_process(params, words).W == chain[-1].W


def test_more_h_word_lists_than_stages_are_refused():
    with pytest.raises(InputError):
        build_process(DESK, [W1, W2_DUP, W2_DUP])
    with pytest.raises(InputError):
        check_requirements(DESK, [W1, W2_DUP, W2_DUP])


def test_atom_cap():
    with pytest.raises(ResourceError):
        build_process(DESK, [W1, W2_DUP], cap_atoms=100)


def test_eps_approx_desk():
    _, p1, p2, _, _ = desk_procs()
    rep = eps_approx(p1, p2)
    assert rep.eps == Fraction(1, 4)
    assert rep.deleted == 512
    assert rep.blocks == 192
    assert rep.subordinate


def naive_eps_approx(coarse, fine):
    """eps_approx by a greedy walk over the owner table filled atom by
    atom, and whether the kept atoms meet the levels of each coarse tower
    in equal numbers."""
    params = coarse.params
    if fine.cols % coarse.cols or fine.rows % coarse.rows:
        raise InputError("fine grid does not refine coarse grid")
    if fine.stage != coarse.stage + 1:
        raise InputError("processes must be one stage apart")
    q = params.q[coarse.stage]
    qf = params.q[fine.stage]
    fc = fine.cols // coarse.cols
    fr = fine.rows // coarse.rows

    # which coarse level (tower, step) owns each fine atom
    owner = np.empty(fine.atoms, dtype=np.int64)
    n_coarse = params.s[coarse.stage]
    for S in range(n_coarse):
        for t, a in enumerate(coarse.tower(S)):
            u, s = int(a) % coarse.cols, int(a) // coarse.cols
            for ds in range(fr):
                row = (s * fr + ds) * fine.cols
                lo = row + u * fc
                owner[lo:lo + fc] = S * q + t

    # word position t of a fine tower is a new spacer iff the column it
    # occupies is freshly labelled at the fine stage
    b_cols, e_cols = table_marks(params, fine.stage)
    col_of_t = np.arange(qf, dtype=np.int64) * params.p[fine.stage] % qf
    is_spacer = b_cols[col_of_t] | e_cols[col_of_t]

    deleted = []
    blocks = 0
    subordinate = True
    for s in range(params.s[fine.stage]):
        tw = fine.tower(s)
        own = owner[tw]
        t = 0
        while t < qf:
            if is_spacer[t]:
                deleted.append(tw[t])
                t += 1
                continue
            S, step = divmod(int(own[t]), q)
            if (step == 0 and t + q <= qf
                    and np.array_equal(own[t:t + q], np.arange(S * q, S * q + q))):
                blocks += 1
                t += q
            else:
                subordinate = False
                deleted.append(tw[t])
                t += 1

    mask = np.zeros(fine.atoms, dtype=bool)
    if deleted:
        mask[np.array(deleted, dtype=np.int64)] = True
    per_level = np.zeros(n_coarse * q, dtype=np.int64)
    np.add.at(per_level, owner[~mask], 1)
    per_level = per_level.reshape(n_coarse, q)
    levels_equal = all(len(set(row)) == 1 for row in per_level.tolist())
    return EpsApproxReport(Fraction(len(deleted), fine.atoms),
                           len(deleted), blocks, subordinate), levels_equal


@settings(max_examples=40, deadline=None)
@given(small_processes(), st.data())
def test_eps_approx_matches_atom_by_atom_owner(procs, data):
    # a coarse and a fine process built from different h-words need not
    # be subordinate, so the failed-position path is compared too; the
    # kept atoms meet coarse levels equally in every case, as eps_approx
    # proves instead of counting
    other = process_chain(data.draw, procs[0].params)
    for chain in (procs, other):
        for coarse, fine in zip(procs, chain[1:]):
            rep, levels_equal = naive_eps_approx(coarse, fine)
            assert levels_equal
            assert eps_approx(coarse, fine) == rep


def test_eps_approx_of_unrelated_processes_matches_oracle():
    p0, p1, _, _, h2 = desk_procs()
    q1 = compose_stage(p0, h_from_words(DESK, 0, [(1, 0), (0, 1)]))
    fine = compose_stage(q1, h2)
    rep = eps_approx(p1, fine)
    assert not rep.subordinate
    assert (rep, True) == naive_eps_approx(p1, fine)


def test_eps_approx_holds_one_tower_at_a_time():
    # 16 towers of q[2] = 4,096 levels, 65,536 atoms
    params = derive_params([2, 4], [2, 64], [2, 2, 16])
    balanced = [w for w in itertools.product((0, 1), repeat=4)
                if sum(w) == 2]
    p1 = build_process(params, [W1])
    p2 = compose_stage(p1, h_from_words(
        params, 1, itertools.islice(itertools.cycle(balanced), 16)))
    tracemalloc.start()
    try:
        rep = eps_approx(p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.deleted, rep.subordinate) == (p2.atoms // 64, True)
    assert peak <= 128 * params.q[2]


def test_requirements_desk_duplicate():
    rep = check_requirements(DESK, [W1, W2_DUP])
    assert rep.req1 != "fail"
    assert rep.req2
    assert not rep.req3
    assert rep.req3_witness is not None


def test_requirements_variant_all_pass():
    rep = check_requirements(VAR, [W1, W2_VAR])
    assert rep.req1 != "fail"
    assert rep.req2
    assert rep.req3


def test_permutation_identity_inverse():
    g = GridPermutation.identity(8, 2)
    h = h_from_words(DESK, 0, W1).lift(8, 2)
    assert h.compose(h.inverse()) == g
    assert h.inverse().compose(h) == g
    assert h.is_permutation()


@st.composite
def tables(draw):
    """A grid and a table for it: a permutation, or one with entries
    drawn from -1..size, duplicates and out-of-range values included."""
    cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    size = cols * rows
    table = draw(st.one_of(
        st.permutations(range(size)),
        st.lists(st.integers(-1, size), min_size=size, max_size=size)))
    return cols, rows, table


@settings(max_examples=300, deadline=None)
@given(tables())
@example((3, 1, [0, 1, -1]))    # -1 would wrap to the one atom not hit
@example((3, 1, [0, 1, 3]))     # size indexes no atom
def test_is_permutation_matches_sort(case):
    cols, rows, table = case
    want = np.array_equal(np.sort(table), np.arange(cols * rows))
    assert GridPermutation(cols, rows, table).is_permutation() == want
