import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys import consys
from circlesys.cli import check_cylinder
from circlesys.consys import (ConstructionSequence, build_sequence,
                              check_unique_readability, estimate_cylinder,
                              in_S_window, verify_uniformity)
from circlesys.errors import InputError, ResourceError
from circlesys.ratarith import derive_params, dyn_order
from circlesys.words import LazyCircularWord, circ, parse

from oracles import dict_uniformity, per_word_check_cylinder, table_cylinders
from strategies import small_sequences

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])
W1 = [(0, 1), (1, 0)]
W2 = [(0, 1), (1, 0)]


def desk_cs():
    return build_sequence(2, DESK, [W1, W2])


def test_build_shapes():
    cs = desk_cs()
    assert cs.depth == 2
    assert [len(w) for w in cs.levels[1]] == [8, 8]
    assert [len(w) for w in cs.levels[2]] == [512, 512]


def test_stage2_readability_exhaustive():
    assert check_unique_readability(desk_cs(), 2) == []


def test_readability_reports_planted_violation():
    # each square holds the other word one letter off the word boundary:
    # 001001 has 100 at offset 2, 100100 has 001 at offset 1
    cs = ConstructionSequence(DESK, 2, [W1],
                              [[(0,), (1,)], [(0, 0, 1), (1, 0, 0)]])
    assert check_unique_readability(cs, 1) == [(0, 0, 2, 1), (1, 1, 1, 0)]


def test_readability_reports_planted_violation_in_array_words():
    # the same planted pair as int8 arrays: a pair joined with `u + v`
    # would add letters and find nothing
    level = [np.array(w, dtype=np.int8) for w in [(0, 0, 1), (1, 0, 0)]]
    cs = ConstructionSequence(DESK, 2, [W1], [
        [np.array([a], dtype=np.int8) for a in (0, 1)], level])
    assert check_unique_readability(cs, 1) == [(0, 0, 2, 1), (1, 1, 1, 0)]


@given(small_sequences())
@settings(max_examples=60, deadline=None)
def test_array_levels_equal_the_tuple_route(case):
    sigma, params, prewords = case
    cs = build_sequence(sigma, params, prewords)
    want = [(a,) for a in range(sigma)]
    for n in range(cs.depth + 1):
        if n:
            k, l, q = params.k[n - 1], params.l[n - 1], params.q[n - 1]
            want = [circ([want[c] for c in tup], k, l, q,
                         dyn_order(params, n - 1))
                    for tup in prewords[n - 1]]
        level = cs.levels[n]
        assert cs.is_materialized(n)
        assert [tuple(w.tolist()) for w in level] == want
        assert not any(w.flags.writeable for w in level)
        assert {w.dtype for w in level} == {cs.levels[0][0].dtype}
        if sigma <= 126:
            assert level[0].dtype == np.int8


def test_grid3_level_words_take_one_byte_per_letter():
    # the grid3 benchmark's sequence: 4 stage-3 words of 131,072 letters
    # take 512 KiB as int8 arrays (4 MiB of pointers as tuples)
    params = derive_params([2, 4, 4], [2, 2, 2], [2, 2, 4, 4])
    w2 = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    w3 = list(itertools.permutations(range(4)))[:4]
    cs = build_sequence(2, params, [W1, w2, w3])
    assert sum(w.nbytes for w in cs.levels[3]) == 524288


def test_level0_letters_are_read_only_views():
    # 130 letters need int16; every letter reads as a one-letter word
    cs = build_sequence(130, DESK, [[(0, 1), (1, 0)]])
    level = cs.levels[0]
    assert len(level) == 130
    assert [w.tolist() for w in level] == [[a] for a in range(130)]
    assert {w.dtype for w in level} == {np.dtype(np.int16)}
    assert not any(w.flags.writeable for w in level)
    with pytest.raises(ValueError):
        level[5][0] = 7
    assert level[5].tolist() == [5]
    assert level[-1].tolist() == [129]
    assert [w.tolist() for w in level[3:6]] == [[3], [4], [5]]
    with pytest.raises(IndexError):
        level[130]
    assert cs.is_materialized(0)


def test_level0_at_the_alphabet_cap_holds_no_word_per_letter():
    # at 2**20 letters a view per letter costs about 130 MiB; the level
    # keeps only the 4 MiB int32 alphabet
    sigma = 1 << 20
    tracemalloc.start()
    try:
        cs = build_sequence(sigma, DESK, [[(0, 1), (1, 0)]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cs.levels[0][sigma - 1].tolist() == [sigma - 1]
    assert peak < 2 * 4 * sigma, peak


def test_parse_packs_a_level0_dictionary_once():
    # reducing and packing each one-letter word on its own peaked at
    # 58 MiB here; the level is one int32 column, packed in one piece
    cs = build_sequence(1 << 18, DESK, [W1])
    tracemalloc.start()
    try:
        hits = parse((5, 6, 7), cs.levels[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == [(0, 5), (1, 6), (2, 7)]
    assert peak < 40 * 2 ** 20, peak


def test_rung3_readability():
    # the 3-stage rung: q = 1, 4, 128, 131072; stage-3 words are built
    # from the four cyclic shifts of 0 1 2 3
    params = derive_params([2, 4, 4], [2, 2, 2], [2, 2, 4, 4])
    w2 = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    w3 = [tuple((i + c) % 4 for c in range(4)) for i in range(4)]
    cs = build_sequence(2, params, [W1, w2, w3])
    assert cs.is_materialized(3)
    assert [len(w) for w in cs.levels[3]] == [131072] * 4
    assert check_unique_readability(cs, 2) == []
    assert check_unique_readability(cs, 3) == []


def test_duplicate_prewords_collapse_with_warning():
    with pytest.warns(UserWarning):
        cs = build_sequence(2, DESK, [W1, [(0, 1), (1, 0), (0, 1), (1, 0)]])
    assert len(cs.levels[2]) == 2


def test_strong_uniformity_rejects_skew():
    # strong uniformity asks each word to occur k/|level| times in every
    # tuple: (0, 0) holds word 0 twice and word 1 never
    for tuples, strong in [([(0, 0), (1, 0)], False), (W1, True)]:
        cs = build_sequence(2, DESK, [tuples, W2])
        assert verify_uniformity(cs, 0).strong is strong


def test_uniformity_desk():
    cs = desk_cs()
    rep0 = verify_uniformity(cs, 0)
    assert rep0.strong
    assert rep0.f_value == 3
    assert rep0.densities == [Fraction(3, 8), Fraction(3, 8)]
    rep1 = verify_uniformity(cs, 1)
    assert rep1.strong
    assert rep1.f_value == 24
    assert rep1.eps == 0


def test_uniformity_skewed_negative():
    cs = build_sequence(2, DESK, [[(0, 0), (1, 0)], W2])
    rep = verify_uniformity(cs, 0)
    assert not rep.strong
    assert rep.eps > 0


def test_cylinder_gap_zero():
    cs = desk_cs()
    for base in (0, 1):
        for u in range(2):
            est = estimate_cylinder(cs, u, base, base)
            assert est.gap == 0
            assert est.within_bound


def test_cylinder_single_word_factor():
    one = build_sequence(1, derive_params([1, 1], [4, 4], [1, 1, 1]),
                         [[(0,)], [(0,)]])
    est = estimate_cylinder(one, 0, 1, 1)
    assert est.proportions[0] == est.proportions[-1]
    assert est.gap == 0


def test_cylinder_claimed_eps_negative():
    cs = build_sequence(2, DESK, [[(0, 0), (1, 0)], W2])
    est = estimate_cylinder(cs, 0, 0, 0, eps=0)
    assert est.gap > 0
    assert not est.within_bound


def test_cylinder_word_lookup():
    cs = desk_cs()
    est = estimate_cylinder(cs, cs.levels[1][0], 1, 1)
    assert est.u_index == 0
    assert estimate_cylinder(cs, [1], 0, 1).u_index == 1
    for word in [(9, 9), cs.levels[1][0][:4], "ab"]:
        with pytest.raises(InputError):
            estimate_cylinder(cs, word, 1, 1)
    # a lazy level is counted by index, and holds no word to look up
    lazy1 = [LazyCircularWord([cs.levels[0][c] for c in tup], 2, 4, 1,
                              dyn_order(DESK, 0)) for tup in W1]
    lazy = ConstructionSequence(DESK, 2, cs.prewords,
                                [cs.levels[0], lazy1, cs.levels[2]])
    assert estimate_cylinder(lazy, 1, 1, 1) == estimate_cylinder(cs, 1, 1, 1)
    with pytest.raises(InputError):
        estimate_cylinder(lazy, cs.levels[1][0], 1, 1)


# stages of arity 2**32 and 2**31, with stand-ins for their words: a
# count carried from level 0 to level 2 reaches 2**63, one from level 1
# does not
HUGE = ConstructionSequence(derive_params([1 << 32, 1 << 31], [2, 2],
                                          [1, 1, 1]),
                            1, [[(0,)], [(0,)]],
                            [np.zeros((1, 1), np.int8)] * 3)


def test_count_below_int64_is_accepted():
    assert estimate_cylinder(HUGE, 0, 1, 1, eps=0).gap == 0


@pytest.mark.parametrize("cs, call, args, error, match", [
    (None, estimate_cylinder, (0, 2, 1), InputError, "base_level <= n"),
    (None, estimate_cylinder, (0, -1, 0), InputError, "0 <= base_level"),
    (None, estimate_cylinder, (0, 3, 3), InputError, "n < depth"),
    (None, estimate_cylinder, (0, 0, 2), InputError, "n < depth"),
    (None, estimate_cylinder, (-1, 0, 0), InputError, "0 <= u < 2"),
    (None, estimate_cylinder, (2, 1, 1), InputError, "0 <= u < 2"),
    (None, verify_uniformity, (-1,), InputError, "0 <= n < depth 2"),
    (None, verify_uniformity, (2,), InputError, "0 <= n < depth 2"),
    (HUGE, estimate_cylinder, (0, 0, 1), ResourceError, "past int64"),
], ids=["base above n", "negative base", "base past depth", "n past depth",
        "negative u", "u past level", "negative stage", "stage past depth",
        "count past int64"])
def test_out_of_range_is_refused(cs, call, args, error, match):
    with pytest.raises(error, match=match):
        call(cs or desk_cs(), *args)


@given(small_sequences())
@settings(max_examples=60, deadline=None)
def test_counts_equal_the_dict_and_table_routes(case):
    # skewed tuples give eps > 0; every base level below n is counted
    # through the levels between
    cs = build_sequence(*case)
    for n in range(cs.depth):
        rep = verify_uniformity(cs, n)
        want = dict_uniformity(cs, n)
        assert rep == want and repr(rep) == repr(want)
        assert np.array_equal(rep.M, want.M) and not rep.M.flags.writeable
        for base in range(n + 1):
            want = table_cylinders(cs, base, n, rep.eps)
            got = [estimate_cylinder(cs, u, base, n)
                   for u in range(len(cs.levels[base]))]
            assert got == want and repr(got) == repr(want)


@given(small_sequences(), st.sampled_from([1, Fraction(1, 2), 0]))
@settings(max_examples=60, deadline=None)
def test_cylinder_check_equals_the_per_word_loop(case, shrink):
    # a shrunk eps puts words over the bound, so the first one is named
    cs = build_sequence(*case)
    ctx = SimpleNamespace(cs=cs, params=cs.params, uniformity=lambda n:
                          consys.verify_uniformity(cs, n))
    verify = consys.verify_uniformity

    def shrunk(cs, n):
        rep = verify(cs, n)
        return dataclasses.replace(rep, eps=rep.eps * shrink)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consys, "verify_uniformity", shrunk)
        assert check_cylinder(ctx) == per_word_check_cylinder(ctx)


def test_s_window_certificate():
    cs = desk_cs()
    window = tuple(cs.levels[2][0])
    cert = in_S_window(window, cs, 9)
    assert cert.failed_stage is None
    assert cert.witnesses[1] == (1, 7)
    assert cert.witnesses[2] == (9, 503)


def test_s_window_inner_copy():
    cs = desk_cs()
    w1 = tuple(cs.levels[1][0])
    cert = in_S_window(w1, cs, 3)
    assert cert.max_stage == 1
    assert cert.witnesses[1] == (3, 5)


def test_s_window_all_b_refused():
    from circlesys.words import B
    cert = in_S_window((B,) * 16, desk_cs(), 4)
    assert cert.failed_stage == 1
    assert cert.max_stage == 0


def test_s_window_origin_range():
    with pytest.raises(InputError):
        in_S_window((0, 1), desk_cs(), 5)
