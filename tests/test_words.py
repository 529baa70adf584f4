import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlesys.errors import InputError
from circlesys.ratarith import DynOrder, derive_params, dyn_order
from circlesys.words import (B, E, Boundary, Interior, LazyCircularWord,
                             boundary_stats, circ, decode_position, parse,
                             text_to_word, word_to_text)

from oracles import boundary_intervals, naive_parse, swept_spacer_mass

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])


def stage1_words():
    order = dyn_order(DESK, 0)
    w0 = circ([(0,), (1,)], 2, 4, 1, order)
    w1 = circ([(1,), (0,)], 2, 4, 1, order)
    return w0, w1


def test_stage1_texts():
    w0, w1 = stage1_words()
    assert word_to_text(w0) == "b 0 0 0 b 1 1 1"
    assert word_to_text(w1) == "b 1 1 1 b 0 0 0"


def test_stage2_block_head():
    # block (i=1, j=0) starts with b^{q-j_1} = b^7
    w0, w1 = stage1_words()
    order = dyn_order(DESK, 1)
    w = circ([w0, w1], 2, 4, 8, order)
    assert len(w) == 2 * 4 * 64
    block = w[2 * 64:3 * 64]    # block (i=1, j=0), head b^{q-j_1} = b^7
    assert block[:7] == (B,) * 7
    assert block[7] != B


def lazy_stage2(children=None):
    w0, w1 = stage1_words()
    return LazyCircularWord(children or [w0, w1], 2, 4, 8, dyn_order(DESK, 1))


def test_lazy_matches_materialized():
    w0, w1 = stage1_words()
    lazy = lazy_stage2()
    mat = circ([w0, w1], 2, 4, 8, dyn_order(DESK, 1))
    assert tuple(lazy[m] for m in range(512)) == mat


def test_lazy_letters_are_python_ints_over_array_children():
    w0, w1 = stage1_words()
    lazy = lazy_stage2([np.array(w, dtype=np.int8) for w in (w0, w1)])
    letters = [lazy[m] for m in range(len(lazy))]
    assert all(type(c) is int for c in letters)
    assert tuple(letters) == circ([w0, w1], 2, 4, 8, dyn_order(DESK, 1))


def test_decode_oracles():
    lazy = lazy_stage2()
    assert decode_position(lazy, 0) == Boundary(B, 0, 0, 0)
    assert decode_position(lazy, 8) == Interior(0, 0, 0, 0)
    assert decode_position(lazy, 511) == Boundary(E, 7, 1, 6)
    with pytest.raises(InputError):
        decode_position(lazy, 512)


def test_parse_examples():
    w0, w1 = stage1_words()
    assert parse(w0 + w1, [w0, w1]) == [(0, 0), (8, 1)]
    assert parse((0, 0, 0), [w0]) == []


# 0 and P*Q are congruent modulo both primes, and P*Q needs int64
# packing; 256, 257 and 65537 need int16 and int32 packing, whose bytes
# can match off a letter boundary.  An int8 dictionary holds B, E and
# other negatives down to -128.
P, Q = 2147483647, 2147483629
LETTERS = st.sampled_from([E, B, -3, -129, 0, 1, 2, 256, 257, 65537, P,
                           P * Q])
INT8_LETTERS = st.sampled_from([E, B, -3, -128, 0, 1, 2, 127])


@st.composite
def scan_cases(draw):
    """(text, dictionary), the dictionary a list of tuples, a list of
    int64 arrays or a 2-D int8 array.  Words may be longer than the
    text, and a word may be listed again after its first index."""
    form = draw(st.sampled_from(["tuples", "int64 arrays", "int8 array"]))
    letters = INT8_LETTERS if form == "int8 array" else LETTERS
    length = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # periodic text: overlapping and repeated occurrences
        period = draw(st.lists(letters, min_size=1, max_size=4))
        n = draw(st.integers(0, 30))
        x = tuple((period * n)[:n])
    else:
        x = tuple(draw(st.lists(letters, max_size=30)))
    dictionary = []
    for _ in range(draw(st.integers(1, 4))):
        if len(x) >= length and draw(st.booleans()):
            off = draw(st.integers(0, len(x) - length))
            dictionary.append(x[off:off + length])
        else:
            dictionary.append(tuple(draw(st.lists(
                letters, min_size=length, max_size=length))))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(dictionary) - 1))
        dictionary.insert(draw(st.integers(i + 1, len(dictionary))),
                          dictionary[i])
    if form == "int8 array":
        return x, np.array(dictionary, dtype=np.int8)
    if form == "int64 arrays":
        return x, [np.array(w, dtype=np.int64) for w in dictionary]
    return x, dictionary


@given(scan_cases())
@settings(max_examples=400)
def test_parse_matches_naive(case):
    x, dictionary = case
    assert parse(x, dictionary) == naive_parse(x, dictionary)


def test_parse_rejects_hash_collisions():
    assert parse((P * Q, 1, 0, 1), [(0, 1)]) == [(2, 0)]
    assert parse((0, 1), [(P * Q, 1), (0, 1)]) == [(0, 1)]


def test_parse_matches_only_on_letter_boundaries():
    # int16 packing: the bytes of 257 start at byte offset 1 of (256, 1)
    assert parse((256, 1), [(257,)]) == []
    assert parse((256, 1, 257), [(257,)]) == [(2, 0)]
    # int32 packing: the bytes of 256 start at byte offset 3 of (65536, 1)
    assert parse((65536, 1), [(256,)]) == []


def test_parse_input_errors():
    with pytest.raises(InputError, match="^empty dictionary$"):
        parse((0, 1), [])
    with pytest.raises(InputError, match="share a positive length"):
        parse((0, 1), [(0,), (0, 1)])
    with pytest.raises(InputError, match="share a positive length"):
        parse((0, 1), [np.zeros(1, np.int8), np.zeros(2, np.int8)])
    with pytest.raises(InputError, match="share a positive length"):
        parse((0, 1), np.zeros((2, 0), np.int8))
    with pytest.raises(InputError, match="fit in int64"):
        parse((2 ** 63, 1), [(1,)])
    with pytest.raises(InputError, match="fit in int64"):
        parse((0, 1), [(1,), (-2 ** 63 - 1,)])


def test_boundary_stats_desk():
    w0, _ = stage1_words()
    st0 = boundary_stats(w0, k=2, l=4, q=1, order=dyn_order(DESK, 0))
    assert st0.boundary_fraction == Fraction(1, 4)
    st2 = boundary_stats(lazy_stage2())
    assert st2.boundary_fraction == Fraction(1, 4)
    assert st2.near_fraction == Fraction(3, 4)


def test_boundary_stats_rejects_noncircular():
    with pytest.raises(InputError):
        boundary_stats((0, 1, 0, 1), k=2, l=2, q=1, order=dyn_order(DESK, 0))


def test_boundary_stats_names_the_first_corrupted_spacer_run():
    w0, w1 = stage1_words()
    order = dyn_order(DESK, 1)
    w = circ([w0, w1], 2, 4, 8, order)
    runs = boundary_intervals(2, 4, 8, order)
    b_run = next(r for r in runs if r[1] - r[0] >= 3 and w[r[0]] == B)
    e_run = next(r for r in runs if r[1] - r[0] >= 3 and w[r[0]] == E)
    assert b_run < e_run

    def corrupt(*runs):
        bad = list(w)
        for lo, hi in runs:
            bad[(lo + hi) // 2] = 0
        return bad

    for bad, (lo, hi) in ((corrupt(b_run), b_run), (corrupt(e_run), e_run),
                          (corrupt(e_run, b_run), b_run)):
        with pytest.raises(InputError) as err:
            boundary_stats(bad, k=2, l=4, q=8, order=order)
        assert str(err.value) == \
            "letters in [%d, %d) do not match a spacer run" % (lo, hi)


def test_half_spacer_degenerate():
    w = circ([(0,)], 1, 2, 1, DynOrder(0, 1))
    assert boundary_stats(w, k=1, l=2, q=1,
                          order=DynOrder(0, 1)).boundary_fraction == Fraction(1, 2)


def test_token_round_trip():
    w0, w1 = stage1_words()
    assert text_to_word(word_to_text(w0)) == w0
    with pytest.raises(InputError):
        text_to_word("b x 0")


@st.composite
def small_systems(draw):
    k = draw(st.integers(1, 4))
    l = draw(st.integers(2, 5))
    q = draw(st.integers(1, 8))
    p = draw(st.sampled_from([a for a in range(max(1, q))
                              if math.gcd(a, q) == 1] or [0]))
    if q == 1:
        p = 0
    children = [tuple(draw(st.integers(0, 5)) for _ in range(q))
                for _ in range(k)]
    return children, k, l, q, p


@given(small_systems())
@settings(max_examples=60)
def test_circ_length_identity(sys_):
    children, k, l, q, p = sys_
    w = circ(children, k, l, q, DynOrder(p, q))
    assert len(w) == k * l * q * q


@given(small_systems())
@settings(max_examples=40)
def test_circ_boundary_fraction(sys_):
    children, k, l, q, p = sys_
    order = DynOrder(p, q)
    w = circ(children, k, l, q, order)
    stats = boundary_stats(w, k=k, l=l, q=q, order=order)
    assert stats.boundary_fraction == Fraction(1, l)
    assert stats.near_fraction <= Fraction(3, l)


@given(small_systems())
@settings(max_examples=100)
@example(([(0,), (1,)], 2, 2, 1, 0))
@example(([(0,), (1,)], 2, 3, 1, 0))
def test_closed_form_masses_equal_the_swept_runs(sys_):
    # only a q = 1 word ends on a body with no spacer after it, and
    # from l = 3 on that body's last letter is far from every spacer
    children, k, l, q, p = sys_
    order = DynOrder(p, q)
    n = k * l * q * q
    boundary, near = swept_spacer_mass(k, l, q, order)
    for word in (circ(children, k, l, q, order),
                 LazyCircularWord(children, k, l, q, order)):
        stats = boundary_stats(word, k=k, l=l, q=q, order=order)
        assert (stats.boundary_fraction, stats.near_fraction) == \
            (Fraction(boundary, n), Fraction(near, n))


@given(small_systems(), st.data())
@settings(max_examples=60)
def test_boundary_stats_names_the_corrupted_run_of_an_array(sys_, data):
    children, k, l, q, p = sys_
    order = DynOrder(p, q)
    word = circ(children, k, l, q, order, np.empty(k * l * q * q, np.int8))
    runs = boundary_intervals(k, l, q, order)
    lo, hi = data.draw(st.sampled_from(runs))
    word[data.draw(st.integers(lo, hi - 1))] = 0
    with pytest.raises(InputError) as err:
        boundary_stats(word, k=k, l=l, q=q, order=order)
    assert str(err.value) == \
        "letters in [%d, %d) do not match a spacer run" % (lo, hi)
