import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlesys.errors import ConstraintError, InputError, ResourceError
from circlesys.ratarith import (DynOrder, d_index, derive_params, dyn_order,
                                load_params, parse_key_values,
                                parse_params_text)

DESK = ([2, 2], [4, 4], [2, 2, 4])


def test_desk_recursion():
    params = derive_params(*DESK)
    assert params.p == (0, 1, 65)
    assert params.q == (1, 8, 512)


def test_alpha_gaps():
    params = derive_params(*DESK)
    assert params.alpha(1) - params.alpha(0) == Fraction(1, 8)
    assert params.alpha(2) - params.alpha(1) == Fraction(1, 512)


def test_jtable_oracles():
    # 65^{-1} = 449 mod 512, computed independently by pow()
    params = derive_params(*DESK)
    order = dyn_order(params, 2)
    assert pow(65, -1, 512) == 449
    assert order[1] == 449
    assert order[511] == 63
    assert order[511] == 512 - order[1]


def test_d_index_oracle():
    params = derive_params(*DESK)
    assert d_index(params, 2, Fraction(73, 512)) == 9
    assert d_index(params, 0, Fraction(1, 3)) == 0


def test_d_index_domain():
    params = derive_params(*DESK)
    with pytest.raises(InputError):
        d_index(params, 2, Fraction(3, 2))


def test_constraint_errors():
    with pytest.raises(ConstraintError):
        derive_params([2, 2], [4, 4], [3, 2, 4])    # 3 does not divide 2
    with pytest.raises(ConstraintError):
        derive_params([2, 2], [4, 4], [2, 2, 3])    # 2 does not divide 3
    with pytest.raises(ConstraintError):
        derive_params([2, 2], [4, 4], [2, 2, 8])    # 8 > 2^2
    with pytest.raises(InputError):
        derive_params([2, 2], [1, 4], [2, 2, 4])    # l must be >= 2
    with pytest.raises(InputError):
        derive_params([2], [4, 4], [2, 2, 4])       # length mismatch


def test_parse_params_text():
    params = parse_params_text("# desk\nk = 2 2\nl = 4 4\ns = 2 2 4\n")
    assert params.q == (1, 8, 512)
    with pytest.raises(InputError):
        parse_params_text("k = 2 2\nl = 4 4\n")     # missing s
    with pytest.raises(InputError):
        parse_params_text("k = 2\nk = 2\nl = 4\ns = 1 1\n")


def test_load_params(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("k = 2 2\nl = 4 4\ns = 2 2 4\n")
    assert load_params(str(path)).p == (0, 1, 65)


@pytest.mark.parametrize("text, error", [
    ("k = 2\n# c\nk = 2\n", "f.txt:3: duplicate key 'k'"),
    ("\nj = 2\n", "f.txt:2: unknown key 'j'"),
    ("k 2\n", "f.txt:1: expected `key = value`, got 'k 2'"),
    ("k = 2  # c\n", "f.txt: missing key 'l'"),
])
def test_key_value_errors(text, error):
    with pytest.raises(InputError) as exc:
        parse_key_values(text, ("k", "l"), required=("k", "l"), source="f.txt")
    assert str(exc.value) == error


def test_key_values_strip_comments_and_blanks():
    text = "# head\n\n k = 2 2 # two\nl=\n"
    assert parse_key_values(text, ("k", "l")) == {"k": "2 2", "l": ""}


def test_load_params_rejects_non_utf8(tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(b"k = 2\xff\n")
    with pytest.raises(InputError, match="not UTF-8 text"):
        load_params(str(path))


def test_dyn_order_table_refuses_past_int64():
    # point queries stay exact at any depth, past int64 included
    params = derive_params([2] * 6, [4] * 6, [1] * 7)
    p, q = params.p[6], params.q[6]
    order = dyn_order(params, 6)
    assert q > 2 ** 63
    assert order[1] * p % q == 1
    assert order[q - 1] == q - order[1]
    # the int64 table is refused before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="needs 2147483649 entries"):
            DynOrder(1, 2 ** 31 + 1).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def coeffs(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    l = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    return k, l, [1] * (n + 1)


@given(coeffs())
@settings(max_examples=60)
def test_gcd_invariant(c):
    k, l, s = c
    params = derive_params(k, l, s)
    for n in range(1, len(params.q)):
        assert math.gcd(params.p[n], params.q[n]) == 1


@given(coeffs())
@settings(max_examples=40, deadline=None)
def test_dyn_order_routes_agree(c):
    # scalar lookup, vectorised table, d_index and a naive orbit walk
    params = derive_params(*c)
    for n in range(params.stages + 1):
        p, q = params.p[n], params.q[n]
        if q > 4096:
            break
        steps = [0] * q             # steps for the orbit of 0 to reach i
        cell = 0
        for step in range(q):
            steps[cell] = step
            cell = (cell + p) % q
        order = dyn_order(params, n)
        assert order.table.tolist() == steps
        assert [order[i] for i in range(q)] == steps
        assert [d_index(params, n, Fraction(i, q)) for i in range(q)] == steps


@given(coeffs())
@settings(max_examples=40, deadline=None)
def test_order_bijection_and_reverse(c):
    k, l, s = c
    params = derive_params(k, l, s)
    for n in range(1, len(params.q)):
        q = params.q[n]
        if q > 1000:
            break
        table = [dyn_order(params, n)[i] for i in range(q)]
        assert sorted(table) == list(range(q))
        for i in range(1, q):
            assert q - table[i] == table[q - i]
