"""Hypothesis strategies and oracles shared by the grid-process and
construction-sequence tests."""

from hypothesis import assume
from hypothesis import strategies as st

from circlesys.errors import ConstraintError
from circlesys.procsim import (GridPermutation, compose_stage, h_from_words,
                               initial_process)
from circlesys.ratarith import derive_params


def materialised_z(proc):
    """The stage relabeling Z_n of `proc` as a full table of the stage
    grid, by the chain Z_m = lift(Z_{m-1}) lift(h_m) from the identity
    of the stage-0 grid: the oracle of the factored `proc.Z`."""
    params = proc.params
    Z = GridPermutation.identity(params.q[0], params.s[0])
    for m, h in enumerate(proc.h_list, 1):
        cols, rows = params.q[m], params.s[m]
        Z = Z.lift(cols, rows).compose(h.lift(cols, rows))
    return Z


@st.composite
def small_processes(draw):
    """Processes for every stage of `small_params`; each h-word is a
    random permutation of the balanced multiset its stage requires."""
    return process_chain(draw, draw(small_params()))


@st.composite
def small_params(draw):
    """Parameters of two stages with q[2] <= 512, or half the time of
    three stages.

    Three stages stay small only with few strips, as s[n+1] <= s[n]**k[n]:
    s[0] = 1 keeps one strip throughout (every h is then the identity)
    and is drawn with at most 2^14 stage-3 atoms; the one stack with two
    strips, k = l = s = 2 at every stage, has 2^15.
    """
    if draw(st.booleans()):
        if draw(st.booleans()):
            params = derive_params([2, 2, 2], [2, 2, 2], [2, 2, 2, 2])
        else:
            k = [draw(st.integers(1, 2)) for _ in range(3)]
            l = [draw(st.integers(2, 4)) for _ in range(3)]
            params = derive_params(k, l, [1, 1, 1, 1])
            assume(params.q[3] <= 1 << 14)
    else:
        s0 = draw(st.integers(1, 3))
        k0 = s0 * draw(st.integers(1, 2))
        s1 = s0 * draw(st.integers(1, 2))
        k1 = s1 * draw(st.integers(1, 2))
        s2 = s1 * draw(st.integers(1, 2))
        l0, l1 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        try:
            params = derive_params([k0, k1], [l0, l1], [s0, s1, s2])
        except ConstraintError:
            assume(False)
        assume(params.q[2] <= 512)
    return params


def process_chain(draw, params):
    """The processes of every stage of `params`, each h-word a random
    permutation of the balanced multiset its stage requires."""
    procs = [initial_process(params)]
    for n in range(params.stages):
        h = h_from_words(params, n, balanced_h_words(draw, params, n))
        procs.append(compose_stage(procs[-1], h))
    return procs


def balanced_h_words(draw, params, n):
    """s[n+1] stage-(n+1) h-words, each a random permutation of the
    balanced multiset: every symbol below s[n] k[n]/s[n] times."""
    k, lo, hi = params.k[n], params.s[n], params.s[n + 1]
    letters = [i for i in range(lo) for _ in range(k // lo)]
    return [draw(st.permutations(letters)) for _ in range(hi)]


@st.composite
def small_sequences(draw):
    """(sigma_size, params, prewords) of a construction sequence of one
    or two stages, every level materialized (words of at most 1728
    letters).  Half the alphabets are small, half have 120 to 300
    letters, on both sides of the int8 limit.  The prewords of a stage
    are distinct tuples, so none is collapsed."""
    stages = draw(st.integers(1, 2))
    k = [draw(st.integers(1, 3)) for _ in range(stages)]
    l = [draw(st.integers(2, 4)) for _ in range(stages)]
    params = derive_params(k, l, [1] * (stages + 1))
    sigma = draw(st.one_of(st.integers(1, 4), st.integers(120, 300)))
    prewords, size = [], sigma
    for n in range(stages):
        letter = st.integers(0, size - 1)
        tuples = draw(st.lists(st.tuples(*[letter] * k[n]), min_size=1,
                               max_size=4, unique=True))
        prewords.append(tuples)
        size = len(tuples)
    return sigma, params, prewords
