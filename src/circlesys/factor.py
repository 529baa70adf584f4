"""The rotation factor of a circular system.

Collapsing every inner symbol to a single letter sends each stage word
to the one-word stage of the single-letter system; the spacer skeleton
is all that survives.  A symbolic point is pinned down by its offsets
r[n] inside the stage-n words, and the rescaled offsets

    rho[n] = (p[n] * r[n] mod q[n]) / q[n]

increase to the angle the factor map assigns to the point.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import CoherenceError, InputError
from .ratarith import d_index, dyn_order
from .words import B, E, Interior, LazyCircularWord


def collapse_pi(word):
    """Send every inner symbol to 0, keeping the spacer letters."""
    return tuple(c if c in (B, E) else 0 for c in word)


@lru_cache(maxsize=64)
def skeleton(params, n):
    """Lazy stage-n word of the single-letter system (all inner = 0)."""
    if not 1 <= n <= params.stages:
        raise InputError("stage %d out of range [1, %d]" % (n, params.stages))
    w = (0,)
    for m in range(n):
        w = LazyCircularWord([w] * params.k[m], params.k[m], params.l[m],
                             params.q[m], dyn_order(params, m))
    return w


class _Point(NamedTuple):
    params: object
    offsets: tuple


class SymbolicPoint(_Point):
    """Coherent stage offsets of a point: offsets[n] < q[n], and the
    stage-(n+1) position sits inside a retained copy whose inner
    position is offsets[n].  offsets[0] is always 0.  Building one
    checks this and raises CoherenceError, naming the first incoherent
    stage, if it does not hold."""

    __slots__ = ()

    def __new__(cls, params, offsets):
        if not offsets or offsets[0] != 0:
            raise CoherenceError("offsets[0] must be 0")
        if len(offsets) - 1 > params.stages:
            raise CoherenceError("more offsets than stages")
        for n in range(1, len(offsets)):
            if not 0 <= offsets[n] < params.q[n]:
                raise CoherenceError("offsets[%d] = %d outside [0, q[%d]=%d)"
                                     % (n, offsets[n], n, params.q[n]), n)
            pos = skeleton(params, n).decode(offsets[n])
            if not isinstance(pos, Interior):
                raise CoherenceError("stage-%d offset %d is a spacer position"
                                     % (n, offsets[n]), n)
            if pos.inner != offsets[n - 1]:
                raise CoherenceError(
                    "stage-%d offset %d sits over inner position %d, "
                    "expected offsets[%d] = %d"
                    % (n, offsets[n], pos.inner, n - 1, offsets[n - 1]), n)
        return super().__new__(cls, params, offsets)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)       # so that _replace checks the offsets too

    @property
    def depth(self):
        return len(self.offsets) - 1


class BoundaryCrossing(NamedTuple):
    """Shifting left the stage-n window: the next letter falls outside
    a retained copy, so the offsets above stage `stage` - 1 break."""
    stage: int


class RhoTrace(NamedTuple):
    rhos: list              # Fraction per stage, monotone nondecreasing
    gaps: list              # rhos[n+1] - rhos[n], each < 1/q[n]


def rho_trace(point):
    """Rescaled offsets of a symbolic point, with the monotone gaps.

    Also checks the finite version of the position formula: the deepest
    rho recovers every shallower offset through d_index.
    """
    params = point.params
    rhos = []
    for n in range(point.depth + 1):
        r = point.offsets[n]
        rhos.append(Fraction(params.p[n] * r % params.q[n], params.q[n]))
    gaps = []
    for n in range(len(rhos) - 1):
        gap = rhos[n + 1] - rhos[n]
        if not 0 <= gap < Fraction(1, params.q[n]):
            raise CoherenceError("rho gap %s at stage %d not in [0, 1/%d)"
                                 % (gap, n, params.q[n]))
        gaps.append(gap)
    top = rhos[-1]
    for n in range(point.depth + 1):
        if d_index(params, n, top) != point.offsets[n]:
            raise CoherenceError("d_index at stage %d does not recover the "
                                 "offset %d" % (n, point.offsets[n]))
    return RhoTrace(rhos, gaps)


def shift_point(point):
    """Move the origin one letter to the right.

    Returns the shifted SymbolicPoint when every stage offset can just
    advance by one, otherwise the BoundaryCrossing naming the lowest
    stage whose window is exhausted or whose next letter is a spacer:
    the first stage at which SymbolicPoint finds the advanced offsets
    incoherent.
    """
    try:
        return SymbolicPoint(point.params,
                             (0,) + tuple(r + 1 for r in point.offsets[1:]))
    except CoherenceError as exc:
        return BoundaryCrossing(exc.stage)


def coherent_from_top(params, depth, m):
    """The symbolic point with deepest offset m, or None if m does not
    sit over retained copies all the way down.  offsets[0] comes out 0,
    as the children of a stage-1 word have length q[0] = 1."""
    offsets = [0] * (depth + 1)
    offsets[depth] = m
    for n in range(depth, 0, -1):
        pos = skeleton(params, n).decode(offsets[n])
        if not isinstance(pos, Interior):
            return None
        offsets[n - 1] = pos.inner
    return SymbolicPoint(params, tuple(offsets))


def enumerate_coherent(params, depth):
    """All coherent points of the given depth, by deepest offset."""
    for m in range(params.q[depth]):
        pt = coherent_from_top(params, depth, m)
        if pt is not None:
            yield pt
