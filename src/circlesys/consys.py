"""Construction sequences built by iterating the circular product.

Level 0 is the base alphabet (one single-letter word per symbol).
Level n+1 consists of the circular products of the chosen k_n-tuples
("prewords") of level-n words.  All occurrence counting goes through
the preword multiplicities, never through text scans of the big words,
so the exact Fractions stay cheap at any stage.
"""

import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceError
from .ratarith import dyn_order
from .words import LazyCircularWord, circ, label_dtype, parse

#: materialize level words up to this many letters each
DEFAULT_WORD_CAP = 1 << 20


class ConstructionSequence(NamedTuple):
    params: object
    sigma_size: int
    prewords: list          # prewords[n] builds level n+1 from level n
    # levels[n] = the level-n words: when materialized, one read-only
    # 2-D int array with a word per row, of one dtype per sequence (level
    # 0 is the alphabet as a column); else a list of LazyCircularWords
    levels: list

    @property
    def depth(self):
        return len(self.levels) - 1

    def is_materialized(self, n):
        return not isinstance(self.levels[n][0], LazyCircularWord)


def build_sequence(sigma_size, params, prewords):
    """Iterate the circular product over the given preword tuples.

    prewords[n] is a list of k[n]-tuples of indices into level n.
    Duplicate tuples are collapsed with a warning (they would name the
    same word twice).

    A materialized level is one read-only numpy array with a word per
    row, of the narrowest signed dtype that holds every letter (B, E
    and sigma_size - 1): int8 up to 128 letters, int32 at the alphabet
    cap.  Level 0 is the alphabet as a column.  A level of words longer
    than DEFAULT_WORD_CAP is a list of LazyCircularWords.
    """
    if sigma_size < 1:
        raise InputError("alphabet must be non-empty")
    if sigma_size > DEFAULT_WORD_CAP:
        raise ResourceError("alphabet of %d letters exceeds the word cap %d"
                            % (sigma_size, DEFAULT_WORD_CAP))
    if len(prewords) > params.stages:
        raise InputError("got %d preword lists but only %d stages of parameters"
                         % (len(prewords), params.stages))
    dtype = label_dtype(sigma_size)
    letters = np.arange(sigma_size, dtype=dtype).reshape(-1, 1)
    letters.flags.writeable = False
    levels = [letters]
    kept_prewords = []
    for n, tuples in enumerate(prewords):
        k, l, q = params.k[n], params.l[n], params.q[n]
        prev = levels[n]
        kept = {}                       # the distinct tuples, in order
        for t, tup in enumerate(tuples):
            tup = tuple(tup)
            if len(tup) != k:
                raise InputError("stage %d preword %d has arity %d, expected %d"
                                 % (n + 1, t, len(tup), k))
            if any(not 0 <= c < len(prev) for c in tup):
                raise InputError("stage %d preword %d indexes outside level %d"
                                 % (n + 1, t, n))
            if tup in kept:
                warnings.warn("stage %d: duplicate preword %r collapsed"
                              % (n + 1, tup))
            kept[tup] = None
        if not kept:
            raise InputError("stage %d has no prewords" % (n + 1,))
        order = dyn_order(params, n)
        if params.q[n + 1] <= DEFAULT_WORD_CAP:
            level = np.empty((len(kept), params.q[n + 1]), dtype=dtype)
            for tup, row in zip(kept, level):
                circ([prev[c] for c in tup], k, l, q, order, out=row)
            level.flags.writeable = False
        else:
            level = [LazyCircularWord([prev[c] for c in tup], k, l, q, order)
                     for tup in kept]
        kept_prewords.append(list(kept))
        levels.append(level)
    return ConstructionSequence(params, sigma_size, kept_prewords, levels)


def check_unique_readability(cs, n):
    """Occurrences of level-n words inside pairwise concatenations.

    For every ordered pair (u, v) of level-n words, any level-n word
    occurring in uv must sit at offset 0 or len(u).  Returns the list of
    violations as (u_index, v_index, offset, found_index); empty means
    the level is uniquely readable.  Each pair is joined with
    np.concatenate, so array and tuple words are read alike.
    """
    level = cs.levels[n]
    if not cs.is_materialized(n):
        raise InputError("level %d is lazy; readability scan needs "
                         "materialized words" % n)
    q = len(level[0])
    bad = []
    for ui, u in enumerate(level):
        for vi, v in enumerate(level):
            for off, wi in parse(np.concatenate([u, v]), level):
                if off not in (0, q):
                    bad.append((ui, vi, off, wi))
    return bad


class UniformityReport:
    """Occurrence statistics of one stage transition n -> n+1.

    stage       n
    densities   observed d(w) = mean of f/(q'/q), exact
    strong      f constant over all pairs
    f_value     the common f when strong, else None
    eps         max over w' of sum_w |f/(q'/q) - d(w)|
    M           M[t, w]: copies of word w in tuple t, read-only; left
                out of == and repr, which compare and show the rest
    """

    def __init__(self, stage, densities, strong, f_value, eps, M):
        self.stage = stage
        self.densities = densities
        self.strong = strong
        self.f_value = f_value
        self.eps = eps
        self.M = M

    def _fields(self):
        return self.stage, self.densities, self.strong, self.f_value, self.eps

    def __eq__(self, other):
        if type(other) is not UniformityReport:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return ("UniformityReport(stage=%r, densities=%r, strong=%r, "
                "f_value=%r, eps=%r)" % self._fields())


def verify_uniformity(cs, n):
    """Occurrence statistics of level-n words inside level n+1.

    Each entry of a preword contributes q[n]*(l[n]-1) occurrences (the
    retained copies across all passes), so f(w, w') is the tuple
    multiplicity M[w', w] scaled by that factor.  Each measure is an
    exact integer numerator over one denominator.
    """
    if not 0 <= n < cs.depth:
        raise InputError("stage %d not built: need 0 <= n < depth %d"
                         % (n, cs.depth))
    k, l, q = cs.params.k[n], cs.params.l[n], cs.params.q[n]
    per_copy = q * (l - 1)
    tuples = np.asarray(cs.prewords[n])
    ntup, nwords = len(tuples), len(cs.levels[n])
    M = np.zeros((ntup, nwords), dtype=np.int64)
    np.add.at(M, (np.arange(ntup)[:, None], tuples), 1)
    M.flags.writeable = False
    colsum = M.sum(0)
    # f/(q'/q) = per_copy*M*q/q', and d(w) its mean over the tuples: one
    # Fraction per distinct column sum, shared by the words that have it
    scale = Fraction(per_copy * q, cs.params.q[n + 1] * ntup)
    sums = colsum.tolist()
    density = {c: scale * c for c in set(sums)}
    densities = [density[c] for c in sums]
    eps = scale * int(np.abs(ntup * M - colsum).sum(1).max())
    strong = bool(M.min() == M.max())
    f_value = int(M[0, 0]) * per_copy if strong else None
    if strong:
        # cross-check the closed forms: f = f0*q*(l-1), and d = (f0/k)(1-1/l)
        # for the one column sum c, as per_copy*q*c*k*l = f0*(l-1)*q'*ntup
        f0 = k // nwords
        assert f_value == f0 * per_copy
        assert all(per_copy * q * c * k * l
                   == f0 * (l - 1) * cs.params.q[n + 1] * ntup
                   for c in density)
    return UniformityReport(n, densities, strong, f_value, eps, M)


class CylinderEstimate(NamedTuple):
    stage: int
    base_level: int
    u_index: int
    proportions: list       # exact Fraction per stage word
    gap: Fraction           # max - min
    bound: Fraction         # 2 * eps
    within_bound: bool


def estimate_cylinder(cs, u, base_level, n, eps=None):
    """Proportion of the word u among level-base subwords of each
    level-(n+1) word, with the pairwise gap checked against 2*eps.

    u is a level-base word or its index.  Its count in each word is
    carried up the levels through the preword multiplicities, out of
    k[base]*...*k[n] level-base subwords (the retained-copy factors
    cancel).  eps defaults to the observed deviation from
    verify_uniformity(cs, n); passing a smaller claimed eps turns the
    check into a real test of that claim (within_bound goes False when
    the claim is violated).
    """
    if not 0 <= base_level <= n < cs.depth:
        raise InputError("need 0 <= base_level <= n < depth, got %d, %d, %d"
                         % (base_level, n, cs.depth))
    base = cs.levels[base_level]
    if isinstance(u, int):
        if not 0 <= u < len(base):
            raise InputError("need 0 <= u < %d level-%d words, got %d"
                             % (len(base), base_level, u))
        ui = u
    else:
        u, hits = np.asarray(u), []
        if cs.is_materialized(base_level) and u.shape == base.shape[1:]:
            hits = np.flatnonzero((base == u).all(1))
        if not len(hits):
            raise InputError("u is not a level-%d word" % base_level)
        ui = int(hits[0])
    total = math.prod(cs.params.k[base_level:n + 1])
    if total >= 1 << 63:
        raise ResourceError("level-%d counts in level %d reach %d subwords, "
                            "past int64" % (base_level, n + 1, total))
    if eps is None:
        eps = verify_uniformity(cs, n).eps
    count = (np.asarray(cs.prewords[base_level]) == ui).sum(1)
    for m in range(base_level + 1, n + 1):
        count = count[np.asarray(cs.prewords[m])].sum(1)
    props = [Fraction(int(c), total) for c in count]
    gap = max(props) - min(props)
    bound = 2 * Fraction(eps)
    return CylinderEstimate(n, base_level, ui, props, gap, bound, gap <= bound)


class SWindowCertificate(NamedTuple):
    max_stage: int          # deepest stage with a covering occurrence
    witnesses: dict         # stage -> (a, b) with window[origin-a:origin+b] a stage word
    failed_stage: int       # first stage with no covering occurrence, or None


def in_S_window(window, cs, origin):
    """Finite-window membership certificate for the orbit set.

    For each materialized stage m >= 1, look for a stage-m word covering
    the origin and record (a, b) = (distance to its left edge, distance
    to its right edge).  The certificate stops at the first stage with
    no covering occurrence (spacer tails have none at stage 1 already).
    """
    window = tuple(window)
    if not 0 <= origin < len(window):
        raise InputError("origin %d outside window of length %d"
                         % (origin, len(window)))
    witnesses = {}
    failed = None
    max_stage = 0
    for m in range(1, cs.depth + 1):
        if not cs.is_materialized(m):
            break
        qm = len(cs.levels[m][0])
        hit = None
        for off, _wi in parse(window, cs.levels[m]):
            if off <= origin < off + qm:
                hit = (origin - off, off + qm - origin)
                break
        if hit is None:
            failed = m
            break
        witnesses[m] = hit
        max_stage = m
    return SWindowCertificate(max_stage, witnesses, failed)
