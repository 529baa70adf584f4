"""Exact parameter arithmetic for the tower construction.

Everything here is integer or Fraction arithmetic; no floats.  The
coefficient lists k, l drive the recursion

    p[0] = 0, q[0] = 1
    p[n+1] = p[n] * q[n] * k[n] * l[n] + 1
    q[n+1] = k[n] * l[n] * q[n] ** 2

and the rotation numbers alpha[n] = p[n] / q[n] converge with
alpha[n+1] - alpha[n] = 1 / q[n+1].
"""

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import ConstraintError, InputError, ResourceError

# entries per pass of the chunked routes (dynamical order, tower orbits,
# lifted relabelings, tower names, stability shifts, smooth scans), so
# that no temporary has one entry per column, tower level or sample
CHUNK = 1 << 14

#: atoms a grid process may hold (`procsim.compose_stage`), unless the
#: caller gives a cap of its own
DEFAULT_ATOM_CAP = 1 << 24


def chunks(lo, hi, size=None):
    """The ranges [a, b) of at most `size` entries, CHUNK (read at the
    call) unless given, that tile [lo, hi)."""
    step = CHUNK if size is None else size
    for a in range(lo, hi, step):
        yield a, min(a + step, hi)


class Params(NamedTuple):
    """Coefficient lists plus the derived convergents.

    k and l have one entry per stage transition, s one entry per stage
    (so len(s) == len(k) + 1).  p[n]/q[n] is the stage-n rotation number
    in lowest terms.
    """

    k: tuple
    l: tuple
    s: tuple
    p: tuple = ()
    q: tuple = ()

    @property
    def stages(self):
        """Largest stage index n for which q[n] is defined."""
        return len(self.k)

    def alpha(self, n):
        return Fraction(self.p[n], self.q[n])


def derive_params(k, l, s):
    """Run the convergent recursion and validate the coefficient lists.

    Raises InputError for malformed lists and ConstraintError for
    divisibility violations, naming the first bad stage.
    """
    k = tuple(k)
    l = tuple(l)
    s = tuple(s)
    if len(l) != len(k):
        raise InputError("k and l must have the same length, got %d and %d"
                         % (len(k), len(l)))
    if len(s) != len(k) + 1:
        raise InputError("s must have one more entry than k, got %d and %d"
                         % (len(s), len(k)))
    for name, seq, lo in (("k", k, 1), ("l", l, 2), ("s", s, 1)):
        for n, v in enumerate(seq):
            if not isinstance(v, int) or v < lo:
                raise InputError("%s[%d] = %r must be an integer >= %d"
                                 % (name, n, v, lo))
    for n in range(len(k)):
        if k[n] % s[n] != 0:
            raise ConstraintError("stage %d: s[%d]=%d does not divide k[%d]=%d"
                                  % (n, n, s[n], n, k[n]))
        if s[n + 1] % s[n] != 0:
            raise ConstraintError("stage %d: s[%d]=%d does not divide s[%d]=%d"
                                  % (n, n, s[n], n + 1, s[n + 1]))
        if s[n + 1] > s[n] ** k[n]:
            raise ConstraintError("stage %d: s[%d]=%d exceeds s[%d]**k[%d]=%d"
                                  % (n, n + 1, s[n + 1], n, n, s[n] ** k[n]))

    p = [0]
    q = [1]
    for n in range(len(k)):
        p.append(p[n] * q[n] * k[n] * l[n] + 1)
        q.append(k[n] * l[n] * q[n] ** 2)
    for n in range(1, len(p)):
        assert gcd(p[n], q[n]) == 1
    return Params(k=k, l=l, s=s, p=tuple(p), q=tuple(q))


class DynOrder:
    """Dynamical ordering of the q[n] intervals at one stage.

    j(i) is the number of rotation steps after which the orbit of the
    base interval lands on the i-th interval in geometric order:
    j(i) = p[n]^{-1} * i mod q[n].  Point queries are exact at any q;
    `of` evaluates an int64 array of indices at once, and `table` holds
    all q entries, built on first read.  The array forms compute
    pinv * i in int64, so a stage of 2**31 entries or more is refused.

    Premise: gcd(p, q) = 1, so p^{-1} exists and the order is mirrored,
    q - j_i = j_{q-i} for 0 < i < q.  Proof: j_{q-i} = -j_i mod q, which
    is q - j_i unless j_i = 0, and j_i != 0 for every 0 < i < q exactly
    when p^{-1} is a unit mod q.
    """

    def __init__(self, p, q):
        self.q = q
        # q[0] = 1 forces p=0; its "inverse" is 0 as well
        self.pinv = pow(p, -1, q) if q > 1 else 0

    def __len__(self):
        return self.q

    def __getitem__(self, i):
        if not 0 <= i < self.q:
            raise InputError("interval index %d out of range [0, %d)" % (i, self.q))
        return self.pinv * int(i) % self.q

    def require_int64(self):
        """Refuse a stage whose j_i the array forms cannot compute."""
        # pinv * i < q**2 stays below 2**63 while q < 2**31
        if self.q >= 2 ** 31:
            raise ResourceError("dynamical-order table needs %d entries, "
                                "int64 limit is %d" % (self.q, 2 ** 31 - 1))

    def of(self, i):
        """j_i for an int64 array i of interval indices."""
        self.require_int64()
        return self.pinv * i % self.q

    @cached_property
    def table(self):
        self.require_int64()        # before the q-entry arange
        return self.of(np.arange(self.q, dtype=np.int64))


def dyn_order(params, n):
    """DynOrder for stage n of `params`."""
    if not 0 <= n <= params.stages:
        raise InputError("stage %d out of range [0, %d]" % (n, params.stages))
    return DynOrder(params.p[n], params.q[n])


def d_index(params, n, x):
    """Dynamical position of the point x in [0, 1) at stage n.

    Returns j such that x lies in the interval the base reaches after j
    rotation steps, i.e. the interval [j*p mod q, j*p mod q + 1) / q.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise InputError("x = %s must lie in [0, 1)" % x)
    return dyn_order(params, n)[int(x * params.q[n])]


class FrameRuns(NamedTuple):
    """Rows of letters as runs on column breakpoints that all rows share:
    row r holds letters[r, i] on [starts[i], starts[i + 1]) or to cols."""
    cols: int
    starts: np.ndarray      # sorted int64, starts[0] == 0
    letters: np.ndarray     # rows x pieces

    def at(self, idx):
        """Letters at the int64 flat indices idx = row * cols + column."""
        piece = np.searchsorted(self.starts, idx % self.cols, "right") - 1
        return self.letters[idx // self.cols, piece]

    def row(self, r):
        """Row r, one letter per column."""
        lengths = np.diff(self.starts, append=self.cols)
        return np.repeat(self.letters[r], lengths)


def spacer_columns(params, m):
    """Which stage-m columns acquire a b or e label at stage m: a one-row
    FrameRuns over the q[m] columns, of B, E and 0 for unlabelled.

    Column c is newly labelled when its word position t = j_c is a
    top-level spacer of the stage-m circular product.  With Q = q[m-1],
    c = p[m] t mod q[m] puts pass a of the word, t = a k l Q + b, on the
    columns A k l Q + b with A = a + b p[m-1] mod Q.  So in each block of
    l Q columns, (A k + i) l Q + r for r < l Q, pass a has j_a = j_A - r
    mod Q at stage m-1, and the spacer tests r < Q - j_a and r >= l Q -
    j_a hold on the first j_A + 1 and the last Q - j_A - 1 columns: k Q
    blocks, with no column-sized work.  A stage past the int64 limit of
    `DynOrder.of` is refused.
    """
    from .words import B, E     # here, so that no other route loads words

    if m < 1:
        raise InputError("spacer labels start at stage 1")
    k, l, Q = params.k[m - 1], params.l[m - 1], params.q[m - 1]
    dyn_order(params, m).require_int64()
    j = np.repeat(dyn_order(params, m - 1).table, k)    # j_A of block (A, i)
    block = np.arange(k * Q, dtype=np.int64) * (l * Q)
    starts = np.stack([block, block + j + 1, block + (l - 1) * Q + j + 1],
                      axis=1).reshape(-1)
    kinds = np.tile(np.array([B, 0, E], dtype=np.int8), k * Q)
    keep = np.diff(starts, append=params.q[m]) > 0  # E is empty at j_A = Q-1
    return FrameRuns(params.q[m], starts[keep], kinds[keep].reshape(1, -1))


def read_text(path):
    """The text of a UTF-8 file; any other bytes are an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError("%s: not UTF-8 text (byte %d)" % (path, exc.start))


def content_lines(text):
    """(line number, line) for each line of `text` that holds more than
    a #-comment, with the comment and surrounding blanks cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_key_values(text, keys, required=(), source="<text>"):
    """The `key = value` lines of `text` as a dict of value strings.

    Each key must be one of `keys` and appear at most once; every key
    in `required` must appear.  Errors name `source` and the line.
    """
    fields = {}
    for lineno, line in content_lines(text):
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise InputError("%s:%d: expected `key = value`, got %r"
                             % (source, lineno, line))
        if key not in keys:
            raise InputError("%s:%d: unknown key %r" % (source, lineno, key))
        if key in fields:
            raise InputError("%s:%d: duplicate key %r" % (source, lineno, key))
        fields[key] = value.strip()
    for key in required:
        if key not in fields:
            raise InputError("%s: missing key %r" % (source, key))
    return fields


def parse_params_text(text, source="<text>"):
    """Parse the `key = values` parameter format.

    Lines are `k = 2 2`, `l = 4 4`, `s = 2 2 4`; blank lines and
    #-comments are ignored.  Returns a Params via derive_params.
    """
    names = ("k", "l", "s")
    fields = parse_key_values(text, names, required=names, source=source)
    lists = []
    for name in names:
        try:
            lists.append([int(tok) for tok in fields[name].split()])
        except ValueError:
            raise InputError("%s: %s must be integers, got %r"
                             % (source, name, fields[name]))
    return derive_params(*lists)


def load_params(path):
    return parse_params_text(read_text(path), path)
