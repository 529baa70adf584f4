"""Words over an integer alphabet and the circular product operator.

Inner symbols are non-negative ints.  Two reserved letters mark the
spacer runs: B (written `b`) and E (written `e`).  A word is any
sequence of ints: a tuple, or a one-dimensional integer numpy array
(a construction sequence keeps each materialized level as one read-only
2-D array of one narrow dtype, a word per row).  Big stages use
LazyCircularWord, which stores the construction DAG and decodes single
positions on demand.

The circular product of k words of common length q, with multiplicity
l and dynamical ordering j, is

    prod_{i<q} prod_{j<k}  b^(q - j_i)  w_j^(l-1)  e^(j_i)

of total length k * l * q**2.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError, ResourceError

B = -1
E = -2


def label_dtype(s0):
    """Narrowest signed integer dtype holding the letters 0..s0-1, B and
    E: the one holding -s0 (int8 while s0 <= 128).  A fixed-width letter
    table must not wrap, so an alphabet no dtype can hold is refused."""
    dtype = np.min_scalar_type(min(B, E, -s0))
    if dtype.kind != "i":
        raise ResourceError("%d base strips do not fit a 64-bit label" % s0)
    return dtype


@dataclass(frozen=True)
class Boundary:
    """Position inside a spacer run of a circular product."""
    letter: int            # B or E
    pass_index: int        # i < q
    block: int             # j < k
    offset: int            # position within the run


@dataclass(frozen=True)
class Interior:
    """Position inside one of the l-1 retained copies of a child word."""
    pass_index: int
    block: int
    copy: int              # which repetition, < l-1
    inner: int             # position within the child word, < q


def _check_structure(children, k, l, q):
    if k < 1 or l < 2 or q < 1:
        raise InputError("need k >= 1, l >= 2, q >= 1, got k=%d l=%d q=%d"
                         % (k, l, q))
    if len(children) != k:
        raise InputError("expected %d child words, got %d" % (k, len(children)))
    for j, w in enumerate(children):
        if len(w) != q:
            raise InputError("child %d has length %d, expected %d"
                             % (j, len(w), q))


def circ(children, k, l, q, order, out=None):
    """Materialize the circular product into the 1-D array `out`, in its
    dtype, or as a tuple of Python ints when no `out` is given.

    `order` is indexable with order[i] = j_i for i < q (a DynOrder or
    any sequence).  The word is written pass by pass: in pass i every
    block is b^(q-j_i), its child repeated l-1 times, then e^(j_i), so
    one slice write per run fills that run in all k blocks.  The tuple
    is read off an array of the smallest dtype that holds the symbols.
    """
    _check_structure(children, k, l, q)
    as_tuple = out is None
    body = np.asarray(children, dtype=None if as_tuple else out.dtype)
    if as_tuple:
        out = np.empty(k * l * q * q, dtype=np.promote_types(
            np.int8, np.min_scalar_type(body.max())))
    body = np.tile(body.astype(out.dtype, copy=False), l - 1)
    passes = out.reshape(q, k, l * q)
    for i in range(q):
        head = q - order[i]
        passes[i, :, :head] = B
        passes[i, :, head:head + body.shape[1]] = body
        passes[i, :, head + body.shape[1]:] = E
    return tuple(out.tolist()) if as_tuple else out


class LazyCircularWord:
    """Circular product evaluated positionally, without materializing.

    Children may be tuples, integer arrays or further LazyCircularWords;
    only the lengths and the stage orderings are held in memory, so
    stage words far beyond RAM can still be decoded letter by letter.
    A letter is returned as a Python int whatever the children hold.
    """

    def __init__(self, children, k, l, q, order):
        _check_structure(children, k, l, q)
        self.children = list(children)
        self.k = k
        self.l = l
        self.q = q
        self.order = order
        self.length = k * l * q * q

    def __len__(self):
        return self.length

    def decode(self, m):
        """Classify position m as Boundary or Interior (one level deep)."""
        if not 0 <= m < self.length:
            raise InputError("position %d out of range [0, %d)" % (m, self.length))
        q, l, k = self.q, self.l, self.k
        block_len = l * q
        block = m // block_len
        i, j = divmod(block, k)
        r = m - block * block_len
        ji = self.order[i]
        head = q - ji
        if r < head:
            return Boundary(B, i, j, r)
        body = (l - 1) * q
        if r < head + body:
            copy, inner = divmod(r - head, q)
            return Interior(i, j, copy, inner)
        return Boundary(E, i, j, r - head - body)

    def __getitem__(self, m):
        pos = self.decode(m)
        if isinstance(pos, Boundary):
            return pos.letter
        return int(self.children[pos.block][pos.inner])


def decode_position(word, m):
    """Position class of m in a lazy circular word (pass, block, offsets)."""
    if not isinstance(word, LazyCircularWord):
        raise InputError("decode_position needs a LazyCircularWord")
    return word.decode(m)


def _letters_array(letters):
    """A signed integer array as it is; anything else as an int64 copy."""
    letters = np.asarray(letters)
    if letters.dtype.kind == "i":
        return letters
    try:
        return np.array(letters.tolist(), dtype=np.int64)
    except OverflowError:
        raise InputError("letters must be integers that fit in int64")


def parse(x, words):
    """All occurrences of dictionary words in x, as (offset, index) pairs.

    `words` is a 2-D integer array with one word per row (a materialized
    construction level), or a list of words, which is stacked into one;
    every word must have the same length L.  Overlapping occurrences are
    reported, in offset order; a word listed twice is reported under its
    first index.  Letters must be integers that fit in int64.

    The text and the dictionary are each packed once, as bytes of the
    narrowest signed dtype holding every letter; signed integer arrays
    are packed as they are, anything else goes through an int64 copy.
    Each distinct word is found by exact byte search, restarted one byte
    past each match; a match at a byte offset off the letter width does
    not start on a letter and is skipped.  `bytes.find` is linear in
    the text (CPython >= 3.10 uses the Crochemore-Perrin two-way
    algorithm): O(|x|) plus L per match.
    """
    if len(words) == 0:
        raise InputError("empty dictionary")
    try:
        dictionary = np.asarray(words)
    except ValueError:                  # words of different lengths
        dictionary = None
    if dictionary is None or dictionary.ndim != 2 or not dictionary.shape[1]:
        raise InputError("dictionary words must share a positive length")
    text = _letters_array(x)
    dictionary = _letters_array(dictionary)
    length = dictionary.shape[1]
    if len(text) < length:
        return []
    lo = min(int(text.min()), int(dictionary.min()))
    hi = max(int(text.max()), int(dictionary.max()))
    dtype = np.min_scalar_type(min(lo, -1 - hi))
    packed = text.astype(dtype, copy=False).tobytes()
    rows = dictionary.astype(dtype, copy=False).tobytes()
    width = length * dtype.itemsize
    first = {}
    for i in range(len(dictionary)):
        first.setdefault(rows[i * width:(i + 1) * width], i)
    hits = []
    for needle, i in first.items():
        at = packed.find(needle)
        while at >= 0:
            if at % dtype.itemsize == 0:
                hits.append((at // dtype.itemsize, i))
            at = packed.find(needle, at + 1)
    return sorted(hits)


@dataclass(frozen=True)
class BoundaryStats:
    boundary_fraction: Fraction    # exactly 1/l
    near_fraction: Fraction        # positions within q of a spacer


@lru_cache(maxsize=8)
def _spacer_layout(k, l, q, js):
    """Predicted spacer letters of a circular product, shaped (q, 1, l*q)
    to broadcast over its (pass, block, position) view: B or E on the
    spacer runs, 0 elsewhere, and the bool mask of the runs.  Every
    block of pass i shares one row.  Read-only, as the cache shares it.

    Built from (k, l, q) and the order alone, not by `circ`: it is the
    boundary check's independent layout, and one that `circ` built could
    not disagree with the words `circ` wrote."""
    block_len = l * q
    letters = np.zeros((q, block_len), dtype=np.int8)
    for i, ji in enumerate(js):
        letters[i, :q - ji] = B
        letters[i, block_len - ji:] = E
    spacer = letters != 0
    letters.flags.writeable = spacer.flags.writeable = False
    return letters[:, None, :], spacer[:, None, :]


def boundary_stats(word, k=None, l=None, q=None, order=None):
    """Spacer mass of a circular product, exactly, from k, l and q.

    For a LazyCircularWord the structure is taken from the word itself.
    A materialized word (a tuple or an array) needs k, l, q, order
    passed in; its letters are compared with the predicted spacer
    layout in one array compare, and InputError names the first spacer
    run they disagree with (the word is not a circular product with
    this structure).  The layout is computed once per structure and
    shared by every word of a stage.  The masses need no layout: each
    of the k q blocks holds q spacer letters, so the spacer mass is 1/l,
    and the positions within q of a spacer are counted in closed form.
    """
    if isinstance(word, LazyCircularWord):
        k, l, q = word.k, word.l, word.q
    elif None in (k, l, q, order):
        raise InputError("materialized word needs k, l, q, order")
    n = k * l * q * q
    if not isinstance(word, LazyCircularWord):
        if len(word) != n:
            raise InputError("length %d is not k*l*q**2 = %d" % (len(word), n))
        js = tuple(int(order[i]) for i in range(q))
        letters, spacer = _spacer_layout(k, l, q, js)
        bad = np.asarray(word).reshape(q, k, l * q) != letters
        bad &= spacer
        if bad.any():
            block, r = divmod(int(np.argmax(bad)), l * q)
            base, ji = block * l * q, js[block // k]
            lo, hi = ((base, base + q - ji) if r < q - ji
                      else (base + l * q - ji, base + l * q))
            raise InputError("letters in [%d, %d) do not match a spacer run"
                             % (lo, hi))
    # Each block's body of (l - 1) q letters lies between its b run and
    # the next spacer run, so only its middle (l - 3) q letters are more
    # than q from a spacer.  Only a word with q = 1 ends on a body with
    # no spacer after it (its e run has j_{q-1} = -p^{-1} mod q letters),
    # and then its last letter is far too when l >= 3.
    near = n - k * q * q * max(0, l - 3) - (q == 1 and l >= 3)
    return BoundaryStats(Fraction(k * q * q, n), Fraction(near, n))


def word_to_text(word):
    """Space-separated token form; inner symbols decimal, spacers b/e."""
    if isinstance(word, np.ndarray):
        word = word.tolist()
    toks = []
    for c in word:
        if c == B:
            toks.append("b")
        elif c == E:
            toks.append("e")
        elif c >= 0:
            toks.append(str(c))
        else:
            raise InputError("unknown symbol %r" % (c,))
    return " ".join(toks)


def text_to_word(text):
    out = []
    for tok in text.split():
        if tok == "b":
            out.append(B)
        elif tok == "e":
            out.append(E)
        else:
            try:
                v = int(tok)
            except ValueError:
                raise InputError("bad token %r" % tok)
            if v < 0:
                raise InputError("inner symbols are non-negative, got %r" % tok)
            out.append(v)
    return tuple(out)
