"""Syndrome decoding of radical-power codes by Groebner remainders.

The syndrome of a received word is the remainder of its polynomial on
division by the degree-l product generators.  It vanishes exactly on
codewords, and it only depends on the error: adding a codeword does not
change it.  ``syndrome`` returns it as a ``Word``, by the XOR transforms
of ``rmcode.remainder_bits`` on ``Word.value`` and no division; the tests
pin it to the remainder of ``division.remainder`` for every m <= 7.

Writing the error as a sum of square-free monomials X_I (the error
locations), the decoder exploits a weight dichotomy.  A location I is
bit b of ``Word.value`` under the one subset map of ``rmcode``
(``subset_bit``, ``bit_subset``, ``subset_bits``), so |I| is b's popcount:

* if every location has |I| < l, the syndrome simply equals the error
  polynomial and has weight at most t;
* if some location has |I| >= l, the syndrome weight exceeds t.

In the second case the paper's algorithm, ``decode_search``, searches
for the set S of high-degree locations: it tries candidate sets in a
fixed deterministic order and accepts the first S whose shifted
syndrome drops to weight at most t - |S|; the leftover monomials are
the low-degree locations.  It accepts exactly when a codeword lies
within distance t, so it is bounded-distance decoding at radius t, but
it may try every set of up to t of the candidates, so it refuses the
(m, l) where those number more than ``SEARCH_LIMIT``.

``decode`` returns the same result in time polynomial in n, and
``decode_search`` stays as the reference the tests compare it with.  It
computes no syndrome: for every l, ``_nearest`` walks down the radical
filtration one variable at a time.  With y1 = X1 - 1,
M^l(A_m) = M^l(A_{m-1}) + y1 M^(l-1)(A_{m-1}), and a + y1 b = (a + b) + X1 b.
So on ``Word.value`` a codeword's half with X1's bit clear is u = a + b,
in M^(l-1)(A_{m-1}), and its other half is u + v with v = a in
M^l(A_{m-1}): the (u | u + v) construction (MacWilliams and Sloane,
ch. 13 §3; Dumer, IEEE Trans. IT 50(5), 2004).  The XOR of the received
halves is v plus an error no heavier than the word's, and M^l(A_{m-1})
has the same distance 2^l, so v is decoded first at the same radius t.
The two halves less v are then two copies of u whose errors weigh at
most t = 2^(l-1) - 1 together, so one of them weighs at most
2^(l-2) - 1, the radius of M^(l-1)(A_{m-1}); the first copy whose
decoding lies within t of the whole word is taken.  A codeword within t
is unique, so the answer is exact, and a word beyond t of every codeword
fails.  Beside t = 0 the recursion has three kinds of leaf.  At
l = 2, t = 1, M^2 in k variables is the extended Hamming code, and its
dual M^(k-1) is spanned by the all-ones word and, per variable, the half
of the bits b that contain it.  So a codeword has even weight on the
word and on each half, and a word of odd weight lies at distance 1 from
the codeword that differs in the bit whose variables are its odd halves.
Folding the word onto itself one variable at a time gives those parities
in about 2n bit operations: the upper half's is that variable's, and the
halves' XOR keeps the rest.  That dual, RM(1, k), and RM(0, k) = M^k
take one step, Reed's majority vote (Reed 1954; MacWilliams and Sloane,
ch. 13 §6): a codeword's bits at b and b ^ 2^j differ on all 2^(k-1)
such pairs or on none, and an error bit spoils one pair, so within
t = 2^(k-2) - 1 each variable's majority is right; all ones is added if
that brings the word within t.  RM(2, 5) and RM(3, 5) read the error off
a table indexed by the syndrome, the paper's remainder in the y basis
(its coefficients of degree < l): that of the halves' XOR in
RM(r - 1, 4) beside that of the upper half in RM(r, 4).  Errors of
weight at most t have distinct syndromes, as 2t < 2^l, so the tables are
exact; the first decode to reach a leaf builds them.  RM(3, 6) does its
split in one frame off the same tables: the 16-bit quarters give the
k = 5 syndromes of the halves' XOR and of each half, and the copy hi + v
has hi's, as v is in RM(2, 5), inside RM(3, 5).

Both decoders only find the error bits, or None, and one rule reads the
result off them.  No error, or one heavier than t, is a failure; a zero
error leaves the word clean.  Otherwise the codeword is the word plus
the error, and by the dichotomy the status is ``corrected_omega`` when
some location has |I| >= l, with those locations as the chosen set S,
and ``corrected_low`` when none has.  So status and locations agree
between the decoders by construction; only the error search differs.  A
``DecodeResult`` holds the error as bits, and builds its ``error``
polynomial and its chosen locations only when they are first read.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from math import comb, log, log1p

from .polyring import Poly, Record
from .rmcode import (
    CodeParams,
    Word,
    _half_masks,
    _low_degree_mask,
    bit_subset,
    codeword_values,
    poly_to_word,  # unused here; kept bound because bench/tracer.py wraps it by name
    remainder_bits,
    set_bits,
    subset_bit,
    subset_bits,
    word_to_poly,
)

CLEAN = "clean"
CORRECTED_LOW = "corrected_low"
CORRECTED_OMEGA = "corrected_omega"
FAILURE = "failure"

SEARCH_LIMIT = 10**7  # most candidate sets decode_search may have to try
_LEAF_TABLES = []  # filled once by _leaf_tables
_NO_ERROR = 0xFFFFFFFF  # an error table's entry where no error within t has the syndrome


def _check_length(v: Word, params: CodeParams) -> None:
    if v.n != params.n:
        raise ValueError(f"word length {v.n} does not match code length {params.n}")


def syndrome(v: Word, params: CodeParams) -> Word:
    """Remainder of the received word's polynomial modulo the basis, as a word."""
    _check_length(v, params)
    return Word(v.n, remainder_bits(v.value, params))


def hat_set(location, params: CodeParams) -> frozenset:
    """Support of the remainder of X_I, as a set of subsets of {1..m}.

    For |I| < l the monomial is already irreducible, so the hat set is
    {I}; for |I| = l it is the set of proper subsets of I.
    """
    rem = remainder_bits(1 << subset_bit(params.m, location), params)
    return frozenset(bit_subset(params.m, b) for b in set_bits(rem))


class DecodeResult(Record):
    _fields = ("status", "codeword", "error_bits")  # not params: no comparison or repr reads the code

    def __init__(self, status: str, codeword: Word | None, error_bits: int | None, params: CodeParams):
        self._set("status", status)
        self._set("codeword", codeword)
        self._set("error_bits", error_bits)  # the error's coefficient bits; None on failure
        self._set("params", params)

    @cached_property
    def error(self) -> Poly | None:
        """The error polynomial, or None on failure; built on the first read."""
        if self.error_bits is None:
            return None
        return word_to_poly(Word(self.codeword.n, self.error_bits))

    @cached_property
    def chosen_locations(self) -> tuple | None:
        """The accepted set S on the omega path, else None; built on the first read.

        In ``rmcode.subset_bits``' order, which ``decode_search`` tries
        locations in: by size descending, then descending bit within one size.
        """
        if self.status != CORRECTED_OMEGA:
            return None
        high = self.error_bits & ~_low_degree_mask(self.params.m, self.params.l)
        bits = sorted(set_bits(high), key=int.bit_count, reverse=True)  # stable: highest first within a size
        return tuple([bit_subset(self.params.m, b) for b in bits])


def decode(v: Word, params: CodeParams) -> DecodeResult:
    """Correct up to t errors in the received word, in time polynomial in n.

    Returns exactly what ``decode_search`` returns.  For every l the
    word less its codeword within t, found by ``_nearest``, is the
    error; a word with no codeword within t fails.
    """
    _check_length(v, params)
    codeword = _nearest(v.value, params.m, params.nu)
    return _result(v, None if codeword is None else v.value ^ codeword, params)


def _result(v: Word, error: int | None, params: CodeParams) -> DecodeResult:
    """The one exit of both decoders: v less ``error``, by the module's rule."""
    if error == 0:
        return DecodeResult(CLEAN, v, 0, params)
    if error is None or error.bit_count() > params.t:
        return DecodeResult(FAILURE, None, None, params)
    status = CORRECTED_OMEGA if error & ~_low_degree_mask(params.m, params.l) else CORRECTED_LOW
    return DecodeResult(status, Word(v.n, v.value ^ error), error, params)


def _nearest(y: int, k: int, r: int) -> int | None:
    """The codeword of RM(r, k) within t = (2^(k-r) - 1) // 2 of the 2^k-bit y, or None.

    RM(r, k) is M^(k-r) in k variables, and this is the (u | u + v)
    recursion of the module docstring, with its three kinds of leaf and its
    RM(3, 6) split in one frame (hi ^ v has hi's syndrome).  It is
    bounded-distance decoding: a word farther than t from every codeword
    gives None, even where a nearest codeword exists.
    """
    if k == 5 and 1 < r < 4:  # RM(2, 5) and RM(3, 5)
        tables = _LEAF_TABLES or _leaf_tables()
        error = tables[r - 1][_leaf_syndrome(y, r, tables[0])]
        return None if error == _NO_ERROR else y ^ error
    if r >= k - 1:  # t = 0: every word, or every even-weight one, is a codeword
        return y if r == k or not y.bit_count() & 1 else None
    t = ((1 << (k - r)) - 1) // 2
    half = 1 << (k - 1)
    weight = y.bit_count()
    if weight <= t:
        return 0
    if r <= 1:  # first order: Reed's vote per variable (none at r = 0), then the constant
        u = 0
        for step, mask in _half_masks(k) if r else ():
            if (((y >> step) ^ y) & mask).bit_count() > half >> 1:
                u ^= mask
        if (y ^ u).bit_count() > t:
            u ^= (1 << 2 * half) - 1
        return u if (y ^ u).bit_count() <= t else None
    if r == k - 2:  # t = 1: the extended Hamming code, read off its half-parities
        w, flip, size = y, 0, half
        while size:  # one variable per pass; the first pass's parity ends at bit k - 1
            top = w >> size
            flip = flip << 1 | top.bit_count() & 1
            w = (w & ((1 << size) - 1)) ^ top
            size >>= 1
        if weight & 1:
            return y ^ 1 << flip
        return None if flip else y
    if k == 6 and r == 3:  # the split below in one frame, off the k = 5 tables: e_lo ^ e_hi is v's error
        low, table2, table3 = _LEAF_TABLES or _leaf_tables()
        c0, c1, c2, c3 = y & 0xFFFF, y >> 16 & 0xFFFF, y >> 32 & 0xFFFF, y >> 48
        e_v = table2[low[c0 ^ c1 ^ c2 ^ c3] << 5 | low[c1 ^ c3] >> 6]
        for e_lo in (table3[low[c0 ^ c1] >> 6 << 1 | low[c1] >> 10],  # lo's error, then hi ^ v's plus e_v
                     e_v ^ table3[low[c2 ^ c3] >> 6 << 1 | low[c3] >> 10]):
            if e_lo.bit_count() + (e_lo ^ e_v).bit_count() <= t:
                return y ^ ((e_lo ^ e_v) << half | e_lo)
        return None
    lo, hi = y & ((1 << half) - 1), y >> half
    v = _nearest(lo ^ hi, k - 1, r - 1)
    if v is None:
        return None
    for copy in (lo, hi ^ v):
        u = _nearest(copy, k - 1, r)
        if u is not None and (lo ^ u).bit_count() + (hi ^ v ^ u).bit_count() <= t:
            return u | (u ^ v) << half
    return None


def _leaf_syndrome(y: int, r: int, low) -> int:
    """The syndrome of the 32-bit y in RM(r, 5), r = 2 or 3, a leaf of ``_nearest``, off ``_leaf_tables``' ``low``."""
    lo, hi = y & 0xFFFF, y >> 16  # lo ^ hi's syndrome in RM(r - 1, 4), then hi's in RM(r, 4)
    if r == 2:
        return low[lo ^ hi] << 5 | low[hi] >> 6
    return low[lo ^ hi] >> 6 << 1 | low[hi] >> 10


def _leaf_tables() -> list:
    """``low``, then the error tables of RM(2, 5) and RM(3, 5), as ``array``s.

    Entry w of ``low`` is the 16-bit w's coefficients of degree < 3 in the y basis, degree 0
    highest, in ``subset_bits`` order; its top 11 - 6 (r - 1) bits are w's syndrome in RM(r, 4).
    An error table holds, at each syndrome, its error of weight <= t, or _NO_ERROR.
    """
    from array import array  # here, so that import rmgb does not load it (~0.6 ms)
    low, order = array("H", [0]), subset_bits(4, (0, 1, 2))
    for j in range(16):  # low is linear, and bit j adds j's submasks: double low by it, as one int XOR
        column = array("H", [sum(1 << 10 - i for i, b in enumerate(order) if b & j == b)]) * len(low)
        low.frombytes((int.from_bytes(low, "big") ^ int.from_bytes(column, "big")).to_bytes(len(column) * 2, "big"))
    tables = [low]
    for r in (2, 3):
        params = CodeParams(5, 5 - r)
        table = array("I", [_NO_ERROR]) * (1 << params.n - params.dim)
        for error in subset_bits(params.n, range(params.t + 1)):  # the radius-t ball
            table[_leaf_syndrome(error, r, low)] = error
        tables.append(table)
    _LEAF_TABLES[:] = tables
    return _LEAF_TABLES


def decode_search(v: Word, params: CodeParams) -> DecodeResult:
    """Correct up to t errors in the received word.

    A syndrome of weight at most t is itself the error polynomial (all
    locations below degree l).  A heavier syndrome triggers the search
    over candidate sets S of locations with |I| >= l, increasing |S|
    from 1 to t; the first S whose shifted syndrome has weight at most
    t - |S| is accepted, and the shifted syndrome contributes the
    remaining low-degree locations.  Every emitted codeword is re-checked
    to have zero syndrome.  If no candidate set qualifies, the error is
    None; ``_result`` builds the result either way.

    Past ``SEARCH_LIMIT`` sets of 1 to t of the dim candidates, which
    depends on (m, l) alone, every word raises ValueError, clean ones too.
    """
    count = 0
    for size in range(1, params.t + 1):
        count += comb(params.dim, size)
        if count > SEARCH_LIMIT:
            raise ValueError(f"decode_search is limited to {SEARCH_LIMIT} candidate sets, "
                             f"got more at m={params.m}, l={params.l}")
    rem = syndrome(v, params).value
    t = params.t
    if rem.bit_count() <= t:
        return _result(v, rem, params)
    # (bit, remainder bits) of each X_I with |I| >= l, in descending X_I order; built per call
    candidates = [(1 << b, remainder_bits(1 << b, params))
                  for b in subset_bits(params.m, range(params.m, params.l - 1, -1))]
    for size in range(1, t + 1):
        for chosen in itertools.combinations(candidates, size):
            shifted = rem
            for _, loc_rem in chosen:
                shifted ^= loc_rem
            if shifted.bit_count() > t - size:
                continue
            error = shifted
            for bit, _ in chosen:
                error ^= bit
            if not syndrome(Word(v.n, v.value ^ error), params).value:
                return _result(v, error, params)
    return _result(v, None, params)


class MLResult(Record):
    __slots__ = _fields = ("codeword", "distance", "is_tie")

    def __init__(self, codeword: Word, distance: int, is_tie: bool):
        self._set("codeword", codeword)
        self._set("distance", distance)
        self._set("is_tie", is_tie)


def ml_decode_bruteforce(v: Word, params: CodeParams) -> MLResult:
    """Nearest codeword by scanning the full code (m <= 4 only).

    Returns the first codeword at minimum Hamming distance in the
    enumeration order, flagging whether another codeword ties it.
    """
    _check_length(v, params)
    values = codeword_values(params)
    dists = [(c ^ v.value).bit_count() for c in values]
    best = min(dists)
    return MLResult(Word(v.n, values[dists.index(best)]), best, dists.count(best) > 1)


def random_error(params: CodeParams, mode: str, seed, *, weight=None, flip_prob=None) -> Word:
    """Random error word, reproducible from the seed.

    ``mode="fixed_weight"`` flips exactly ``weight`` positions chosen
    uniformly; ``mode="bsc"`` flips each position independently with
    probability ``flip_prob``.  Both modes draw the bits b of
    ``Word.value`` to flip (word position n - b) directly; bsc skips
    from flip to flip by geometric gaps, one draw per flip plus one
    (Devroye 1986, ch. X.2).
    ``seed`` may be an int or an existing random.Random (useful for
    drawing several errors from one stream).
    """
    _check_error_mode(params, mode, weight, flip_prob)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = params.n
    value = 0
    if mode == "fixed_weight":
        for pos in rng.sample(range(n), weight):
            value |= 1 << pos
    elif flip_prob == 1.0:  # bsc from here on; log1p(-1) is out of log's domain
        value = (1 << n) - 1
    elif flip_prob > 0.0:
        log_q, pos = log1p(-flip_prob), 0
        # P(gap >= k) = (1 - p)^k; compared as a float, as a tiny p makes it inf
        while (gap := log(1.0 - rng.random()) / log_q) < n - pos:
            pos += int(gap)
            value |= 1 << pos
            pos += 1
    return Word(n, value)


def _check_error_mode(params: CodeParams, mode: str, weight, flip_prob) -> None:
    """Raise ValueError unless ``random_error`` can draw in this mode with these arguments."""
    if mode == "fixed_weight" and not (type(weight) is int and 0 <= weight <= params.n):
        raise ValueError(f"fixed_weight mode needs a weight in 0..{params.n}")
    if mode == "bsc" and not (type(flip_prob) in (int, float) and 0.0 <= flip_prob <= 1.0):
        raise ValueError("bsc mode needs a flip probability in [0, 1]")
    if mode not in ("fixed_weight", "bsc"):
        raise ValueError(f"unknown error mode {mode!r}, expected fixed_weight or bsc")
