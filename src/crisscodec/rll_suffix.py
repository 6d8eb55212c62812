"""Run-length-limited differential VT codes with a fixed suffix.

RLL_DVT_0(n, m; b) is the set of sequences x of length n + m over
{0, ..., q-1}, where m = len(b) is the suffix length, such that

  * x belongs to DVT_0(n + m; q),
  * no two adjacent symbols of x are equal (the 1-RLL property), and
  * the last m symbols equal the fixed suffix b (itself 1-RLL).

Because codewords are 1-RLL, the vt_core decoder locates a single
deletion exactly, which is what makes these sequences usable as the
protected first row and last column of the two-dimensional code.

The encoder is systematic on the differential side: data symbols are
written into the free positions, three high positions carry a greedy
expansion of the syndrome residue, and the power positions (q-1)^i
absorb the remainder in base q-1.  All differentials it writes are
nonzero, which yields the 1-RLL property after inverting the transform.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from . import vt_core
from .errors import DecodingError, EncodingError


class RllSuffixParams(NamedTuple("RllSuffixParams", [("n", int), ("q", int), ("b", tuple)])):
    """Parameters of RLL_DVT_0(n, m; b) over the alphabet {0, ..., q-1}, a tuple (n, q, b).

    n is the free body length and b the fixed non-empty suffix, whose
    length is m.  n and q are stored as plain ints, b as a tuple of them.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, q: int, b: Sequence[int]) -> RllSuffixParams:
        n, q = vt_core.plain_int("n", n), vt_core.plain_int("q", q)
        if q < 3:
            raise ValueError(f"alphabet size must be >= 3, got q={q}")
        if n < 1:
            raise ValueError(f"body length must be >= 1, got n={n}")
        b = tuple(vt_core.check_symbols(b, q, "suffix"))
        if not b:
            raise ValueError("suffix must be non-empty")
        if 0 in vt_core.diff(b, q)[:-1]:
            raise ValueError(f"suffix {b} has equal adjacent symbols")
        return super().__new__(cls, n, q, b)

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def length(self) -> int:
        return self.n + self.m


class _IndexSets(NamedTuple):
    """The reserved body positions of the encoder, and how many others carry data.

    power positions: (q-1)^0, (q-1)^1, ... up to n (absorb a base-(q-1) remainder),
    high positions: the three largest non-power indices j1 < j2 < j3
    (absorb the bulk of the syndrome residue greedily), and
    k: the count of the others, all below j1, which carry one data symbol each.
    """

    power: tuple[int, ...]
    high: tuple[int, int, int]
    k: int


def int_log_floor(base: int, value: int) -> int:
    """Largest t >= 0 with base**t <= value, exact for ints of any size.

    The float logarithm estimates t, and exact int powers correct the
    estimate by the few steps that rounding can take it off, so the cost
    is that of one power of base near value rather than t products.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    t = int(math.log(value, base))
    power = base**t
    while power > value:
        t, power = t - 1, power // base
    while power * base <= value:
        t, power = t + 1, power * base
    return t


def to_digits(value: int, base: int, width: int) -> list[int]:
    """Little-endian base expansion of value into exactly `width` digits."""
    if value < 0 or value >= base**width:
        raise ValueError(f"{value} does not fit in {width} base-{base} digits")
    digits = []
    for _ in range(width):
        value, d = divmod(value, base)
        digits.append(d)
    return digits


def from_digits(digits: Sequence[int], base: int) -> int:
    """Inverse of to_digits: sum(digits[i] * base**i)."""
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


@lru_cache
def _index_sets(n: int, q: int) -> _IndexSets:
    """The power and high positions of body positions 1..n, and the data count k = n - t - 4.

    Data needs n >= t + 5, where t = floor(log_{q-1} n), which is checked
    first.  The top t + 4 positions hold at most the t + 1 powers, so the
    three largest non-powers, the high ones, are found among them.
    """
    t = int_log_floor(q - 1, n)
    if n < t + 5:
        raise ValueError(f"body length n={n} leaves no data positions (need n >= t + 5 = {t + 5})")
    power = tuple((q - 1) ** i for i in range(t + 1))
    high = [j for j in range(n - t - 3, n + 1) if j not in power][-3:]
    return _IndexSets(power, tuple(high), n - t - 4)


def _reserved(residue: int, sets: _IndexSets, q: int) -> list[int] | None:
    """The values, less one, that encode writes at the reserved positions
    sets.high + sets.power for this syndrome residue: greedy ones at the
    high positions, then the base-(q-1) digits of the remainder, or None
    if it is not below the capacity of the power positions.
    """
    values = []
    for j in sets.high:
        e = min(q - 2, residue // j)
        values.append(e)
        residue -= e * j
    if residue >= (q - 1) ** len(sets.power):
        return None
    return values + to_digits(residue, q - 1, len(sets.power))


@lru_cache
def data_length(params: RllSuffixParams) -> int | None:
    """The count k of data symbols that encode takes, or None if a residue can overflow.

    Whether _reserved overflows depends only on the syndrome residue, so
    this certifies every residue in [0, q(n+m)), hence every suffix and
    message.  The greedy high values only ever step up as the residue
    grows; between steps the remainder grows by 1 per residue, and just
    before a step at high position j it is j - 1 <= n - 1, which always
    fits, because the capacity of the power positions exceeds n.  So the
    remainder can overflow only if it overflows at the largest residue,
    and one _reserved call at that residue decides.  Raises ValueError
    when the body has no data positions.
    """
    sets = _index_sets(params.n, params.q)
    return None if _reserved(params.q * params.length - 1, sets, params.q) is None else sets.k


def encode(data: Sequence[int], params: RllSuffixParams) -> list[int]:
    """Encode data symbols into a codeword of RLL_DVT_0(n, m; b).

    Data symbols live in {0, ..., q-2}, one per data position.  Where
    data_length(params) is None the residue left for the power positions
    may overflow them, in which case EncodingError is raised; the output
    is always validated against is_member before being returned, and
    EncodingError is raised if it fails.
    """
    n, m, q, b = params.n, params.m, params.q, params.b
    sets = _index_sets(n, q)
    data = vt_core.check_symbols(data, q - 1, "data")
    if len(data) != sets.k:
        raise ValueError(f"expected {sets.k} data symbols, got {len(data)}")

    y = [f + 1 for f in data]  # the differential word, 0-based
    reserved = sets.high + sets.power
    for j in sorted(reserved):
        y.insert(j - 1, 1)  # the least value each reserved position takes
    y += vt_core.diff(b, q)
    residue = -vt_core.syndrome(y) % (q * (n + m))

    values = _reserved(residue, sets, q)
    if values is None:
        raise EncodingError(
            f"residue {residue} exceeds the capacity of the reserved positions "
            f"at n={n}, m={m}, q={q}"
        )
    for j, e in zip(reserved, values):
        y[j - 1] = e + 1

    x = vt_core.diff_inverse(y, q)
    if not is_member(x, params):
        raise EncodingError("encoder produced a word outside its own code")
    return x


def _sized(x: Sequence[int], length: int, q: int, name: str) -> Sequence[int]:
    """x, or check_symbols' list of it if x has no length; ValueError unless it has this length."""
    try:
        size = len(x)
    except TypeError:
        x = vt_core.check_symbols(x, q, name)
        size = len(x)
    if size != length:
        raise ValueError(f"expected a {name} of length {length}, got {size}")
    return x


def _differential(x: Sequence[int], params: RllSuffixParams) -> list[int] | None:
    """diff(x) if x is a codeword of RLL_DVT_0(n, m; b), else None: the one membership reader.

    Raises ValueError unless x lies in the alphabet and has the code
    length.  The syndrome and the 1-RLL test both read y, the latter by
    the run-length rule of vt_core, so x is not read again.
    """
    q = params.q
    x = _sized(vt_core.check_symbols(x, q), params.length, q, "sequence")
    y = vt_core.diff(x, q)
    if vt_core.syndrome(y) % (q * len(x)) or 0 in y[:-1] or tuple(x[params.n :]) != params.b:
        return None
    return y


def is_member(x: Sequence[int], params: RllSuffixParams) -> bool:
    """Membership test: DVT syndrome, 1-RLL property and fixed suffix."""
    return _differential(x, params) is not None


def decode(received: Sequence[int], params: RllSuffixParams) -> vt_core.DeletionDecode:
    """Recover codeword and exact deletion position from one deletion."""
    received = _sized(received, params.length - 1, params.q, "received word")
    result = vt_core.decode_rll_deletion(received, params.q)
    if tuple(result.codeword[params.n :]) != params.b:
        raise DecodingError(
            f"the only consistent codeword does not end with the suffix {params.b}"
        )
    return result


def recover_data(x: Sequence[int], params: RllSuffixParams) -> list[int]:
    """Read the data symbols back out of a codeword (inverse of encode).

    A codeword is 1-RLL, so its differential is nonzero at every body
    position, each data position included: it holds a data symbol plus one.
    ValueError refuses a non-codeword and EncodingError a codeword that
    encode never writes: the reserved positions' residue sum(j * (y_j - 1))
    must be below q * length and their values what _reserved gives for it.
    """
    y = _differential(x, params)
    if y is None:
        raise ValueError("input is not a codeword of this code")
    sets = _index_sets(params.n, params.q)
    reserved = sets.high + sets.power
    values = [y[j - 1] - 1 for j in reserved]
    residue = sum(map(mul, reserved, values))
    if residue >= params.q * params.length or _reserved(residue, sets, params.q) != values:
        raise EncodingError("input is a codeword that the encoder never writes")
    power = sets.power  # every data position is below j1 and not a power
    return [y[j - 1] - 1 for j in range(1, sets.high[0]) if j not in power]
