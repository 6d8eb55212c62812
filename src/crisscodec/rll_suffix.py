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
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import vt_core
from .errors import DecodingError, EncodingError


@dataclass(frozen=True)
class RllSuffixParams:
    """Parameters of RLL_DVT_0(n, m; b) over the alphabet {0, ..., q-1}.

    n is the free body length and b the fixed non-empty suffix, whose
    length is m.
    """

    n: int
    q: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 3:
            raise ValueError(f"alphabet size must be >= 3, got q={self.q}")
        if self.n < 1:
            raise ValueError(f"body length must be >= 1, got n={self.n}")
        if not len(self.b):
            raise ValueError("suffix must be non-empty")
        object.__setattr__(self, "b", tuple(vt_core.check_symbols(self.b, self.q, "suffix")))
        if not vt_core.adjacent_distinct(self.b):
            raise ValueError(f"suffix {self.b} has equal adjacent symbols")

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def length(self) -> int:
        return self.n + self.m


class IndexSets(NamedTuple):
    """Partition of the body positions 1..n used by the encoder.

    power positions: (q-1)^0, ..., (q-1)^t (absorb a base-(q-1) residue),
    high positions: the three largest non-power indices j1 < j2 < j3
    (absorb the bulk of the syndrome residue greedily), and
    data positions: everything else, one data symbol each.
    """

    t: int
    power: tuple[int, ...]
    high: tuple[int, int, int]
    data: tuple[int, ...]


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


def data_length(n: int, q: int) -> int:
    """Number of data symbols carried by a body of length n: n - t - 4."""
    return n - int_log_floor(q - 1, n) - 4


@lru_cache
def index_sets(n: int, q: int) -> IndexSets:
    """Split body positions 1..n into power, high and data positions.

    Needs enough room for the three high positions and at least one
    data position, i.e. n >= t + 5 where t = floor(log_{q-1} n).
    """
    t = int_log_floor(q - 1, n)
    power = tuple((q - 1) ** i for i in range(t + 1))
    power_set = set(power)
    high = []
    j = n
    while j >= 1 and len(high) < 3:
        if j not in power_set:
            high.append(j)
        j -= 1
    if len(high) < 3:
        raise ValueError(
            f"body length n={n} is too small to reserve three high positions"
        )
    high = tuple(sorted(high))
    reserved = power_set | set(high)
    data = tuple(i for i in range(1, n + 1) if i not in reserved)
    if not data:
        raise ValueError(
            f"body length n={n} leaves no data positions (need n >= t + 5 = {t + 5})"
        )
    return IndexSets(t, power, high, data)


def _greedy(residue: int, high: Sequence[int], q: int) -> tuple[tuple[int, ...], int]:
    """The e-values the greedy pass writes at the high positions, and the remainder it leaves."""
    greedy = []
    for j in high:
        e = min(q - 2, residue // j)
        greedy.append(e)
        residue -= e * j
    return tuple(greedy), residue


@lru_cache
def encodable(n: int, m: int, q: int) -> bool:
    """True iff encode cannot overflow the power positions at body n, suffix length m, alphabet q.

    The greedy remainder depends only on the syndrome residue, so this
    certifies every residue in [0, q(n+m)), hence every suffix and
    message.  The greedy e-values only ever step up as the residue
    grows; between steps the remainder grows by 1 per residue, and just
    before a step at high position j it is j - 1 <= n - 1, which always
    fits, because the capacity (q-1)^(t+1) exceeds n.  So the remainder
    can overflow only if it overflows at the largest residue, and one
    greedy pass decides.  Raises ValueError when the index sets do not
    exist.
    """
    sets = index_sets(n, q)
    remainder = _greedy(q * (n + m) - 1, sets.high, q)[1]
    return remainder < (q - 1) ** (sets.t + 1)


def encode(data: Sequence[int], params: RllSuffixParams) -> list[int]:
    """Encode data symbols into a codeword of RLL_DVT_0(n, m; b).

    Data symbols live in {0, ..., q-2}; there are data_length(n, q) of
    them.  Where encodable(n, m, q) is False the residue left for the
    power positions may overflow them, in which case EncodingError is
    raised; the output is always validated against is_member before
    being returned, and EncodingError is raised if it fails.
    """
    n, m, q, b = params.n, params.m, params.q, params.b
    sets = index_sets(n, q)
    expected = len(sets.data)
    if len(data) != expected:
        raise ValueError(f"expected {expected} data symbols, got {len(data)}")
    data = vt_core.check_symbols(data, q - 1, "data")

    total = n + m
    modulus = q * total
    y = [0] * (total + 1)  # 1-based differential word

    for pos, f in zip(sets.data, data):
        y[pos] = f + 1
    for j in sets.power + sets.high:
        y[j] = 1  # the least value each reserved position takes
    y[n + 1 :] = vt_core.diff(b, q)
    residue = -vt_core.syndrome(y[1:]) % modulus

    greedy, remainder = _greedy(residue, sets.high, q)
    for j, e in zip(sets.high, greedy):
        y[j] = e + 1

    limit = (q - 1) ** (sets.t + 1) - 1
    if remainder > limit:
        raise EncodingError(
            f"residue {remainder} exceeds the power-position capacity {limit} "
            f"at n={n}, m={m}, q={q}"
        )
    digits = to_digits(remainder, q - 1, sets.t + 1)
    for i, h in enumerate(digits):
        y[(q - 1) ** i] = h + 1

    x = vt_core.diff_inverse(y[1:], q)
    if not is_member(x, params):
        raise EncodingError("encoder produced a word outside its own code")
    return x


def _differential(x: Sequence[int], params: RllSuffixParams) -> list[int] | None:
    """diff(x) if x is a codeword of RLL_DVT_0(n, m; b), else None.

    Raises ValueError unless x has the code length and lies in the alphabet.
    """
    if len(x) != params.length:
        raise ValueError(f"expected a sequence of length {params.length}, got {len(x)}")
    y = vt_core.dvt_differential(x, params.q)
    if y is None or not vt_core.adjacent_distinct(x) or tuple(x[params.n :]) != params.b:
        return None
    return y


def is_member(x: Sequence[int], params: RllSuffixParams) -> bool:
    """Membership test: DVT syndrome, 1-RLL property and fixed suffix."""
    return _differential(x, params) is not None


def decode(received: Sequence[int], params: RllSuffixParams) -> vt_core.DeletionDecode:
    """Recover codeword and exact deletion position from one deletion."""
    if len(received) != params.length - 1:
        raise ValueError(
            f"expected a received word of length {params.length - 1}, got {len(received)}"
        )
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
    """
    y = _differential(x, params)
    if y is None:
        raise ValueError("input is not a codeword of this code")
    return [y[pos - 1] - 1 for pos in index_sets(params.n, params.q).data]
