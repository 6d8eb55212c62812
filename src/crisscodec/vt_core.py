"""Differential Varshamov-Tenengolts (VT) sequence codes.

A length-n sequence x over the alphabet {0, ..., q-1} is mapped to its
differential form y = diff(x) with y_i = x_i - x_{i+1} (mod q) for i < n
and y_n = x_n.  The code DVT_a(n; q) collects the sequences whose
differential VT syndrome sum(i * y_i) is congruent to a modulo q*n.
Every such code corrects one symbol deletion or one symbol insertion,
and when the codeword has no two equal adjacent symbols the deletion
position itself can be pinned down exactly.

Sequences are plain lists of ints; the alphabet size q travels in the
parameter objects.  Positions in the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, repeat
from numbers import Integral
from operator import mod, mul, ne, sub
from typing import NamedTuple, Sequence

from .errors import AmbiguousCodewordError, NoCandidateError

_PLAIN_INT = frozenset({int})


@dataclass(frozen=True)
class DvtParams:
    """Parameters (n, q, a) of the code DVT_a(n; q)."""

    n: int
    q: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sequence length must be >= 1, got n={self.n}")
        if self.q < 2:
            raise ValueError(f"alphabet size must be >= 2, got q={self.q}")
        if not 0 <= self.a < self.q * self.n:
            raise ValueError(
                f"syndrome residue must lie in [0, q*n) = [0, {self.q * self.n}), got a={self.a}"
            )

    @property
    def modulus(self) -> int:
        return self.q * self.n


class DeletionDecode(NamedTuple):
    """Result of a deletion decode: the codeword and a deletion position.

    `position` is the smallest 1-based index whose deletion from
    `codeword` yields the received word (several indices work when the
    deletion hit a run of equal symbols).
    """

    codeword: list[int]
    position: int


def check_symbols(x: Sequence[int], q: int, name: str = "sequence") -> Sequence[int]:
    """Return x as plain ints, raising ValueError unless every symbol lies in {0, ..., q-1}.

    A sequence of plain ints is returned as it is.  Other integer types
    (numpy integers, say) are coerced to int in a new list; bool is
    rejected.  The error names the first bad entry.
    """
    if set(map(type, x)) <= _PLAIN_INT and min(x, default=0) >= 0 and max(x, default=0) < q:
        return x
    symbols = []
    for i, s in enumerate(x):
        if not isinstance(s, Integral) or isinstance(s, bool) or not 0 <= s < q:
            raise ValueError(f"{name}[{i}] = {s!r} is outside the alphabet [0, {q})")
        symbols.append(int(s))
    return symbols


def diff(x: Sequence[int], q: int) -> list[int]:
    """Differential transform: y_i = x_i - x_{i+1} (mod q), y_n = x_n."""
    if not len(x):
        raise ValueError("cannot transform an empty sequence")
    y = list(map(mod, map(sub, x, islice(x, 1, None)), repeat(q)))
    y.append(x[-1])
    return y


def diff_inverse(y: Sequence[int], q: int) -> list[int]:
    """Inverse of diff: x_i = sum(y_i..y_n) (mod q), x_n = y_n."""
    if not len(y):
        raise ValueError("cannot transform an empty sequence")
    x = [0] * len(y)
    x[-1] = y[-1]
    running = y[-1]
    for i in range(len(y) - 2, -1, -1):
        running = (running + y[i]) % q
        x[i] = running
    return x


def syndrome(y: Sequence[int]) -> int:
    """VT syndrome sum(i * y_i) over 1-based positions, as an exact int."""
    return sum(map(mul, y, count(1)))


def adjacent_distinct(x: Sequence[int]) -> bool:
    """True when no two adjacent symbols of x are equal."""
    return all(map(ne, x, islice(x, 1, None)))


def dvt_differential(x: Sequence[int], params: DvtParams) -> list[int] | None:
    """diff(x) if x is a codeword of DVT_a(n; q), else None; raises on wrong length or alphabet."""
    if len(x) != params.n:
        raise ValueError(f"expected a sequence of length {params.n}, got {len(x)}")
    y = diff(check_symbols(x, params.q), params.q)
    return y if syndrome(y) % params.modulus == params.a else None


def is_dvt_member(x: Sequence[int], params: DvtParams) -> bool:
    """Membership test for DVT_a(n; q); raises on wrong length or alphabet."""
    return dvt_differential(x, params) is not None


def deletion_index(codeword: Sequence[int], received: Sequence[int]) -> int | None:
    """Smallest 1-based i with delete(codeword, i) == received, else None."""
    n = len(codeword)
    if len(received) != n - 1:
        return None
    suffix = 0
    while suffix < n - 1 and codeword[n - 1 - suffix] == received[n - 2 - suffix]:
        suffix += 1
    pos = n - suffix
    if all(codeword[i] == received[i] for i in range(pos - 1)):
        return pos
    return None


def _deletion_candidates(received: Sequence[int], params: DvtParams) -> list[list[int]]:
    """All distinct codewords of DVT_a(n; q) one deletion away from `received`.

    Inserting a symbol at position p of the received word w replaces the
    differential y(w) with a word that agrees with it outside positions
    p-1, p and whose syndrome exceeds syndrome(y(w)) by
    tail(p) + beta + (p-1)*q*delta, where tail(p) is the suffix sum of
    y(w) from position p, beta is the new differential at position p and
    delta is 0 or 1 according to whether the split of the old
    differential y(w)_{p-1} = alpha + beta - q*delta wraps around q.
    For each (p, delta) the membership congruence then fixes beta modulo
    q*n, so at most one inserted symbol works: no per-symbol search is
    needed, and the candidate set equals the one found by trying every
    (position, symbol) pair.
    """
    n, q, a = params.n, params.q, params.a
    if len(received) != n - 1:
        raise ValueError(f"expected a received word of length {n - 1}, got {len(received)}")
    modulus = params.modulus
    w = list(check_symbols(received, q, "received"))
    z = diff(w, q) if w else []
    syn = syndrome(z)

    # tail[p] = sum of z_p..z_{n-1} over 1-based positions; tail[n] = 0.
    tail = [0] * (n + 1)
    for p in range(n - 1, 0, -1):
        tail[p] = tail[p + 1] + z[p - 1]

    candidates: dict[tuple[int, ...], list[int]] = {}

    # Insertion in front: the new leading differential alpha is forced.
    alpha = (a - syn - tail[1]) % modulus
    if alpha < q:
        first = (w[0] + alpha) % q if w else alpha
        cand = [first] + w
        candidates[tuple(cand)] = cand

    # Insertion at position p >= 2 splits the old differential z_{p-1}.
    for p in range(2, n + 1):
        old = z[p - 2]
        for delta in (0, 1):
            beta = (a - syn - tail[p] - (p - 1) * q * delta) % modulus
            if beta >= q:
                continue
            alpha = old + q * delta - beta
            if not 0 <= alpha < q:
                continue
            symbol = beta if p == n else (w[p - 1] + beta) % q
            cand = w[: p - 1] + [symbol] + w[p - 1 :]
            candidates[tuple(cand)] = cand

    return list(candidates.values())


def _decode_single_deletion(
    received: Sequence[int], params: DvtParams, rll: bool
) -> DeletionDecode:
    """The one candidate codeword, restricted to 1-RLL codewords when rll is set."""
    if params.n < 2:
        raise ValueError("deletion decoding needs a codeword length of at least 2")
    candidates = _deletion_candidates(received, params)
    if rll:
        candidates = [c for c in candidates if adjacent_distinct(c)]
    if not candidates:
        kind = "run-length-limited codeword" if rll else "codeword"
        raise NoCandidateError(
            f"no {kind} of DVT_{params.a}({params.n}; {params.q}) "
            f"yields the received word by one deletion"
        )
    if len(candidates) > 1:
        raise AmbiguousCodewordError(
            f"{len(candidates)} distinct codewords match the received word"
        )
    codeword = candidates[0]
    pos = deletion_index(codeword, received)
    assert pos is not None
    return DeletionDecode(codeword, pos)


def decode_deletion(received: Sequence[int], params: DvtParams) -> DeletionDecode:
    """Recover the codeword of DVT_a(n; q) that lost one symbol.

    Returns the codeword together with the smallest deletion position
    consistent with the received word.
    """
    return _decode_single_deletion(received, params, rll=False)


def decode_rll_deletion(received: Sequence[int], params: DvtParams) -> DeletionDecode:
    """Deletion decode restricted to codewords with distinct adjacent symbols.

    For such codewords the deletion position is unique, so `position`
    in the result is exact.
    """
    return _decode_single_deletion(received, params, rll=True)


def decode_insertion(received: Sequence[int], params: DvtParams) -> list[int]:
    """Recover the codeword of DVT_a(n; q) that gained one symbol."""
    if len(received) != params.n + 1:
        raise ValueError(
            f"expected a received word of length {params.n + 1}, got {len(received)}"
        )
    received = check_symbols(received, params.q, "received")
    seen: dict[tuple[int, ...], list[int]] = {}
    for d in range(len(received)):
        cand = list(received[:d]) + list(received[d + 1 :])
        key = tuple(cand)
        if key in seen:
            continue
        if is_dvt_member(cand, params):
            seen[key] = cand
    if not seen:
        raise NoCandidateError(
            f"no codeword of DVT_{params.a}({params.n}; {params.q}) "
            f"yields the received word by one insertion"
        )
    if len(seen) > 1:
        raise AmbiguousCodewordError(
            f"{len(seen)} distinct codewords match the received word"
        )
    return next(iter(seen.values()))
