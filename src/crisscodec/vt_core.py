"""Differential Varshamov-Tenengolts (VT) sequence codes with residue 0.

A length-n sequence x over the alphabet {0, ..., q-1} is mapped to its
differential form y = diff(x) with y_i = x_i - x_{i+1} (mod q) for i < n
and y_n = x_n.  The code DVT_0(n; q) collects the sequences whose
differential VT syndrome sum(i * y_i) is divisible by q*n; it corrects
one symbol deletion.  The codec decodes only run-length-limited words,
with no two equal adjacent symbols, and for those `decode_rll_deletion`
pins down the deletion position exactly.  The one membership test is
`rll_suffix.is_member`, which applies the syndrome test with these kernels.

The package has one run-length rule: x has two equal adjacent symbols
exactly where diff(x) is 0 before its last entry, so every run-length
test reads the differential as `0 in y[:-1]` or its local form.

Sequences are plain lists of ints; the kernels take the alphabet size q
and read the length from the word.  Positions in the public API are
1-based.
"""

from __future__ import annotations

import reprlib
from itertools import accumulate, count, islice, repeat
from numbers import Integral
from operator import countOf, mod, mul, sub
from typing import NamedTuple, Sequence

from .errors import DecodingError


class DeletionDecode(NamedTuple):
    """Result of a deletion decode: the codeword and the deletion position.

    `position` is the 1-based index whose deletion from `codeword` yields
    the received word.  The codeword has no two equal adjacent symbols,
    so exactly one index does.
    """

    codeword: list[int]
    position: int


def plain_int(name: str, value: int, minimum: int | None = None) -> int:
    """value as a plain int; raises ValueError unless it is an integer other
    than bool, and at least minimum if one is given.

    This is the package's one integer rule; check_symbols applies the same
    rule to each symbol.
    """
    if type(value) is not int and not isinstance(value, bool) and isinstance(value, Integral):
        value = int(value)
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def check_symbols(x: Sequence[int], q: int, name: str = "sequence") -> Sequence[int]:
    """Return x as plain ints, raising ValueError unless every symbol lies in {0, ..., q-1}.

    A sequence of plain ints is returned as it is.  Other integer types
    (numpy integers, say) are coerced to int in a new list; bool is
    rejected.  A one-shot iterable, an iterator or a generator, is read
    once into a list, and anything that is not a sized iterable is a
    ValueError.  The error names the first bad entry and shows its
    value shortened by reprlib, so an oversized value cannot flood the
    message.
    """
    try:
        if iter(x) is x:
            x = list(x)
        if countOf(map(type, x), int) == len(x):
            values = set(x)
            if not values or (min(values) >= 0 and max(values) < q):
                return x
    except TypeError:
        raise ValueError(f"{name} = {reprlib.repr(x)} is not a sequence of symbols") from None
    symbols = []
    for i, s in enumerate(x):
        if not isinstance(s, Integral) or isinstance(s, bool) or not 0 <= s < q:
            raise ValueError(
                f"{name}[{i}] = {reprlib.repr(s)} is outside the alphabet [0, {q})"
            )
        symbols.append(int(s))
    return symbols


def _not_integers(word: object) -> ValueError:
    return ValueError(f"{reprlib.repr(word)} is not a sequence of integers")


def diff(x: Sequence[int], q: int) -> list[int]:
    """Differential transform: y_i = x_i - x_{i+1} (mod q), y_n = x_n."""
    try:
        if not len(x):
            raise ValueError("cannot transform an empty sequence")
        y = list(map(mod, map(sub, x, islice(x, 1, None)), repeat(q)))
        y.append(x[-1])
    except (TypeError, LookupError):
        raise _not_integers(x) from None
    return y


def diff_inverse(y: Sequence[int], q: int) -> list[int]:
    """Inverse of diff: x_i = sum(y_i..y_n) (mod q), x_n = y_n."""
    try:
        if not len(y):
            raise ValueError("cannot transform an empty sequence")
        x = [0] * len(y)
        x[-1] = y[-1]
        running = y[-1]
        for i in range(len(y) - 2, -1, -1):
            running = (running + y[i]) % q
            x[i] = running
    except (TypeError, LookupError):
        raise _not_integers(y) from None
    return x


def syndrome(y: Sequence[int]) -> int:
    """VT syndrome sum(i * y_i) over 1-based positions, as an exact int."""
    try:
        return sum(map(mul, y, count(1)))
    except TypeError:
        raise _not_integers(y) from None


def decode_rll_deletion(received: Sequence[int], q: int) -> DeletionDecode:
    """Recover the codeword of DVT_0(n; q), n = len(received) + 1, with
    distinct adjacent symbols that lost one symbol.

    Inserting a symbol at position p of the received word w replaces
    its differential z = diff(w) at position p-1 by two entries: alpha,
    the step from the symbol before the insertion to the inserted one,
    and beta, the step from the inserted symbol to the one after it (at
    p = n, the inserted symbol itself).  They split the old entry as
    z_{p-1} = alpha + beta - q*delta, with delta 0 or 1 according to
    whether the split wraps around q; at p = 1 nothing is split and only
    beta is new.  The syndrome grows by tail(p) + beta + (p-1)*q*delta,
    where tail(p) is the sum of z from position p, so for each (p, delta)
    the membership congruence fixes beta modulo q*n and at most one
    inserted symbol works: no per-symbol search is needed.

    The word is run-length limited where its differential is nonzero
    before the last entry.  The insertion removes only the entry
    z_{p-1} it splits and adds alpha and beta, so the codeword has no
    equal neighbours if and only if z has no zero before its last entry
    other than z_{p-1}, alpha != 0 and beta != 0; at p = n beta is a
    symbol and may be 0, and at p = 1 there is no alpha.  Two zeros are
    more than one insertion removes, so the word is refused at once,
    and one zero at 0-based index k leaves only p = k + 2 to try.

    DVT_0 corrects one deletion, so its single-deletion balls are
    disjoint and at most one codeword yields the received word; a
    run-length-limited codeword loses a symbol at exactly one position,
    because deleting either of two positions gives the same word only
    when every symbol between them is equal.  So the first (p, delta)
    that passes is the only one, and p is the exact deletion position.
    """
    w = check_symbols(received, q, "received")
    n = len(w) + 1
    modulus = q * n
    z = diff(w, q)
    syn = syndrome(z)
    # tail[p - 1] = z_p + ... + z_{n-1} over 1-based positions; tail[n - 1] = 0.
    tail = [*accumulate(reversed(z), initial=0)][::-1]
    zeros = z[:-1].count(0)
    if zeros < 2:
        for p in [z.index(0) + 2] if zeros else range(1, n + 1):
            for delta in (0, 1):
                beta = (-syn - tail[p - 1] - (p - 1) * q * delta) % modulus
                alpha = z[p - 2] + q * delta - beta  # read only when p > 1
                if beta < q and (beta or p == n) and (p == 1 or 0 < alpha < q):
                    symbol = beta if p == n else (w[p - 1] + beta) % q
                    return DeletionDecode([*w[: p - 1], symbol, *w[p - 1 :]], p)

    raise DecodingError(
        f"no run-length-limited codeword of DVT_0({n}; {q}) "
        f"yields the received word by one deletion"
    )
