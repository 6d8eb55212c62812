"""Golden constants and independent oracles shared across the test suite.

The golden pipeline values (data vector, codeword array, received array,
1-D codeword and its encode intermediates) come from a fully
hand-checked worked example at n=9, q=7.  The encode intermediates are
read off the codeword by encode_intermediates, and the decoder's steps
are observed through the rll_decode_calls spy.  Two colliding array
pairs, SMALL_PAIR_* and BINARY_PAIR_*, show why parity alone cannot
decode.  The oracles re-derive codec
answers by definition-level brute force -- trying every insertion,
every row and column deletion, or enumerating whole alphabets -- on
index loops such as diff_loop, syndrome_loop and adjacent_distinct_loop,
so they share no code with the optimized paths they check.  Counts too
large to enumerate are checked against protected_row_count_dp, a DP
over a plain list of residue counts.  codewords_over finds every
codeword over a received array by parity and first_violation alone,
without the array decoder's locating step.  run_capped runs code in a
child process whose address space is capped, so a runaway allocation
is a MemoryError there rather than a load on the host.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration

from crisscodec import crisscross, rll_suffix


def pytest_configure(config):
    """Give Hypothesis a temporary home for the session.

    Hypothesis caches the constants it finds in local source files under
    its home, ./.hypothesis by default, even with no example database.
    """
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


GOLDEN_N = 9
GOLDEN_Q = 7

# 49 message symbols that encode to GOLDEN_ARRAY.
GOLDEN_DATA = [
    4, 2, 0, 2, 4, 4, 0, 4, 1, 2, 6, 0, 3, 2, 6, 1, 0, 3, 2, 4,
    6, 4, 3, 5, 6, 1, 6, 1, 1, 3, 2, 3, 2, 2, 6, 0, 0, 5, 0, 5,
    5, 3, 0, 6, 2, 3, 3, 0, 5,
]

GOLDEN_ARRAY = [
    [4, 2, 1, 4, 5, 2, 1, 0, 2],
    [5, 0, 2, 4, 4, 0, 4, 1, 1],
    [5, 1, 2, 6, 0, 3, 2, 2, 0],
    [5, 6, 1, 0, 3, 2, 4, 6, 1],
    [2, 4, 3, 5, 6, 1, 6, 1, 0],
    [3, 1, 3, 2, 3, 2, 2, 6, 6],
    [5, 0, 0, 5, 0, 5, 5, 3, 5],
    [3, 0, 6, 2, 3, 3, 0, 5, 6],
    [3, 0, 3, 0, 4, 3, 4, 4, 0],
]

# GOLDEN_ARRAY after deleting row 9 and column 9.
GOLDEN_RECEIVED_9_9 = [
    [4, 2, 1, 4, 5, 2, 1, 0],
    [5, 0, 2, 4, 4, 0, 4, 1],
    [5, 1, 2, 6, 0, 3, 2, 2],
    [5, 6, 1, 0, 3, 2, 4, 6],
    [2, 4, 3, 5, 6, 1, 6, 1],
    [3, 1, 3, 2, 3, 2, 2, 6],
    [5, 0, 0, 5, 0, 5, 5, 3],
    [3, 0, 6, 2, 3, 3, 0, 5],
]

# First row of GOLDEN_ARRAY: the 1-D codeword of the worked example
# (body 7, suffix (0, 2), residue 0) and its encode intermediates.
GOLDEN_CODEWORD_1D = [4, 2, 1, 4, 5, 2, 1, 0, 2]
GOLDEN_INTERMEDIATES_1D = dict(
    residue=31, greedy=(5, 2, 0), remainder=1, remainder_digits=(1, 0)
)

# Reversed last column of GOLDEN_ARRAY (body 6, suffix (0, 1, 2)).
GOLDEN_COLUMN_1D = [0, 6, 5, 6, 0, 1, 0, 1, 2]

# Decode intermediates when row 9 and column 9 of GOLDEN_ARRAY are deleted.
GOLDEN_WALKTHROUGH = dict(
    column_word=[6, 5, 6, 0, 1, 0, 1, 2],
    row_index=9,
    row_values=[3, 0, 3, 0, 4, 3, 4, 4, 0],
)

# |code(4, 3)|, frozen after the first full 3^16 enumeration.
FROZEN_CODE_SIZE_4_3 = 0

# Two pairs of distinct arrays that give the same received array after one
# row and one column deletion each, so sum-based reconstruction cannot tell
# them apart; they are why the codec protects positions and not only sums.
# The small pair over {0..3} has equal row and column sums, and deleting
# (row, column) (1, 1) of the first and (2, 2) of the second leaves [[2]]
# both times.  The 16x16 binary pair differs in 4 entries; deleting the
# penultimate row of the first and the last row of the second, each with
# the first column, collide.  The codec refuses q = 2, so the binary pair
# shows the collision and nothing about the codec itself.
SMALL_PAIR_Q = 4
SMALL_PAIR_FIRST = ((1, 1), (1, 2))
SMALL_PAIR_SECOND = ((2, 0), (0, 3))
SMALL_PAIR_DELETIONS = ((1, 1), (2, 2))

_Z = (0,) * 16
_R1 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0)
_R2 = (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1)
_R6 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1)
_R8 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1)
_R10 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
_R11 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
_R12 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
_R13 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
_R14 = (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0)
_R15 = (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
_SHARED = (_R1, _R2, _R1, _R2, _Z, _R6, _Z, _R8, _Z, _R10, _R11, _R12, _R13, _R14)

BINARY_PAIR_Q = 2
BINARY_PAIR_FIRST = _SHARED + (_R15, _Z)
BINARY_PAIR_SECOND = _SHARED + (_Z, _R15)
BINARY_PAIR_DELETIONS = ((15, 1), (16, 1))


#: The address space of a run_capped child, 1 GiB.
MEMORY_CAP = 1 << 30


def run_capped(code: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run Python code with args in a child capped at MEMORY_CAP bytes, crisscodec importable."""
    cap = (
        "import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"soft = {MEMORY_CAP} if hard == resource.RLIM_INFINITY else min({MEMORY_CAP}, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
    )
    src = Path(crisscross.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", cap + code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def iter_words(n: int, q: int):
    """All q^n words of length n, as tuples."""
    return itertools.product(range(q), repeat=n)


def diff_loop(x, q):
    return [(x[i] - x[i + 1]) % q for i in range(len(x) - 1)] + [x[-1]]


def syndrome_loop(y):
    total = 0
    for i in range(len(y)):
        total += (i + 1) * y[i]
    return total


def adjacent_distinct_loop(x):
    for i in range(len(x) - 1):
        if x[i] == x[i + 1]:
            return False
    return True


def rll_words(n, q):
    """All q(q-1)^(n-1) words of length n with no two equal adjacent symbols."""
    for first in range(q):
        for steps in itertools.product(range(1, q), repeat=n - 1):
            x = [first]
            for step in steps:
                x.append((x[-1] + step) % q)
            yield x


def encode_intermediates(x, n: int, q: int) -> dict:
    """The values the 1-D encoder placed in codeword x with body length n.

    The encoder writes e + 1 at each high position j and h_i + 1 at each
    power position (q-1)^i of the differential.  The remainder is the
    base-(q-1) value of the h_i, and the residue the encoder had to place
    is the sum of e * j plus the remainder.
    """
    y = [None] + diff_loop(x, q)  # 1-based
    sets = rll_suffix.index_sets(n, q)
    greedy = tuple(y[j] - 1 for j in sets.high)
    digits = tuple(y[p] - 1 for p in sets.power)
    remainder = sum(h * (q - 1) ** i for i, h in enumerate(digits))
    residue = sum(e * j for e, j in zip(greedy, sets.high)) + remainder
    return dict(residue=residue, greedy=greedy, remainder=remainder, remainder_digits=digits)


@pytest.fixture
def rll_decode_calls(monkeypatch):
    """(word, position) of each rll_suffix.decode call, recorded by a spy."""
    calls = []
    real = rll_suffix.decode

    def spy(received, params):
        result = real(received, params)
        calls.append((list(received), result.position))
        return result

    monkeypatch.setattr(rll_suffix, "decode", spy)
    return calls


def brute_deletion_candidates(received, q: int) -> list[list[int]]:
    """Definition-level oracle: the distinct words of DVT_0(n; q), n = len(received) + 1,
    found by trying every (position, symbol) insertion."""
    seen = {}
    w = list(received)
    n = len(w) + 1
    for p in range(1, n + 1):
        for s in range(q):
            cand = w[: p - 1] + [s] + w[p - 1 :]
            if syndrome_loop(diff_loop(cand, q)) % (q * n) == 0:
                seen[tuple(cand)] = cand
    return list(seen.values())


def enumerate_protected_words(n: int, q: int, suffix: tuple[int, ...]) -> list[list[int]]:
    """Pure-Python enumeration of DVT_0 members with RLL + fixed suffix."""
    out = []
    m = len(suffix)
    for head in itertools.product(range(q), repeat=n - m):
        x = list(head) + list(suffix)
        if not adjacent_distinct_loop(x):
            continue
        if syndrome_loop(diff_loop(x, q)) % (q * n) == 0:
            out.append(x)
    return out


def protected_row_count_dp(n: int, q: int, suffix: tuple[int, ...]) -> int:
    """Rotate-and-add oracle for analysis.protected_row_count.

    counts[r] is the number of choices of the free differentials so far
    whose syndrome is r mod qn.  Free position i takes y_i in 1..q-1,
    which adds y_i * i to the syndrome: the sum over y_i of the list
    rotated by y_i * i.  O(q^2 n) list additions per position.
    """
    m = len(suffix)
    fixed = diff_loop(suffix, q)
    if 0 in fixed[:-1]:
        return 0
    modulus = q * n
    counts = [0] * modulus
    counts[syndrome_loop([0] * (n - m) + fixed) % modulus] = 1
    for i in range(1, n - m + 1):
        grown = [0] * modulus
        for shift in range(i, i * q, i):
            grown = list(map(add, grown, counts[-shift:] + counts[:-shift]))
        counts = grown
    return counts[0]


def protected_whole_word(n: int, q: int) -> tuple[int, ...]:
    """A length-n word of DVT_0(n; q) with no two equal adjacent symbols.

    Its differential starts as n - 1 ones and y_n = 0.  The deficit d
    that brings the syndrome to 0 mod qn is below qn, so y_n = d // n
    is a symbol and one more at position d % n < n covers the rest.
    """
    y = [1] * (n - 1) + [0]
    deficit = -syndrome_loop(y) % (q * n)
    y[-1] = deficit // n
    if deficit % n:
        y[deficit % n - 1] += 1
    x = [y[-1]]
    for step in reversed(y[:-1]):
        x.insert(0, (x[0] + step) % q)
    return tuple(x)


def deletion_ball(X) -> set[tuple[tuple[int, ...], ...]]:
    """All distinct arrays one row and one column deletion away from the square X."""
    n = len(X)
    return {
        tuple(tuple(X[r][c] for c in range(n) if c != j) for r in range(n) if r != i)
        for i in range(n)
        for j in range(n)
    }


def codewords_over(Y, params) -> set[tuple[tuple[int, ...], ...]]:
    """All codewords whose deletion ball holds the (n-1) x (n-1) array Y.

    Every row and column of a codeword sums to 0 (mod q), so for each
    deleted (i, j) exactly one such array has Y as its (i, j)-deletion:
    row i holds Y's column parities, column j its row parities, and the
    entry at (i, j) is minus the sum of the column parities.  The
    codewords over Y are those of these n^2 arrays that pass
    first_violation.  Neither the locating step nor the 1-D decoder is
    used.
    """
    n, q = params.n, params.q
    rows = [-sum(row) % q for row in Y]
    cols = [-sum(col) % q for col in zip(*Y)]
    corner = -sum(cols) % q
    found = set()
    for i in range(n):
        column = rows[:i] + [corner] + rows[i:]
        for j in range(n):
            X = [list(row) for row in Y]
            X.insert(i, list(cols))
            for row, value in zip(X, column):
                row.insert(j, value)
            if crisscross.first_violation(X, params) is None:
                found.add(tuple(map(tuple, X)))
    return found


def zero_sums(X, q: int) -> bool:
    """Every row and every column of the square X sums to 0 (mod q)."""
    n = len(X)
    rows = all(sum(X[r][c] for c in range(n)) % q == 0 for r in range(n))
    return rows and all(sum(X[r][c] for r in range(n)) % q == 0 for c in range(n))


def count_arrays_bruteforce(n: int, q: int, u_rows, v_rows) -> int:
    """Count codewords by enumerating every q^(n^2) array.

    `u_rows` and `v_rows` list the words that protect the first row and
    the reversed last column (say, from enumerate_protected_words).
    Each codeword condition tests one linear form of the cells (numbered
    row-major): the base-q codes of the first row and of the reversed
    last column, the two marker cells, and the row and column sums mod q.
    The arrays are taken in mixed-radix chunks: the low cells run through
    a precomputed table of all their values and the high cells are
    constant within a chunk.  A form is then the table's share plus a
    shift fixed per chunk, so each condition tests the table's share
    against its target moved by that shift.
    """
    cells = n * n
    powers_n = q ** np.arange(n, dtype=np.int64)
    u_codes = np.array(u_rows, dtype=np.int64).reshape(-1, n) @ powers_n
    v_codes = np.array(v_rows, dtype=np.int64).reshape(-1, n) @ powers_n

    forms = np.zeros((cells, 2 * n + 1), dtype=np.int64)
    forms[:n, 0] = powers_n  # first row
    forms[n * n - 1 :: -n, 1] = powers_n  # last column, bottom to top
    forms[2 * n - 2, 2] = 1  # marker cell that must hold 1
    forms[3 * n - 2, 3] = 1  # marker cell that must hold 2
    for i in range(1, n):  # rows 2..n
        forms[i * n : (i + 1) * n, 3 + i] = 1
    for j in range(1, n - 1):  # columns 2..n-1
        forms[j::n, 2 + n + j] = 1

    low = min(cells, rll_suffix.int_log_floor(q, 1 << 18))
    table = np.arange(q**low, dtype=np.int64)[:, None] // q ** np.arange(low) % q
    low_share = np.ascontiguousarray((table @ forms[:low]).T)  # one row per form
    low_share[4:] %= q
    high_powers = q ** np.arange(cells - low, dtype=np.int64)
    count = 0
    for high in range(q ** (cells - low)):
        shift = (high // high_powers % q) @ forms[low:]
        mask = np.isin(low_share[0], u_codes - shift[0])
        mask &= np.isin(low_share[1], v_codes - shift[1])
        mask &= (low_share[2] == 1 - shift[2]) & (low_share[3] == 2 - shift[3])
        mask &= (low_share[4:] == (-shift[4:] % q)[:, None]).all(axis=0)
        count += int(mask.sum())
    return count


def build_structural_codeword(n: int, q: int, u, v, fill) -> list[list[int]]:
    """Assemble a codeword from a valid first row, valid reversed last
    column and interior fill values; parity cells are forced."""
    X = [[0] * n for _ in range(n)]
    X[0] = list(u)
    for r in range(n):
        X[r][n - 1] = v[n - 1 - r]
    X[1][n - 2] = 1
    X[2][n - 2] = 2
    free = [
        (i, j)
        for i in range(1, n - 1)
        for j in range(1, n - 1)
        if (i, j) not in ((1, n - 2), (2, n - 2))
    ]
    assert len(fill) == len(free)
    for (i, j), value in zip(free, fill):
        X[i][j] = value
    for j in range(1, n - 1):
        X[n - 1][j] = -sum(X[i][j] for i in range(n - 1)) % q
    for i in range(1, n):
        X[i][0] = -sum(X[i][1:]) % q
    return X
