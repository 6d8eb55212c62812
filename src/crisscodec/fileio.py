"""JSON file format for arrays, received arrays and data vectors.

One self-describing schema covers all three payload kinds:

  {"kind": "array",    "q": 7, "n": 9, "rows": [[...], ...]}   n x n
  {"kind": "received", "q": 7, "n": 9, "rows": [[...], ...]}   (n-1) x (n-1)
  {"kind": "data",     "q": 7, "n": 9, "symbols": [...]}

`n` always records the code dimension, so a received array remembers
what it was cut from.  Rows are checked by the codec's own array check,
`crisscross.check_array`, so a bad file, a row that is not a list
included, reads the same error as a bad array passed to the codec:
"expected a 9x9 array, row 3 has 8 entries", or "row 3[5] = 7 is
outside the alphabet [0, 7)" for a 1-based row and a 0-based entry.
Serialization is canonical (fixed key order, one row per line, trailing
newline): equal values produce byte-identical files, and parsing then
serializing a canonical file reproduces it exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Sequence

from . import crisscross, vt_core

KINDS = ("array", "received", "data")


class ArrayFile(
    NamedTuple(
        "ArrayFile",
        [("kind", str), ("q", int), ("n", int), ("rows", tuple | None), ("symbols", tuple | None)],
    )
):
    """One parsed or to-be-written codec file, a tuple (kind, q, n, rows, symbols).

    q and n are stored as plain ints, and rows or symbols, whichever the
    kind carries, as tuples of them; the other is None.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(
        cls,
        kind: str,
        q: int,
        n: int,
        rows: Sequence[Sequence[int]] | None = None,
        symbols: Sequence[int] | None = None,
    ) -> ArrayFile:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        q, n = vt_core.plain_int("q", q, 2), vt_core.plain_int("n", n, 2)
        if kind == "data":
            if rows is not None or symbols is None:
                raise ValueError('kind "data" carries "symbols", not "rows"')
            symbols = tuple(vt_core.check_symbols(symbols, q, "symbols"))
        else:
            if symbols is not None or rows is None:
                raise ValueError(f'kind "{kind}" carries "rows", not "symbols"')
            dim = n if kind == "array" else n - 1
            rows = tuple(map(tuple, crisscross.check_array(rows, dim, dim, q)))
        return super().__new__(cls, kind, q, n, rows, symbols)


def loads(text: str) -> ArrayFile:
    """Parse and validate one codec file from its JSON text."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:  # TypeError: neither str nor bytes
        raise ValueError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("top-level JSON value must be an object")
    payload_key = "symbols" if raw.get("kind") == "data" else "rows"
    expected = {"kind", "q", "n", payload_key}
    if set(raw) != expected:
        raise ValueError(f"expected exactly the keys {sorted(expected)}, got {sorted(raw)}")
    if not isinstance(raw[payload_key], list):
        raise ValueError(f'"{payload_key}" must be a list')
    return ArrayFile(**raw)


def dumps(f: ArrayFile) -> str:
    """Canonical JSON text of one codec file.

    ArrayFile holds plain ints only, so the repr of a list of them is
    its JSON text.
    """
    if not isinstance(f, ArrayFile):
        raise ValueError(f"expected an ArrayFile, got {type(f).__name__}")
    lines = [
        "{",
        f'  "kind": "{f.kind}",',
        f'  "q": {f.q},',
        f'  "n": {f.n},',
    ]
    if f.kind == "data":
        assert f.symbols is not None
        lines.append(f'  "symbols": {list(f.symbols)}')
    else:
        assert f.rows is not None
        body = ",\n".join(f"    {list(row)}" for row in f.rows)
        lines.append('  "rows": [')
        lines.append(body)
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load(path: str | Path) -> ArrayFile:
    return loads(Path(path).read_text())
