"""JSON file format for arrays, received arrays and data vectors.

One self-describing schema covers all three payload kinds:

  {"kind": "array",    "q": 7, "n": 9, "rows": [[...], ...]}   n x n
  {"kind": "received", "q": 7, "n": 9, "rows": [[...], ...]}   (n-1) x (n-1)
  {"kind": "data",     "q": 7, "n": 9, "symbols": [...]}

`n` always records the code dimension, so a received array remembers
what it was cut from.  Serialization is canonical (fixed key order, one
row per line, trailing newline): equal values produce byte-identical
files, and parsing then serializing a canonical file reproduces it
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import vt_core

KINDS = ("array", "received", "data")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ArrayFile:
    """One parsed or to-be-written codec file."""

    kind: str
    q: int
    n: int
    rows: tuple[tuple[int, ...], ...] | None = None
    symbols: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not _is_int(self.q) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        if not _is_int(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.kind == "data":
            if self.rows is not None or self.symbols is None:
                raise ValueError('kind "data" carries "symbols", not "rows"')
            symbols = vt_core.check_symbols(self.symbols, self.q, "symbols")
            object.__setattr__(self, "symbols", tuple(symbols))
        else:
            if self.symbols is not None or self.rows is None:
                raise ValueError(f'kind "{self.kind}" carries "rows", not "symbols"')
            dim = self.n if self.kind == "array" else self.n - 1
            if len(self.rows) != dim or any(len(r) != dim for r in self.rows):
                shape = f"{len(self.rows)}x{len(self.rows[0]) if self.rows else 0}"
                raise ValueError(
                    f'kind "{self.kind}" with n={self.n} needs a {dim}x{dim} '
                    f"matrix, got {shape}"
                )
            rows = tuple(
                tuple(vt_core.check_symbols(row, self.q, f"rows[{i}]"))
                for i, row in enumerate(self.rows)
            )
            object.__setattr__(self, "rows", rows)

    def row_lists(self) -> list[list[int]]:
        """Rows as mutable lists (the shape codec functions expect)."""
        assert self.rows is not None
        return [list(r) for r in self.rows]


def loads(text: str) -> ArrayFile:
    """Parse and validate one codec file from its JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("top-level JSON value must be an object")
    payload_key = "symbols" if raw.get("kind") == "data" else "rows"
    expected = {"kind", "q", "n", payload_key}
    if set(raw) != expected:
        raise ValueError(f"expected exactly the keys {sorted(expected)}, got {sorted(raw)}")
    payload = raw[payload_key]
    if not isinstance(payload, list):
        raise ValueError(f'"{payload_key}" must be a list')
    if payload_key == "rows" and not all(isinstance(r, list) for r in payload):
        raise ValueError('"rows" must be a list of lists')
    return ArrayFile(
        kind=raw["kind"],
        q=raw["q"],
        n=raw["n"],
        rows=raw.get("rows"),
        symbols=raw.get("symbols"),
    )


def dumps(f: ArrayFile) -> str:
    """Canonical JSON text of one codec file."""
    lines = [
        "{",
        f'  "kind": "{f.kind}",',
        f'  "q": {f.q},',
        f'  "n": {f.n},',
    ]
    if f.kind == "data":
        assert f.symbols is not None
        lines.append(f'  "symbols": [{", ".join(map(str, f.symbols))}]')
    else:
        assert f.rows is not None
        body = ",\n".join(f"    [{', '.join(map(str, row))}]" for row in f.rows)
        lines.append('  "rows": [')
        lines.append(body)
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load(path: str | Path) -> ArrayFile:
    return loads(Path(path).read_text())


def dump(f: ArrayFile, path: str | Path) -> None:
    Path(path).write_text(dumps(f))
