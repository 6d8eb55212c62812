"""File format: canonical serialization, parsing, validation."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_ARRAY, GOLDEN_DATA, GOLDEN_RECEIVED_9_9
from crisscodec import crisscross, fileio
from crisscodec.fileio import ArrayFile

ARRAY = ArrayFile(kind="array", q=7, n=9, rows=GOLDEN_ARRAY)
RECEIVED = ArrayFile(kind="received", q=7, n=9, rows=GOLDEN_RECEIVED_9_9)
DATA = ArrayFile(kind="data", q=7, n=9, symbols=GOLDEN_DATA)


def dumps_reference(f: ArrayFile) -> str:
    """The canonical text built symbol by symbol with str, as fileio.dumps once did."""
    lines = ["{", f'  "kind": "{f.kind}",', f'  "q": {f.q},', f'  "n": {f.n},']
    if f.kind == "data":
        lines.append(f'  "symbols": [{", ".join(map(str, f.symbols))}]')
    else:
        body = ",\n".join(f"    [{', '.join(map(str, row))}]" for row in f.rows)
        lines += ['  "rows": [', body, "  ]"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_file(rng: random.Random, kind: str, n: int, q: int) -> ArrayFile:
    if kind == "data":
        return ArrayFile(kind, q, n, symbols=[rng.randrange(q) for _ in range(rng.randrange(2 * n))])
    dim = n if kind == "array" else n - 1
    return ArrayFile(kind, q, n, rows=[[rng.randrange(q) for _ in range(dim)] for _ in range(dim)])


@st.composite
def array_files(draw) -> ArrayFile:
    kind = draw(st.sampled_from(fileio.KINDS))
    n = draw(st.integers(2, 8))
    q = draw(st.one_of(st.integers(2, 10), st.just(2**31 - 1), st.integers(2, 2**64)))
    symbol = st.integers(0, q - 1)
    if kind == "data":
        return ArrayFile(kind, q, n, symbols=draw(st.lists(symbol, max_size=3 * n)))
    dim = n if kind == "array" else n - 1
    row = st.lists(symbol, min_size=dim, max_size=dim)
    return ArrayFile(kind, q, n, rows=draw(st.lists(row, min_size=dim, max_size=dim)))


class TestCanonicalForm:
    def test_small_golden_text(self):
        f = ArrayFile(kind="array", q=3, n=2, rows=[[0, 1], [2, 0]])
        assert fileio.dumps(f) == (
            "{\n"
            '  "kind": "array",\n'
            '  "q": 3,\n'
            '  "n": 2,\n'
            '  "rows": [\n'
            "    [0, 1],\n"
            "    [2, 0]\n"
            "  ]\n"
            "}\n"
        )

    def test_data_golden_text(self):
        f = ArrayFile(kind="data", q=3, n=11, symbols=[0, 1, 2])
        assert fileio.dumps(f) == (
            "{\n"
            '  "kind": "data",\n'
            '  "q": 3,\n'
            '  "n": 11,\n'
            '  "symbols": [0, 1, 2]\n'
            "}\n"
        )

    def test_output_is_valid_json(self):
        for f in (ARRAY, RECEIVED, DATA):
            raw = json.loads(fileio.dumps(f))
            assert raw["kind"] == f.kind
            assert raw["q"] == f.q and raw["n"] == f.n

    @pytest.mark.parametrize("f", [ARRAY, RECEIVED, DATA], ids=lambda f: f.kind)
    def test_parse_then_serialize_is_identity(self, f):
        text = fileio.dumps(f)
        assert fileio.dumps(fileio.loads(text)) == text

    @pytest.mark.parametrize("f", [ARRAY, RECEIVED, DATA], ids=lambda f: f.kind)
    def test_serialize_then_parse_is_identity(self, f):
        assert fileio.loads(fileio.dumps(f)) == f

    def test_matches_the_str_join_reference(self):
        rng = random.Random("fileio-dumps-reference")
        for kind in fileio.KINDS:
            for n in (2, 3, 9, 64):
                for q in (2, 3, 7, 257, 2**31 - 1):
                    for _ in range(3):
                        f = random_file(rng, kind, n, q)
                        assert fileio.dumps(f) == dumps_reference(f)
        # numpy integers are stored as plain ints, whose repr is their JSON text.
        numpy_array = ArrayFile("array", 7, 9, rows=np.array(GOLDEN_ARRAY))
        numpy_data = ArrayFile("data", 7, 9, symbols=np.array(GOLDEN_DATA, dtype=np.uint16))
        for f in (ARRAY, RECEIVED, DATA, ArrayFile("data", 3, 2, symbols=[]), numpy_array, numpy_data):
            assert fileio.dumps(f) == dumps_reference(f)
        assert fileio.dumps(numpy_array) == fileio.dumps(ARRAY)
        assert fileio.dumps(numpy_data) == fileio.dumps(DATA)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(array_files())
    def test_loads_inverts_dumps(self, f):
        assert fileio.loads(fileio.dumps(f)) == f

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(array_files(), st.data())
    def test_edited_text_is_refused_or_read_as_written(self, f, data):
        # One character of the canonical text deleted, replaced or inserted:
        # loads either refuses with ValueError or returns a file that holds
        # exactly the JSON value of the edited text, nothing coerced.
        text = fileio.dumps(f)
        at = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from('0123456789-+.eE[]{},:" \ntrufalsnkidyowbq'))
        edit = data.draw(st.sampled_from(("delete", "replace", "insert")))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if edit == "replace" else "") + text[at + 1 :]
        try:
            g = fileio.loads(text)
        except ValueError:
            return
        # Re-dumped with json, which writes 1, 1.0 and true apart.
        assert json.dumps(json.loads(fileio.dumps(g)), sort_keys=True) == json.dumps(json.loads(text), sort_keys=True)

    def test_files_are_immutable_records(self):
        f = ArrayFile(kind="array", q=3, n=2, rows=[[0, 1], [2, 0]])
        assert f == ArrayFile("array", 3, 2, ((0, 1), (2, 0)))
        assert repr(f) == "ArrayFile(kind='array', q=3, n=2, rows=((0, 1), (2, 0)), symbols=None)"
        data = ArrayFile(symbols=np.array([2, 0]), n=11, q=3, kind="data")
        assert repr(data) == "ArrayFile(kind='data', q=3, n=11, rows=None, symbols=(2, 0))"
        with pytest.raises(AttributeError):
            f.rows = ((0, 0), (0, 0))
        with pytest.raises(AttributeError):
            f.extra = 0
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            f._replace(q=1)

    def test_non_canonical_spacing_parses_to_same_value(self):
        text = '{"n": 2, "rows": [[0,1],[2,0]], "q": 3, "kind": "array"}'
        assert fileio.loads(text) == ArrayFile("array", 3, 2, [[0, 1], [2, 0]])


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ArrayFile(kind="matrix", q=3, n=2, rows=[[0, 0], [0, 0]])

    def test_bad_q_and_n(self):
        with pytest.raises(ValueError):
            ArrayFile(kind="data", q=1, n=9, symbols=[0])
        with pytest.raises(ValueError):
            ArrayFile(kind="data", q=3, n=1, symbols=[0])
        with pytest.raises(ValueError):
            ArrayFile(kind="data", q="3", n=9, symbols=[0])

    def test_numpy_integer_q_and_n_are_stored_as_plain_ints(self):
        # q and n follow the codec's one integer rule, as CodeParams does.
        plain = ArrayFile(kind="data", q=7, n=9, symbols=[0, 6])
        numpy_typed = ArrayFile(kind="data", q=np.int64(7), n=np.int32(9), symbols=[0, 6])
        assert (type(numpy_typed.q), type(numpy_typed.n)) == (int, int)
        assert numpy_typed == plain and repr(numpy_typed) == repr(plain)
        assert fileio.dumps(numpy_typed) == fileio.dumps(plain)
        with pytest.raises(ValueError, match=r"^q must be an integer >= 2, got True$"):
            ArrayFile(kind="data", q=True, n=9, symbols=[0])
        with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got True$"):
            ArrayFile(kind="data", q=3, n=True, symbols=[0])

    def test_one_shot_symbols_are_read_once(self):
        with pytest.raises(ValueError, match=r"^symbols\[2\] = 9 is outside the alphabet \[0, 3\)$"):
            ArrayFile("data", 3, 4, symbols=(s for s in [1, 2, 9]))
        assert ArrayFile("data", 3, 4, symbols=iter([1, 2])).symbols == (1, 2)

    def test_one_shot_rows_are_read_once(self):
        rows = ArrayFile("array", 3, 2, rows=(r for r in [[0, 1], [2, 0]])).rows
        assert rows == ((0, 1), (2, 0))

    def test_payload_kind_mismatch(self):
        with pytest.raises(ValueError):
            ArrayFile(kind="data", q=3, n=9, rows=[[0]])
        with pytest.raises(ValueError):
            ArrayFile(kind="array", q=3, n=2, symbols=[0])
        with pytest.raises(ValueError):
            ArrayFile(kind="array", q=3, n=2)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="2x2"):
            ArrayFile(kind="array", q=3, n=2, rows=[[0, 1]])
        with pytest.raises(ValueError, match="1x1"):
            ArrayFile(kind="received", q=3, n=2, rows=[[0], [1]])
        with pytest.raises(ValueError):
            ArrayFile(kind="array", q=3, n=2, rows=[[0, 1], [2, 0, 1]])

    def test_ragged_rows_name_the_bad_row(self):
        with pytest.raises(ValueError, match=r"^expected a 3x3 array, row 2 has 2 entries$"):
            ArrayFile(kind="array", q=3, n=3, rows=[[0, 1, 2], [0, 1], [0, 1, 2]])
        with pytest.raises(ValueError, match=r"^expected a 2x2 array, got 3 rows$"):
            ArrayFile(kind="received", q=3, n=3, rows=[[0, 1], [0, 1], [0, 1]])

    @pytest.mark.parametrize("bad", [True, 2.0, None, "3", -1, 7], ids=repr)
    def test_errors_match_the_codec_array_check(self, bad):
        # A file's rows go through the codec's own check, so a bad entry
        # reads the same error in a file as in an array given to the codec.
        rng = random.Random(f"fileio-check:{bad!r}")
        for _ in range(20):
            kind = rng.choice(("array", "received"))
            rows = [list(r) for r in (GOLDEN_ARRAY if kind == "array" else GOLDEN_RECEIVED_9_9)]
            r, k = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[r][k] = bad
            with pytest.raises(ValueError) as reference:
                crisscross.check_array(rows, len(rows), len(rows), 7)
            with pytest.raises(ValueError) as got:
                ArrayFile(kind=kind, q=7, n=9, rows=rows)
            assert str(got.value) == str(reference.value)
            assert str(got.value).startswith(f"row {r + 1}[{k}] = {bad!r} ")

    def test_symbol_range(self):
        with pytest.raises(ValueError, match="alphabet"):
            ArrayFile(kind="array", q=3, n=2, rows=[[0, 3], [0, 0]])
        with pytest.raises(ValueError, match="alphabet"):
            ArrayFile(kind="data", q=3, n=9, symbols=[0, -1])

    def test_booleans_rejected(self):
        # JSON true/false must not sneak in as 1/0.
        with pytest.raises(ValueError):
            ArrayFile(kind="data", q=3, n=9, symbols=[True])
        with pytest.raises(ValueError):
            fileio.loads('{"kind": "data", "q": 3, "n": 9, "symbols": [true]}')


class TestLoads:
    def test_rejects_bad_json(self):
        for text in ("{not json", 3):  # json.loads raises TypeError for 3
            with pytest.raises(ValueError, match="not valid JSON"):
                fileio.loads(text)

    def test_dumps_rejects_what_is_not_an_array_file(self):
        with pytest.raises(ValueError, match="expected an ArrayFile, got int"):
            fileio.dumps(3)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            fileio.loads("[1, 2, 3]")

    def test_rejects_deep_nesting(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            fileio.loads("[" * 200_000 + "]" * 200_000)

    def test_rejects_extra_keys(self):
        with pytest.raises(ValueError, match="exactly the keys"):
            fileio.loads('{"kind": "data", "q": 3, "n": 9, "symbols": [0], "x": 1}')

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="exactly the keys"):
            fileio.loads('{"kind": "data", "q": 3, "symbols": [0]}')

    def test_rejects_wrong_payload_key(self):
        with pytest.raises(ValueError, match="exactly the keys"):
            fileio.loads('{"kind": "array", "q": 3, "n": 2, "symbols": [0]}')

    def test_rejects_non_list_payloads(self):
        with pytest.raises(ValueError, match="list"):
            fileio.loads('{"kind": "data", "q": 3, "n": 9, "symbols": 5}')
        with pytest.raises(ValueError, match='^"rows" must be a list$'):
            fileio.loads('{"kind": "array", "q": 3, "n": 2, "rows": null}')
        # A row that is not a list gets the codec's own error for that array.
        for rows in ([[0, 1], 3], [[0, 1], "ab"], [[0, 1], {"a": 1, "b": 2}]):
            with pytest.raises(ValueError) as codec:
                crisscross.check_array(rows, 2, 2, 3)
            text = json.dumps({"kind": "array", "q": 3, "n": 2, "rows": rows})
            with pytest.raises(ValueError) as parsed:
                fileio.loads(text)
            assert str(parsed.value) == str(codec.value)


class TestFiles:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "word.json"
        path.write_text(fileio.dumps(ARRAY))
        assert fileio.load(path) == ARRAY
