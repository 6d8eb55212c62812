"""File format: canonical serialization, parsing, validation."""

from __future__ import annotations

import json
import random

import pytest

from conftest import GOLDEN_ARRAY, GOLDEN_DATA, GOLDEN_RECEIVED_9_9
from crisscodec import crisscross, fileio
from crisscodec.fileio import ArrayFile

ARRAY = ArrayFile(kind="array", q=7, n=9, rows=GOLDEN_ARRAY)
RECEIVED = ArrayFile(kind="received", q=7, n=9, rows=GOLDEN_RECEIVED_9_9)
DATA = ArrayFile(kind="data", q=7, n=9, symbols=GOLDEN_DATA)


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
        with pytest.raises(ValueError, match="JSON"):
            fileio.loads("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            fileio.loads("[1, 2, 3]")

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
        with pytest.raises(ValueError, match="list of lists"):
            fileio.loads('{"kind": "array", "q": 3, "n": 2, "rows": [[0, 1], 3]}')


class TestFiles:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "word.json"
        fileio.dump(ARRAY, path)
        again = fileio.load(path)
        assert again == ARRAY
        assert path.read_bytes() == fileio.dumps(ARRAY).encode()
