"""Command line interface: pipelines, outputs, exit codes."""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import GOLDEN_ARRAY, GOLDEN_DATA, GOLDEN_RECEIVED_9_9, run_capped
import crisscodec
from crisscodec import cli, crisscross, fileio
from crisscodec.cli import COMMANDS, main
from crisscodec.fileio import ArrayFile

DATA_FILE = ArrayFile("data", 7, 9, symbols=GOLDEN_DATA)
ARRAY_FILE = ArrayFile("array", 7, 9, rows=GOLDEN_ARRAY)
RECEIVED_FILE = ArrayFile("received", 7, 9, rows=GOLDEN_RECEIVED_9_9)


@pytest.fixture
def data_path(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(fileio.dumps(DATA_FILE))
    return path


@pytest.fixture
def array_path(tmp_path):
    path = tmp_path / "array.json"
    path.write_text(fileio.dumps(ARRAY_FILE))
    return path


@pytest.fixture
def received_path(tmp_path):
    path = tmp_path / "received.json"
    path.write_text(fileio.dumps(RECEIVED_FILE))
    return path


class TestPipeline:
    def test_full_round_trip_is_byte_identical(self, tmp_path, data_path):
        array = tmp_path / "array.json"
        received = tmp_path / "received.json"
        decoded = tmp_path / "decoded.json"
        recovered = tmp_path / "recovered.json"

        assert main([
            "encode", "--n", "9", "--q", "7", "--data", str(data_path),
            "--out", str(array),
        ]) == 0
        assert array.read_bytes() == fileio.dumps(ARRAY_FILE).encode()

        assert main([
            "corrupt", "--in", str(array), "--row", "9", "--col", "9",
            "--out", str(received),
        ]) == 0
        assert received.read_bytes() == fileio.dumps(RECEIVED_FILE).encode()

        assert main(["decode", "--in", str(received), "--out", str(decoded)]) == 0
        assert decoded.read_bytes() == array.read_bytes()

        assert main([
            "recover", "--in", str(decoded), "--out", str(recovered),
        ]) == 0
        assert recovered.read_bytes() == data_path.read_bytes()

    def test_stdout_when_out_omitted(self, capsys, data_path):
        assert main(["encode", "--n", "9", "--q", "7", "--data", str(data_path)]) == 0
        assert capsys.readouterr().out == fileio.dumps(ARRAY_FILE)

    def test_array_checks_per_command(self, tmp_path, monkeypatch):
        # A pin, not a bound: a change that drops an array check updates it.
        # fileio and crisscross both look check_array up through the module.
        calls = []
        check_array = crisscross.check_array

        def counting(*args):
            calls.append(args)
            return check_array(*args)

        monkeypatch.setattr(crisscross, "check_array", counting)
        params = crisscross.CodeParams(11, 5)
        symbols = [k % 5 for k in range(crisscross.message_lengths(params).total)]
        data = fileio.dumps(ArrayFile("data", 5, 11, symbols=symbols))
        (tmp_path / "data.json").write_text(data)
        commands = {
            "encode": ["--n", "11", "--q", "5", "--data", "data.json", "--out", "array.json"],
            "corrupt": ["--in", "array.json", "--row", "3", "--col", "7", "--out", "rx.json"],
            "decode": ["--in", "rx.json", "--out", "decoded.json"],
            "recover": ["--in", "decoded.json", "--out", "recovered.json"],
            "verify": ["--in", "decoded.json"],
        }
        monkeypatch.chdir(tmp_path)
        counts = {}
        for name, args in commands.items():
            calls.clear()
            assert main([name, *args]) == 0
            counts[name] = len(calls)
        assert counts == {"encode": 1, "corrupt": 2, "decode": 4, "recover": 2, "verify": 2}
        assert (tmp_path / "recovered.json").read_text() == data


class TestVerify:
    def test_codeword(self, capsys, array_path):
        assert main(["verify", "--in", str(array_path)]) == 0
        assert "codeword of the n=9, q=7 code" in capsys.readouterr().out

    def test_non_codeword(self, capsys, tmp_path, array_path):
        rows = [list(r) for r in GOLDEN_ARRAY]
        rows[3][3] = (rows[3][3] + 1) % 7
        bad = tmp_path / "bad.json"
        bad.write_text(fileio.dumps(ArrayFile("array", 7, 9, rows=rows)))
        assert main(["verify", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not a codeword" in err and "condition 4" in err


class TestExitCodes:
    def test_encode_refuses_uncertified_parameters(self, capsys, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(fileio.dumps(ArrayFile("data", 3, 10, symbols=[0] * 63)))
        assert main(["encode", "--n", "10", "--q", "3", "--data", str(path)]) == 2
        assert "not certified at n=10, q=3" in capsys.readouterr().err

    def test_flag_file_mismatch(self, capsys, data_path):
        rc = main([
            "encode", "--n", "11", "--q", "3", "--data", str(data_path),
        ])
        assert rc == 2
        assert "written for n=9" in capsys.readouterr().err

    def test_kind_mismatch(self, capsys, array_path):
        assert main(["decode", "--in", str(array_path)]) == 2
        assert 'expected kind "received"' in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["decode", "--in", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["verify", "--in", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["decode", "--in", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", ["[" * 980 + "]" * 980, '"' + "x" * 5000 + '"'], ids=["nested", "long-string"]
    )
    def test_oversized_bad_entry_is_abbreviated(self, tmp_path, entry):
        # In a process of its own: under pytest's deeper stack the nested
        # entry would already overflow the JSON parser.
        rows = [f"[{entry}" + ", 0" * 7 + "]"] + ["[" + ", ".join("0" * 8) + "]"] * 7
        path = tmp_path / "oversized.json"
        path.write_text(f'{{"kind": "received", "q": 7, "n": 9, "rows": [{", ".join(rows)}]}}')
        proc = _run_python("-m", "crisscodec", "decode", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: row 1[0] = ") and len(proc.stderr) < 200, proc.stderr

    def test_bad_corrupt_index(self, capsys, array_path):
        rc = main(["corrupt", "--in", str(array_path), "--row", "0", "--col", "1"])
        assert rc == 2

    def test_decode_failure_is_exit_3(self, capsys, tmp_path):
        rows = [[1] * 8 for _ in range(8)]
        path = tmp_path / "noise.json"
        path.write_text(fileio.dumps(ArrayFile("received", 7, 9, rows=rows)))
        assert main(["decode", "--in", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_recover_tampered_array_is_exit_2(self, capsys, tmp_path):
        rows = [list(r) for r in GOLDEN_ARRAY]
        rows[5][2] = (rows[5][2] + 3) % 7
        path = tmp_path / "tampered.json"
        path.write_text(fileio.dumps(ArrayFile("array", 7, 9, rows=rows)))
        rc = main(["recover", "--in", str(path)])
        assert rc == 2
        assert "not a codeword" in capsys.readouterr().err

    def test_argparse_errors_are_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2
        assert main(["encode", "--n", "9"]) == 2
        capsys.readouterr()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert len(COMMANDS) == 8
        for name in COMMANDS:
            assert f"\n    {name} " in out, name


# Each command's help, its missing flags and an unknown flag; an unknown
# flag after a complete command, which the top-level parser refuses with
# its own usage line; then the argument lists that name no command.
PARSER_CORPUS = (
    [[name, "-h"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [[name, "--bogus"] for name in COMMANDS]
    + [["count", "--n", "5", "--q", "8", "--bogus"]]
    + [[], ["-h"], ["nope"], ["-h", "encode"]]
)


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_output_matches_the_full_parser(self, capsys, monkeypatch, argv):
        def outcome():
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        subset = outcome()
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda names: build_parser(COMMANDS))
        assert subset == outcome()

    def test_a_command_builds_only_its_own_subparser(self, monkeypatch, capsys, received_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["decode", "--in", str(received_path)]) == 0
        assert built == ["crisscodec", "crisscodec decode"]
        built.clear()
        assert main(["--help"]) == 0
        assert len(built) == 9
        capsys.readouterr()


class TestAnalyze:
    def test_csv_output(self, capsys):
        assert main([
            "analyze", "--n-min", "11", "--n-max", "12", "--q", "3,5",
            "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,q,k1,k2,k3,")
        assert len(lines) == 5
        assert lines[1].startswith("11,3,")

    def test_grid_order(self, capsys):
        # Rows run over q within each n.
        assert main([
            "analyze", "--n-min", "11", "--n-max", "12", "--q", "3,5", "--format", "csv",
        ]) == 0
        rows = [line.split(",")[:2] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["11", "3"], ["11", "5"], ["12", "3"], ["12", "5"]]

    def test_table_output_to_file(self, tmp_path):
        out = tmp_path / "table.txt"
        assert main([
            "analyze", "--n-min", "11", "--n-max", "11", "--q", "7",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split()[:2] == ["n", "q"]

    def test_unproven_floor(self, capsys):
        assert main(["analyze", "--n-min", "9", "--n-max", "9", "--q", "7"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--n-min", "10", "--n-max", "10", "--q", "3"]) == 2
        assert "not certified at n=10, q=3" in capsys.readouterr().err

    def test_bad_ranges_and_alphabets(self, capsys):
        assert main(["analyze", "--n-min", "12", "--n-max", "11", "--q", "3"]) == 2
        assert main(["analyze", "--n-min", "11", "--n-max", "99999", "--q", "3"]) == 2
        assert main(["analyze", "--n-min", "11", "--n-max", "11", "--q", "3,x"]) == 2
        assert main(["analyze", "--n-min", "11", "--n-max", "11", "--q", "2"]) == 2
        assert main(["analyze", "--n-min", "11", "--n-max", "11", "--q", ","]) == 2
        capsys.readouterr()
        assert main(["analyze", "--n-min", "11", "--n-max", "11", "--q", "3,2"]) == 2
        assert "alphabet size must be >= 3, got q=2" in capsys.readouterr().err


class TestCount:
    def test_empty_instance(self, capsys):
        assert main(["count", "--n", "4", "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 (empty code)" in out and "n/a" in out

    def test_smallest_nonempty_instance(self, capsys):
        assert main(["count", "--n", "5", "--q", "8"]) == 0
        out = capsys.readouterr().out
        assert "code size:               2097152" in out
        assert "code redundancy:         18 symbols" in out

    def test_size_beyond_the_int_to_str_limit(self, capsys):
        # The size has more decimal digits than str() of an int may produce
        # (4300 by default since Python 3.10.7 and 3.11).
        assert main(["count", "--n", "100", "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert "code size:               557964598508055070821841084100403971576345271133846908 * 3^9602" in out
        assert "code redundancy:         286 symbols" in out

    def test_bruteforce_guard(self, capsys):
        assert main(["count", "--n", "100000", "--q", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "work guard" in err
        assert "Traceback" not in err
        assert main(["count", "--n", "4", "--q", "3", "--mode", "bruteforce"]) == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err


class TestSelftestCommand:
    def test_pass(self, capsys):
        assert main(["selftest", "--n", "11", "--q", "3", "--trials", "1"]) == 0
        header, result = capsys.readouterr().out.splitlines()
        assert header == "selftest n=11 q=3 seed=0"
        assert result.startswith("  round-trip: PASS")

    def test_property_failure_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            crisscross, "decode", lambda Y, params: [[0] * params.n for _ in range(params.n)]
        )
        assert main(["selftest", "--n", "11", "--q", "3", "--trials", "1"]) == 3
        out = capsys.readouterr().out
        assert "round-trip: FAIL" in out
        assert "decode mismatch at trial=0 i=1 j=1 seed=0" in out

    def test_wrong_recovery_is_exit_3(self, capsys, monkeypatch):
        def change_first_symbol(X, params):
            data = recover(X, params)
            data[0] = (data[0] + 1) % params.q
            return data

        recover = crisscross.recover_data
        monkeypatch.setattr(crisscross, "recover_data", change_first_symbol)
        assert main(["selftest", "--n", "11", "--q", "3", "--trials", "1", "--seed", "4"]) == 3
        out = capsys.readouterr().out
        assert "round-trip: FAIL" in out
        assert "recover(encode(data)) != data at trial=0 seed=4" in out

    def test_below_proven_range_is_exit_2(self, capsys):
        assert main(["selftest", "--n", "10", "--q", "3", "--trials", "1"]) == 2
        assert "not certified" in capsys.readouterr().err
        assert main(["selftest", "--n", "9", "--q", "7", "--trials", "1"]) == 0
        capsys.readouterr()

    def test_work_beyond_the_guard_is_exit_2(self, capsys):
        # trials * n^4 = 10^20 steps: refused before a message is built.
        assert main(["selftest", "--n", "100000", "--q", "3", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert "exceed the work guard 10000000000" in captured.err
        assert captured.out == ""
        # 101 * 100^4 steps, just above the guard.
        assert main(["selftest", "--n", "100", "--q", "101", "--trials", "101"]) == 2
        assert "exceed the work guard" in capsys.readouterr().err

    def test_no_trials_is_exit_2(self, capsys):
        assert main(["selftest", "--n", "11", "--q", "3", "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "at least one trial" in captured.err
        assert "PASS" not in captured.out


def test_console_script_is_installed():
    exe = shutil.which("crisscodec")
    assert exe, "console script not on PATH"
    proc = subprocess.run(
        [exe, "count", "--n", "5", "--q", "8"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "2097152" in proc.stdout


def _run_python(*args):
    src = Path(crisscodec.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_encode_at_a_huge_n_exits_2_at_once(tmp_path):
    # Every message is longer than free_cells(n), so one symbol is refused
    # before the layout, whose k3 alone would take minutes at this n.
    data = tmp_path / "data.json"
    data.write_text(fileio.dumps(ArrayFile("data", 3, 10**8, symbols=[0])))
    code = "from crisscodec.cli import entry_point\nentry_point()\n"
    start = time.perf_counter()
    argv = ["encode", "--n", "100000000", "--q", "3", "--data", str(data)]
    proc = run_capped(code, *argv, timeout=10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: expected more than 9999999600000002 data symbols, got 1\n"
    assert elapsed < 1, elapsed


def test_python_dash_m_runs_the_cli():
    proc = _run_python("-m", "crisscodec", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: crisscodec")


def test_count_runs_without_numpy():
    # A None entry in sys.modules makes every `import numpy` fail.
    proc = _run_python(
        "-c",
        "import sys; sys.modules['numpy'] = None; from crisscodec.cli import main; "
        "sys.exit(main(['count', '--n', '12', '--q', '3']))",
    )
    assert proc.returncode == 0, proc.stderr
    assert "protected first rows:    28" in proc.stdout
