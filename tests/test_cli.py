"""Command-line interface smoke tests."""

import pytest

from repro.cli import main

SOURCE = """
loop:
    load 0
    addi 1
    store 1
    nandi 0
    brn loop
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "echo.asm"
    path.write_text(SOURCE)
    return str(path)


class TestAsm:
    def test_assemble_and_list(self, source_file, capsys):
        assert main(["asm", source_file]) == 0
        out = capsys.readouterr().out
        assert "5 instructions" in out

    def test_write_image(self, source_file, tmp_path, capsys):
        image = tmp_path / "echo.bin"
        assert main(["asm", source_file, "-o", str(image)]) == 0
        assert image.read_bytes()[0] == 0x70  # load 0

    def test_other_isa(self, tmp_path, capsys):
        path = tmp_path / "p.asm"
        path.write_text("movi r1, 3\nout r1\nhalt\n")
        assert main(["asm", str(path), "--isa", "loadstore"]) == 0


class TestDis:
    def test_disassemble(self, source_file, tmp_path, capsys):
        image = tmp_path / "echo.bin"
        main(["asm", source_file, "-o", str(image)])
        capsys.readouterr()
        assert main(["dis", str(image)]) == 0
        out = capsys.readouterr().out
        assert "addi 1" in out


class TestRun:
    def test_run_with_inputs(self, source_file, capsys):
        assert main(["run", source_file, "--inputs", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "0x2 0x3 0x4" in out
        assert "input_exhausted" in out


class TestSuiteCommands:
    def test_kernels(self, capsys):
        assert main(["kernels", "--transactions", "3"]) == 0
        out = capsys.readouterr().out
        assert "XorShift8" in out
        assert "OK" in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table6"]) == 0
        assert "Table 6" in capsys.readouterr().out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "table99"]) == 2

    def test_report(self, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "-o", str(output)]) == 0
        assert output.exists()


class TestHardwareCommands:
    def test_isa_reference(self, capsys):
        assert main(["isa", "extacc"]) == 0
        out = capsys.readouterr().out
        assert "adc" in out and "barrel shifter" in out

    def test_verilog_export(self, tmp_path, capsys):
        output = tmp_path / "core.v"
        assert main(["verilog", "flexicore8", "-o", str(output)]) == 0
        assert "module flexicore8" in output.read_text()

    def test_verilog_exports_flexicore4plus(self, capsys):
        # The names are the registered cores', as for `repro floorplan`.
        assert main(["verilog", "flexicore4plus"]) == 0
        assert "module flexicore4plus (" in capsys.readouterr().out

    def test_verilog_unknown_core(self, capsys):
        assert main(["verilog", "pentium"]) == 2

    def test_pareto(self, capsys):
        assert main(["pareto"]) == 0
        assert "Pareto" in capsys.readouterr().out

    def test_trace(self, tmp_path, capsys):
        path = tmp_path / "t.asm"
        path.write_text("load 0\nstore 1\nnandi 0\nbrn 0\n")
        assert main(["trace", str(path), "--inputs", "7",
                     "--max-cycles", "8"]) == 0
        out = capsys.readouterr().out
        assert "load 0" in out and "OPORT" in out


class TestErrorPaths:
    """User errors exit nonzero with one line on stderr, never a
    traceback."""

    def test_unknown_isa_name(self, capsys):
        assert main(["isa", "pentium4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_core_name(self, capsys):
        assert main(["kernels", "--isa", "nosuchcore"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nosuchcore" in err

    def test_malformed_program_file(self, tmp_path, capsys):
        path = tmp_path / "bad.asm"
        path.write_text("definitely_not_an_instruction 99\n")
        assert main(["asm", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown mnemonic" in err
        assert len(err.strip().splitlines()) == 1

    def test_undefined_label_in_run(self, tmp_path, capsys):
        path = tmp_path / "label.asm"
        path.write_text("load 0\nbrn nowhere\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_program_file(self, capsys):
        assert main(["run", "/nonexistent/prog.asm"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["yield"], ["dse"], ["dse", "search"], ["pareto"],
        ["conform", "run"],
    ], ids="-".join)
    def test_backend_flag_is_gone(self, capsys, command):
        # The lane count picks the gate-level simulator; no command
        # takes a flag for it.
        with pytest.raises(SystemExit) as info:
            main(command + ["--backend=vector"])
        assert info.value.code == 2
        assert "unrecognized arguments: --backend=vector" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["yield", "--executor", "socket"],
         "unrecognized arguments: --executor socket"),
        # dse takes a subcommand, so the stray value is read as one.
        (["dse", "--executor", "socket"],
         "invalid choice: 'socket'"),
        (["dse", "search", "--executor", "socket"],
         "unrecognized arguments: --executor socket"),
        (["pareto", "--executor", "socket"],
         "unrecognized arguments: --executor socket"),
        (["experiments", "table5", "--executor", "socket"],
         "unrecognized arguments: --executor socket"),
        (["report", "--executor", "socket"],
         "unrecognized arguments: --executor socket"),
        (["conform", "run", "--executor", "socket"],
         "unrecognized arguments: --executor socket"),
        (["worker", "join", "127.0.0.1:1"],
         "invalid choice: 'worker'"),
    ], ids=["yield", "dse", "dse-search", "pareto", "experiments",
            "report", "conform-run", "worker-join"])
    def test_socket_cluster_is_gone(self, capsys, argv, message):
        # The engine runs on a local process pool only: no command
        # selects an executor, and there is no worker to join.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["yield", "--no-cache", "--wafers", "0"],
         "--wafers: wafers: 0 < 1"),
        (["yield", "--no-cache", "--wafers", "-1"],
         "--wafers: wafers: -1 < 1"),
        (["yield", "--no-cache", "--fault-check", "-5"],
         "--fault-check: fault_check: -5 < 0"),
        (["kernels", "--transactions", "0"],
         "--transactions: transactions: 0 < 1"),
        (["kernels", "--transactions", "-3"],
         "--transactions: transactions: -3 < 1"),
        (["serve", "--max-queued", "-3"],
         "--max-queued: max_queued: -3 < 0"),
    ], ids=["wafers=0", "wafers=-1", "fault-check=-5",
            "kernels-transactions=0", "kernels-transactions=-3",
            "serve-max-queued=-3"])
    def test_yield_rejects_nonsense_counts(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_closed_stdout_pipe_is_not_an_error(self):
        # `repro isa flexicore4 | head -1`: head closing the pipe
        # mid-write must not traceback (exit 0 under pipefail).
        import os
        import subprocess
        import sys as _sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else [])
        )
        completed = subprocess.run(
            ["bash", "-c",
             "set -o pipefail; "
             f"{_sys.executable} -m repro.cli isa flexicore4"
             " | head -c 16 > /dev/null"],
            capture_output=True, timeout=60, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert b"Traceback" not in completed.stderr


class TestEngineGcCommand:
    def _filled_cache(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path / "gc-cache")
        for index in range(3):
            cache.put("test.fn", f"{index:064x}", {"blob": "x" * 50})
        return str(cache.root)

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        root = self._filled_cache(tmp_path)
        assert main(["engine", "gc", "--cache-dir", root]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_stats_reports_bytes_on_disk(self, tmp_path, capsys):
        root = self._filled_cache(tmp_path)
        assert main(["engine", "stats", "--cache-dir", root]) == 0
        assert "bytes on disk" in capsys.readouterr().out

    def test_gc_evicts_to_budget(self, tmp_path, capsys):
        root = self._filled_cache(tmp_path)
        assert main(["engine", "gc", "--cache-dir", root,
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted  3 entries" in out
        assert main(["engine", "stats", "--cache-dir", root]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_size_suffixes(self):
        import argparse

        from repro.cli import _parse_size

        assert _parse_size("1K") == 1024
        assert _parse_size("2M") == 2 * 1024 ** 2
        assert _parse_size("1G") == 1024 ** 3
        assert _parse_size("1.5KB") == 1536
        assert _parse_size("10") == 10
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size("banana")


class TestClientCommand:
    def test_param_parsing(self):
        from repro.cli import _parse_client_params

        params = _parse_client_params([
            "wafers=2", "core=flexicore4", "voltages=[3.0, 4.5]",
            "gate_check=true",
        ])
        assert params == {
            "wafers": 2, "core": "flexicore4",
            "voltages": [3.0, 4.5], "gate_check": True,
        }
        with pytest.raises(ValueError):
            _parse_client_params(["no-equals-sign"])

    def test_client_against_live_service(self, tmp_path, capsys):
        from repro.service import ServiceConfig, start_in_thread

        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "cli-cache"),
        ))
        try:
            base = ["client", "--url", handle.base_url,
                    "--key", "dev-local-key"]
            assert main(base + ["types"]) == 0
            assert "kernel_run" in capsys.readouterr().out

            assert main(base + [
                "submit", "kernel_run",
                "--param", "kernel=Parity Check",
                "--param", "transactions=3", "--wait",
            ]) == 0
            out = capsys.readouterr().out
            assert '"status": "completed"' in out

            assert main(base + ["jobs"]) == 0
            assert "kernel_run" in capsys.readouterr().out

            assert main(base + ["status", "doesnotexist"]) == 1
            assert "error:" in capsys.readouterr().err
        finally:
            handle.stop()

    def test_client_connection_refused(self, capsys):
        assert main(["client", "--url", "http://127.0.0.1:1",
                     "--key", "k", "types"]) == 1
        assert "no service at" in capsys.readouterr().err
