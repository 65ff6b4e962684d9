"""Tests for the ``potemkin`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestDemo:
    def test_demo_runs_and_prints_summary(self, capsys):
        assert main(["demo", "--duration", "30", "--scan-rate", "20"]) == 0
        out = capsys.readouterr().out
        assert "outbreak demo" in out
        assert "escaped packets" in out
        assert "infections" in out

    def test_demo_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["demo", "--containment", "bogus"])

    def test_demo_with_drop_all(self, capsys):
        assert main(["demo", "--duration", "20", "--containment", "drop-all"]) == 0
        assert "drop-all" in capsys.readouterr().out


class TestTelescope:
    def test_generates_trace_file(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main([
            "telescope", "--duration", "30", "--prefix", "10.16.0.0/18",
            "--output", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_default_prefix_applied(self, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        assert main(["telescope", "--duration", "5",
                     "--output", str(out_path)]) == 0


class TestConcurrency:
    def test_sweep_over_generated_trace(self, capsys):
        assert main(["concurrency", "--duration", "20",
                     "--prefix", "10.16.0.0/18"]) == 0
        out = capsys.readouterr().out
        assert "idle timeout" in out
        assert "peak VMs" in out

    def test_sweep_over_trace_file(self, tmp_path, capsys):
        """A JSONL round trip changes nothing the analysis sees: the table
        read back from the file is the generator's own for that seed."""
        out_path = tmp_path / "trace.jsonl"
        trace = ["--duration", "30", "--prefix", "10.16.0.0/18", "--seed", "9"]
        timeouts = ["--timeout", "5", "--timeout", "60"]
        main(["telescope", *trace, "--output", str(out_path)])
        capsys.readouterr()
        assert main(["concurrency", "--trace", str(out_path), *timeouts]) == 0
        from_file = capsys.readouterr().out
        assert from_file.count("\n") >= 5  # title + header + rule + 2 rows
        assert main(["concurrency", *trace, *timeouts]) == 0
        assert capsys.readouterr().out == from_file

    def test_custom_timeouts_respected(self, capsys):
        main(["concurrency", "--duration", "10", "--prefix", "10.16.0.0/20",
              "--timeout", "7"])
        out = capsys.readouterr().out
        assert "7" in out


class TestFederation:
    def test_parallel_run_reports_and_conserves(self, capsys):
        assert main(["federation", "--shards", "2", "--workers", "2",
                     "--duration", "6", "--max-packets", "150"]) == 0
        out = capsys.readouterr().out
        assert "Per-shard outcome" in out
        assert "packet conservation holds" in out
        assert "10.16.0.64/26" in out

    def test_reference_lane(self, capsys):
        assert main(["federation", "--shards", "2", "--workers", "0",
                     "--duration", "6", "--max-packets", "150"]) == 0
        out = capsys.readouterr().out
        assert "in-process reference" in out
        assert "packet conservation holds" in out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("demo", "telescope", "concurrency", "federation"):
            args = parser.parse_args([command] if command == "demo" else [command])
            assert args.command == command
