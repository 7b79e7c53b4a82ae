"""Tests for the command-line interface (cheap commands only)."""

import subprocess
import sys
import types

import pytest

from repro import cli
from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICDE 1999" in out
        assert "disk model" in out

    def test_spec(self, capsys):
        assert main(["spec"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 3" in out
        assert "Table 5" in out
        assert "[32:59,28:42,28:35]" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["paint"])

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "reproduction" in result.stdout


class TestExplainWhere:
    def test_explain_with_predicate(self, capsys):
        assert main(["explain", "a", "--where", "> 900"]) == 0
        out = capsys.readouterr().out
        assert "prune" in out
        assert "pruned" in out
        assert "synopsis-answered" in out

    def test_explain_rejects_bad_predicate(self, capsys):
        assert main(["explain", "a", "--where", "between 1 and 2"]) == 2
        err = capsys.readouterr().err
        assert "cannot parse cell predicate" in err

    def test_no_pushdown_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["explain", "e", "--agg", "add_cells", "--no-pushdown"])
        assert raised.value.code == 2
        assert "--no-pushdown" in capsys.readouterr().err


class TestBench:
    def test_pipeline_prints_every_identity_verdict(self, capsys, monkeypatch):
        from repro.bench import pipeline

        reports = []
        real = pipeline.run_pipeline_bench

        def spy(**kwargs):
            reports.append(real(**kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "run_pipeline_bench", spy)
        code = main(["bench", "pipeline", "--runs", "1", "--no-artifacts"])
        out = capsys.readouterr().out
        assert "\nverdicts:\n" in out
        assert "performance" not in out and "wrote" not in out
        (report,) = reports
        identity = dict(report["identity"])
        for name, value in identity.items():
            assert f"  {name}: {value}\n" in out
        # One verdict compares wall clocks, and a single run on a busy
        # machine can lose it; the exit code must follow it either way.
        timed = identity.pop("warm_faster_than_serial_cold")
        assert identity and not any(v is False for v in identity.values())
        assert code == (0 if timed else 1)

    def test_failed_verdict_exits_one(self, capsys, monkeypatch):
        stub = types.ModuleType("stub_bench")
        stub.comparison_table = lambda report: "stub table"
        stub.run_stub_bench = lambda runs, artifact_dir: {
            "identity": {"holds": True, "broken": False, "tiles": 0},
            "performance": {"speedup": 1.5, "tiles": 3},
        }
        monkeypatch.setitem(sys.modules, "stub_bench", stub)
        monkeypatch.setitem(
            cli._BENCHES,
            "prune",
            cli._BENCHES["prune"]._replace(
                module="stub_bench", run="run_stub_bench"
            ),
        )
        assert main(["bench", "prune", "--no-artifacts"]) == 1
        assert capsys.readouterr().out == (
            "stub table\n\nidentity verdicts:\n"
            "  holds: True\n  broken: False\n  tiles: 0\n"
            "performance (not gated):\n  speedup: 1.50\n  tiles: 3\n"
        )
        stub.run_stub_bench = lambda runs, artifact_dir: {
            "identity": {"holds": True, "tiles": 0},
            "performance": {},
        }
        assert main(["bench", "prune", "--no-artifacts"]) == 0

    def test_unknown_mode_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bench", "paint"])
        assert raised.value.code == 2
        assert "invalid choice: 'paint'" in capsys.readouterr().err

    def test_help_lists_every_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for mode in cli._BENCHES:
            assert f"{mode}: " in out
