"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSolve:
    def test_solve_small(self, capsys):
        rc = main(["solve", "--n", "48", "--p", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max |lambda - numpy|" in out
        assert "full_to_band" in out

    def test_solve_delta_flag(self, capsys):
        rc = main(["solve", "--n", "48", "--p", "16", "--delta", "0.5"])
        assert rc == 0
        assert "c=1" in capsys.readouterr().out


class TestTable1:
    def test_prints_symbolic_and_numeric(self, capsys):
        rc = main(["table1", "--n", "4096", "--p", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Theorem IV.4" in out
        assert "n^2/p^delta" in out
        assert "evaluated at n=4096" in out


class TestFigures:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "recursive step" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "(3,1)" in out and "(1,6)" in out


class TestTune:
    def test_tune_default(self, capsys):
        rc = main(["tune", "--n", "8192", "--p", "512"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best delta" in out

    def test_tune_infeasible_memory(self, capsys):
        rc = main(["tune", "--n", "100000", "--p", "4", "--memory", "10"])
        assert rc == 1
        assert "no feasible delta" in capsys.readouterr().err

    def test_tune_latency_bound_picks_half(self, capsys):
        rc = main(["tune", "--n", "8192", "--p", "512", "--beta", "0.001", "--alpha", "1e9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best delta = 0.5000" in out


class TestTrace:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "--n", "32", "--p", "4", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "critical-path breakdown" in stdout
        assert "bit-exact" in stdout
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs and all(e["dur"] >= 0 for e in xs)
        assert doc["otherData"]["p"] == 4

    def test_trace_scalar_engine_matches(self, tmp_path, capsys):
        """The same breakdown and trace file, byte for byte, when the command's
        machine counts on the scalar oracle (the CLI has no engine switch)."""
        from tests.scalar_oracle import scalar_store

        argv = ["trace", "--n", "32", "--p", "4", "--out", str(tmp_path / "t.json")]
        assert main(argv) == 0
        array_run = capsys.readouterr().out, (tmp_path / "t.json").read_bytes()
        with scalar_store():
            assert main(argv) == 0
        assert (capsys.readouterr().out, (tmp_path / "t.json").read_bytes()) == array_run

    def test_trace_per_rank_writes_second_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "--n", "32", "--p", "4", "--per-rank", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "rank tracks" in stdout
        per_rank = tmp_path / "trace.per_rank.json"
        doc = json.loads(per_rank.read_text())
        meta = [e for e in doc["traceEvents"]
                if e.get("ph") == "M" and e.get("name") == "thread_name"]
        assert len(meta) >= 4
        assert "heatmap" in doc["otherData"]

    def test_trace_without_per_rank_writes_one_file(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--n", "32", "--p", "4", "--out", str(out)]) == 0
        assert out.exists()
        assert not (tmp_path / "trace.per_rank.json").exists()


class TestMetrics:
    def test_metrics_writes_doc(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        rc = main(["metrics", "--n", "48", "--p", "8", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "per-rank metrics" in stdout
        assert "conservation: OK" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.metrics/1"
        assert doc["conservation"]["problems"] == []

    def test_metrics_check_roundtrip(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["metrics", "--n", "48", "--p", "8", "--out", str(base)]) == 0
        rc = main(["metrics", "--n", "48", "--p", "8",
                   "--out", str(tmp_path / "fresh.json"), "--check", str(base)])
        assert rc == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_metrics_check_missing_baseline(self, tmp_path, capsys):
        # configuration error, not a metrics failure: exit 2 naming the file
        rc = main(["metrics", "--n", "48", "--p", "8",
                   "--out", str(tmp_path / "m.json"),
                   "--check", str(tmp_path / "nope.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no metrics baseline" in err and "nope.json" in err

    def test_metrics_check_flags_config_drift(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["metrics", "--n", "48", "--p", "8", "--out", str(base)]) == 0
        rc = main(["metrics", "--n", "48", "--p", "8", "--seed", "4",
                   "--out", str(tmp_path / "fresh.json"), "--check", str(base)])
        assert rc == 1
        assert "config mismatch" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestInvalidConfigs:
    """Invalid n/p/delta exit 2 with a one-line diagnostic, not a traceback."""

    def test_n_smaller_than_p(self, capsys):
        rc = main(["solve", "--n", "8", "--p", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "n >= p" in err

    def test_nonpositive_p(self, capsys):
        rc = main(["solve", "--n", "48", "--p", "0"])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err

    def test_delta_out_of_range(self, capsys):
        rc = main(["solve", "--n", "48", "--p", "4", "--delta", "0.9"])
        assert rc == 2
        assert "delta" in capsys.readouterr().err

    def test_trace_validates_too(self, capsys):
        rc = main(["trace", "--n", "8", "--p", "16"])
        assert rc == 2
        assert "repro: error:" in capsys.readouterr().err


class TestSolveFaults:
    def test_clean_scenario_prints_plan_summary(self, capsys):
        rc = main(["solve", "--n", "32", "--p", "4", "--faults", "clean"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FaultPlan('clean', seed=0): 0 draws, 0 events" in out

    def test_unknown_scenario_exits_2(self, capsys):
        rc = main(["solve", "--n", "32", "--p", "4", "--faults", "nonsense"])
        assert rc == 2
        assert "unknown fault scenario" in capsys.readouterr().err

    def test_injected_scenario_reports_events(self, capsys):
        rc = main(["solve", "--n", "32", "--p", "4",
                   "--faults", "message-drop:2"])
        out = capsys.readouterr().out
        assert rc == 0  # drops are healed by charged retransmission
        assert "FaultPlan('message-drop', seed=2)" in out
