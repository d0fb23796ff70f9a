"""Tests for the pinned simulated-cost suite and its exact gate (``repro bench``)."""

from __future__ import annotations

import copy
import json

import pytest

import numpy as np

from repro import bench, cli
from repro.bsp import BSPMachine
from repro.bsp.counters import CounterArray
from tests.scalar_oracle import machine_on, scalar_store


def small_suite_results():
    """A real (but tiny) suite run: one charging pass on the live store and
    one on the scalar oracle."""
    report_a = bench.charging_workload(machine_on("array", 16), 2)
    report_s = bench.charging_workload(machine_on("scalar", 16), 2)
    return report_a, report_s


class TestReportComparison:
    def test_identical_reports_have_no_mismatches(self):
        report_a, report_s = small_suite_results()
        assert bench.report_mismatches(report_a, report_s) == []

    def test_per_rank_arrays_cover_both_engines(self):
        report_a, report_s = small_suite_results()
        arrays_a = bench.per_rank_arrays(report_a)
        arrays_s = bench.per_rank_arrays(report_s)
        # one representation: the oracle's report is CounterArray-backed too
        assert isinstance(report_a.per_rank, CounterArray)
        assert isinstance(report_s.per_rank, CounterArray)
        assert set(arrays_a) == set(arrays_s)
        for name, arr in arrays_a.items():
            assert arr.shape == (16,), name
            assert np.array_equal(arr, arrays_s[name]), name

    def test_drift_is_reported_with_rank(self):
        _, report_s = small_suite_results()
        machine = BSPMachine(16)
        bench.charging_workload(machine, 2)
        machine.counters.field_array("flops")[3] += 1.0
        issues = bench.report_mismatches(machine.cost(), report_s)
        assert any("rank 3" in issue for issue in issues)
        assert any("flops" in issue for issue in issues)

    def test_p_mismatch_short_circuits(self):
        report_a, _ = small_suite_results()
        other = BSPMachine(8).cost()
        assert bench.report_mismatches(report_a, other) == ["p differs: 16 != 8"]


#: every wall-clock field a results document records
WALL_FIELDS = ("wall_s", "wall_s_runs", "rank_charges_per_s")


class TestBaselineCheck:
    def fresh(self):
        return {
            "version": 1,
            "pinned": bench.PINNED,
            "cases": {
                "charging_p512": {
                    "wall_s": 0.015,
                    "wall_s_runs": [0.014, 0.015, 0.019],
                    "rank_charges": 793600,
                    "rank_charges_per_s": 5.3e7,
                    "cost": {"flops": 100.0, "supersteps": 5},
                },
            },
        }

    def test_self_check_passes(self):
        doc = self.fresh()
        assert bench.check_against_baseline(doc, doc) == []

    def test_cost_drift_fails(self):
        doc, base = self.fresh(), self.fresh()
        base["cases"]["charging_p512"]["cost"]["flops"] = 99.0
        failures = bench.check_against_baseline(doc, base)
        assert failures == ["cases.charging_p512.cost.flops: baseline 99.0 != fresh 100.0"]

    def test_last_bit_of_one_cost_fails_naming_the_field(self):
        doc, base = self.fresh(), self.fresh()
        doc["cases"]["charging_p512"]["cost"]["flops"] = np.nextafter(100.0, 101.0)
        failures = bench.check_against_baseline(doc, base)
        assert len(failures) == 1
        assert failures == [
            "cases.charging_p512.cost.flops: baseline 100.0 != fresh 100.00000000000001"
        ]

    def test_wall_fields_are_never_compared(self):
        """Host time is gated by benchmarks/e2e, not here: a run 100x slower
        (or faster) on every wall field still passes, either way round."""
        doc, base = self.fresh(), self.fresh()
        entry = doc["cases"]["charging_p512"]
        for field in WALL_FIELDS:
            entry[field] = (np.asarray(entry[field]) * 100.0).tolist()
        assert bench.check_against_baseline(doc, base) == []
        assert bench.check_against_baseline(base, doc) == []
        # and the gate does not need them at all (pre-PR baselines carry
        # fields this code no longer writes; that is not drift either)
        for field in WALL_FIELDS:
            del entry[field]
        base["cases"]["charging_p512"]["scalar_wall_s"] = 0.150
        assert bench.check_against_baseline(doc, base) == []

    def test_pinned_mismatch_fails(self):
        doc, base = self.fresh(), copy.deepcopy(self.fresh())
        base["pinned"] = {"charging": {"p": 64, "iters": 1}}
        failures = bench.check_against_baseline(doc, base)
        assert failures and "pinned" in failures[0]

    def test_missing_case_fails(self):
        doc, base = self.fresh(), self.fresh()
        base["cases"] = {}
        failures = bench.check_against_baseline(doc, base)
        assert any("missing from baseline" in f for f in failures)

    def test_case_dropped_from_the_run_fails(self):
        """Regression: the gate iterated the fresh document only, so a case
        removed from ``CASES`` passed silently."""
        doc, base = self.fresh(), self.fresh()
        base["cases"]["eig_n96_p16"] = {"wall_s": 0.2, "cost": {"flops": 1.0}}
        failures = bench.check_against_baseline(doc, base)
        assert failures == ["cases.eig_n96_p16: in the baseline but missing from this run"]

    def test_cost_field_dropped_from_the_run_fails(self):
        doc, base = self.fresh(), self.fresh()
        del doc["cases"]["charging_p512"]["cost"]["supersteps"]
        failures = bench.check_against_baseline(doc, base)
        assert failures == [
            "cases.charging_p512.cost.supersteps: in the baseline but missing from this run"
        ]


class TestExactDiff:
    """The one leaf differ behind the four ``--check`` gates."""

    def test_equal_documents(self):
        doc = {"a": [1, 2.5, {"b": None}], "c": "x"}
        assert bench.exact_diff(doc, copy.deepcopy(doc)) == []
        # a fresh in-process document may hold tuples where JSON gave lists
        assert bench.exact_diff({"pairs": [(0, 1, 2.0)]}, {"pairs": [[0, 1, 2.0]]}) == []

    def test_names_the_json_path_of_every_leaf(self):
        base = {"attainment": [{"ratio": {"words": 14.8}}, {"ratio": {"words": 2.0}}],
                "comm": {"words_matrix": [[0.0, 1.0], [2.0, 3.0]]}}
        fresh = copy.deepcopy(base)
        fresh["attainment"][1]["ratio"]["words"] = 1.0
        fresh["comm"]["words_matrix"][1][0] = 1002.0
        assert bench.exact_diff(fresh, base) == [
            "attainment[1].ratio.words: baseline 2.0 != fresh 1.0",
            "comm.words_matrix[1][0]: baseline 2.0 != fresh 1002.0",
        ]

    def test_both_directions_and_the_last_bit(self):
        assert bench.exact_diff({"a": 1}, {"a": 1, "b": 2}) == [
            "b: in the baseline but missing from this run"
        ]
        assert bench.exact_diff({"a": 1, "b": 2}, {"a": 1}) == ["b: missing from baseline"]
        assert bench.exact_diff({"a": [1, 2]}, {"a": [1]}) == [
            "a: baseline has 1 entries != fresh 2"
        ]
        up = float(np.nextafter(1.0, 2.0))
        assert bench.exact_diff({"a": up}, {"a": 1.0}) == [f"a: baseline 1.0 != fresh {up!r}"]

    def test_a_changed_container_does_not_dump_its_contents(self):
        (line,) = bench.exact_diff({"a": list(range(1000))}, {"a": "scalar"})
        assert len(line) < 200 and line.startswith("a: baseline 'scalar' != fresh [0, 1, 2")


class TestDocumentIO:
    """One loader / one writer for the four gated documents."""

    def test_round_trip_is_exact(self, tmp_path):
        doc = {"x": [0.1 + 0.2, 1e-300, 3], "nested": {"k": None}}
        path = bench.write_document(doc, tmp_path / "deep" / "doc.json")
        assert bench.load_document(path, "doc", "cmd --out") == doc
        assert path.read_text().endswith("\n")

    def test_invalid_json_is_a_bench_error_naming_the_fix(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(bench.BenchError, match="not valid JSON.*regenerate it with `cmd --out"):
            bench.load_document(bad, "doc", "cmd --out")

    def test_unreadable_file_is_a_bench_error(self, tmp_path, monkeypatch):
        path = bench.write_document({}, tmp_path / "doc.json")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(type(path), "read_text", denied)
        with pytest.raises(bench.BenchError, match="doc .*doc.json is unreadable"):
            bench.load_document(path, "doc", "cmd --out")


class TestSuite:
    def test_suite_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            bench.run_suite(repeats=0)

    def test_charging_rank_charges_formula(self):
        assert bench._charging_rank_charges(512, 100) == int(100 * 15.5 * 512)

    def test_committed_baseline_matches_pinned_suite(self):
        """The checked-in BENCH_engine.json was produced by *this* suite."""
        from pathlib import Path

        baseline_path = Path(__file__).resolve().parents[1] / bench.BASELINE_NAME
        doc = bench.load_document(baseline_path, "benchmark baseline", "repro bench --out")
        assert doc["pinned"] == bench.PINNED
        assert set(doc["cases"]) == set(bench.CASES) | {"scaling_exponents"}
        large = doc["cases"]["eig_n512_p256"]["cost"]
        assert large["p"] == 256
        scaling = doc["cases"]["scaling_exponents"]["cost"]
        assert abs(scaling["W_exponent"] - 1.0) <= bench.W_EXPONENT_TOL
        assert scaling["S_exponent"] <= 1.0 + bench.S_EXPONENT_SLACK

    def test_load_baseline_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no benchmark baseline at .*nope.json; "
                           "create one with `repro bench --out .*nope.json`"):
            bench.load_document(tmp_path / "nope.json", "benchmark baseline", "repro bench --out")

    def test_unpinned_cases_are_skipped(self, monkeypatch):
        """PINNED is the source of truth: dropping a case's inputs drops the
        case (how tests and ad-hoc runs shrink the suite)."""
        monkeypatch.setattr(bench, "PINNED", {"charging": {"p": 8, "iters": 2}})
        results = bench.run_suite(repeats=1, log=lambda _msg: None)
        assert set(results["cases"]) == {"charging_p512"}


class TestScalingSuite:
    def test_scaling_bandwidth_is_even_and_floored(self):
        assert bench.scaling_bandwidth(512, 256, 2.0 / 3.0) % 2 == 0
        assert bench.scaling_bandwidth(8, 4096, 0.9) == 4  # floor engages
        # b approximates n/p^delta
        n, p, delta = 384, 32, 2.0 / 3.0
        assert abs(bench.scaling_bandwidth(n, p, delta) - n / p**delta) <= 1.0

    def test_closed_forms_match_lemma(self):
        w, s = bench.lemma_iv3_closed_forms(n=256, p=16, b=32, k=2, delta=0.5)
        assert w == pytest.approx(256**1.5 * 32**0.5 / 16**0.5)
        assert s == pytest.approx(2**0.5 * 256**0.5 * 16**0.5 / 32**0.5 * 4.0)

    def test_fit_recovers_exact_power_law(self):
        closed = [10.0, 100.0, 1000.0, 5000.0]
        assert bench.fit_loglog_slope(closed, [3.0 * c for c in closed]) == pytest.approx(1.0)
        assert bench.fit_loglog_slope(closed, [c**0.7 for c in closed]) == pytest.approx(0.7)

    def test_scaling_point_engines_identical(self):
        ra, _ = bench.run_scaling_point(64, 8, 2.0 / 3.0)
        with scalar_store():  # the point builds its own machine
            rs, _ = bench.run_scaling_point(64, 8, 2.0 / 3.0)
        assert bench.report_mismatches(ra, rs) == []

    def test_scaling_case_gates_exponents(self, monkeypatch):
        """A tiny grid still fits W with unit slope; a sabotaged tolerance
        turns the same measurements into a BenchError."""
        small = dict(bench.PINNED)
        small["scaling"] = {
            "k": 2,
            "seed": 3,
            "grid": [
                [96, 8, 2.0 / 3.0],
                [192, 8, 2.0 / 3.0],
                [128, 16, 2.0 / 3.0],
                [256, 16, 2.0 / 3.0],
            ],
        }
        monkeypatch.setattr(bench, "PINNED", small)
        entry = bench.run_scaling_case(repeats=1)
        assert abs(entry["cost"]["W_exponent"] - 1.0) <= bench.W_EXPONENT_TOL
        assert entry["cost"]["S_exponent"] <= 1.0 + bench.S_EXPONENT_SLACK
        assert len(entry["cost"]["W_measured"]) == 4
        monkeypatch.setattr(bench, "W_EXPONENT_TOL", 0.0)
        with pytest.raises(bench.BenchError, match="fitted W exponent"):
            bench.run_scaling_case(repeats=1)


class TestCLI:
    def test_bench_writes_and_checks(self, tmp_path, capsys, monkeypatch):
        # Shrink the pinned suite so the CLI round-trip stays fast; the
        # full pinned sizes run in CI (`repro bench --check`).
        small = {
            "charging": {"p": 32, "iters": 3},
            "eig": {"n": 24, "p": 4, "delta": 2.0 / 3.0, "seed": 3},
        }
        monkeypatch.setattr(bench, "PINNED", small)
        out = tmp_path / "fresh.json"
        baseline = tmp_path / "base.json"
        assert cli.main(["bench", "--repeats", "1", "--out", str(baseline)]) == 0
        assert (
            cli.main(
                ["bench", "--repeats", "1", "--out", str(out), "--check", str(baseline)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "baseline check passed" in captured.out
        assert "re-timing" not in captured.out + captured.err
        doc = json.loads(out.read_text())
        assert set(doc["cases"]) == {"charging_p512", "eig_n96_p16"}

    def test_bench_check_fails_on_drift(self, tmp_path, capsys, monkeypatch):
        small = {
            "charging": {"p": 32, "iters": 3},
            "eig": {"n": 24, "p": 4, "delta": 2.0 / 3.0, "seed": 3},
        }
        monkeypatch.setattr(bench, "PINNED", small)
        baseline = tmp_path / "base.json"
        assert cli.main(["bench", "--repeats", "1", "--out", str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        doc["cases"]["charging_p512"]["cost"]["flops"] += 1.0
        baseline.write_text(json.dumps(doc))
        out = tmp_path / "fresh.json"
        assert (
            cli.main(
                ["bench", "--repeats", "1", "--out", str(out), "--check", str(baseline)]
            )
            == 1
        )
        assert "cases.charging_p512.cost.flops: baseline 238.0 != fresh 237.0" in capsys.readouterr().err

    def test_bench_check_missing_baseline(self, tmp_path, capsys):
        # a missing baseline is a configuration error: exit 2 naming the
        # expected file, *before* the suite spends time running
        out = tmp_path / "fresh.json"
        missing = tmp_path / "gone.json"
        assert (
            cli.main(["bench", "--repeats", "1", "--out", str(out), "--check", str(missing)])
            == 2
        )
        err = capsys.readouterr().err
        assert "no benchmark baseline" in err and "gone.json" in err
        assert not out.exists()  # failed fast: the suite never ran
