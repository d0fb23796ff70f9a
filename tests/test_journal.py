"""Tests for the crash-safe job journal (``repro.serve.journal``).

Covers the WAL file format (header binding, idempotent appends, torn-tail
tolerance, mid-file corruption rejection), the service integration
(resume replays memoized attempts without recompute), and the satellite
crash/resume harness: a subprocess hard-killed mid-workload resumes
against its journal to a byte-identical report.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.serve import EigenService, MachinePool, TuningCache
from repro.serve import bench as serve_bench
from repro.serve.journal import (
    CRASH_AFTER_ENV,
    CRASH_EXIT_CODE,
    JOURNAL_VERSION,
    JobJournal,
    JournalError,
    JournalMismatch,
    read_journal,
)
from repro.serve.workload import mixed_workload

PARAMS = serve_bench.SERVE_PARAMS


def small_workload(jobs=10, seed=5):
    return mixed_workload(
        total_jobs=jobs, seed=seed, scf_iterations=1, kpoint_sizes=(12, 16)
    )


# ------------------------------------------------------------------ #
# the WAL format


class TestJournalFile:
    def test_fresh_journal_writes_header_and_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as j:
            j.open("fp-1", jobs=2)
            j.record_submitted(0, {"n": 12})
            j.record_attempt("k0", {"ok": True, "eigenvalues": [1.0, 2.0]})
            j.record_terminal(0, {"disposition": "ok"})
        lines = [json.loads(s) for s in path.read_text().splitlines() if s]
        assert [d["kind"] for d in lines] == [
            "header", "submitted", "attempt", "terminal",
        ]
        assert lines[0]["version"] == JOURNAL_VERSION
        assert lines[0]["fingerprint"] == "fp-1"
        doc = read_journal(path)
        assert doc["submitted"] == 1 and doc["terminals"] == 1
        assert doc["attempts"] == 1 and not doc["torn_tail"]
        assert doc["missing_terminals"] == []
        assert doc["dispositions"] == {"ok": 1}

    def test_appends_are_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as j:
            j.open("fp-1", jobs=1)
            for _ in range(3):
                j.record_submitted(0, {"n": 12})
                j.record_attempt("k0", {"ok": True})
                j.record_terminal(0, {"disposition": "ok"})
        assert read_journal(path)["records"] == 4  # header + one of each

    def test_reopen_replays_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as j:
            j.open("fp-1", jobs=2)
            j.record_submitted(0, {"n": 12})
            j.record_submitted(1, {"n": 16})
            j.record_attempt("k0", {"ok": True, "eigenvalues": [0.5]})
            j.record_terminal(0, {"disposition": "ok"})
        with JobJournal(path) as j2:
            j2.open("fp-1", jobs=2)
            assert set(j2.submitted) == {0, 1}
            assert j2.attempts["k0"]["eigenvalues"] == [0.5]
            assert j2.missing_terminals() == [1]
            j2.record_terminal(1, {"disposition": "error"})
            assert j2.missing_terminals() == []

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as j:
            j.open("fp-1", jobs=1)
        with JobJournal(path) as j2:
            with pytest.raises(JournalMismatch, match="different run"):
                j2.open("fp-OTHER", jobs=1)

    def test_version_mismatch_refuses_to_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {"kind": "header", "version": "repro.serve.journal/0",
                  "fingerprint": "fp-1", "jobs": 1}
        path.write_text(json.dumps(header) + "\n")
        with JobJournal(path) as j:
            with pytest.raises(JournalMismatch, match="version"):
                j.open("fp-1", jobs=1)

    def test_torn_tail_is_dropped_and_writes_continue_cleanly(self, tmp_path):
        # a crash mid-append leaves a last segment with no newline: cut
        # mid-record, or after a complete record but before its "\n"
        complete = json.dumps({"kind": "attempt", "key": "k0", "outcome": {}})
        tails = ('{"kind": "attempt", "key": "k0", "outco', complete)
        for i, tail in enumerate(tails):
            for appends in (1, 2):  # records written after the resume
                path = tmp_path / f"j{i}-{appends}.jsonl"
                with JobJournal(path) as j:
                    j.open("fp-1", jobs=2)
                    j.record_submitted(0, {"n": 12})
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(tail)
                assert read_journal(path)["torn_tail"] is True
                with JobJournal(path) as j2:
                    j2.open("fp-1", jobs=2)
                    assert j2.torn_tail and set(j2.submitted) == {0}
                    assert j2.attempts == {}  # the torn attempt never happened
                    j2.record_terminal(0, {"disposition": "ok"})
                    if appends == 2:
                        j2.record_submitted(1, {"n": 16})
                # the post-crash file parses cleanly end to end, and the
                # next resume keeps every record appended after the crash
                doc = read_journal(path)
                assert not doc["torn_tail"] and doc["terminals"] == 1
                assert doc["missing_terminals"] == list(range(1, appends))
                with JobJournal(path) as j3:
                    j3.open("fp-1", jobs=2)
                    assert not j3.torn_tail and set(j3.terminals) == {0}
                    assert set(j3.submitted) == set(range(appends))

    def test_mid_file_corruption_is_an_error_not_a_crash_residue(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as j:
            j.open("fp-1", jobs=1)
            j.record_submitted(0, {"n": 12})
            j.record_terminal(0, {"disposition": "ok"})
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a record that is NOT the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corruption"):
            read_journal(path)
        with JobJournal(path) as j2:
            with pytest.raises(JournalError, match="corruption"):
                j2.open("fp-1", jobs=1)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "submitted", "job_id": 0}\n')
        with JobJournal(path) as j:
            with pytest.raises(JournalError, match="header"):
                j.open("fp-1", jobs=1)

    def test_crash_after_env_hard_kills_the_process(self, tmp_path):
        path = tmp_path / "j.jsonl"
        code = (
            "from repro.serve.journal import JobJournal\n"
            f"j = JobJournal({str(path)!r})\n"
            "j.open('fp-1', jobs=9)\n"
            "for i in range(9):\n"
            "    j.record_submitted(i, {'n': 12})\n"
            "print('unreachable')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={
                "PYTHONPATH": "src",
                CRASH_AFTER_ENV: "4",
                "PATH": "/usr/bin:/bin",
            },
            cwd="/root/repo",
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert "unreachable" not in proc.stdout
        doc = read_journal(path)
        assert doc["records"] == 4  # header + 3 submits, then the kill
        assert doc["submitted"] == 3


# ------------------------------------------------------------------ #
# service integration: resume without recompute


class TestServiceJournal:
    def test_journaled_run_matches_unjournaled_run(self, tmp_path):
        workload = small_workload()
        plain = EigenService(
            MachinePool(2, 8, PARAMS), TuningCache()
        ).run_workload(workload)
        journaled = EigenService(
            MachinePool(2, 8, PARAMS), TuningCache(),
            journal=tmp_path / "j.jsonl",
        ).run_workload(workload)
        assert serve_bench.deterministic_summary(
            plain.summary()
        ) == serve_bench.deterministic_summary(journaled.summary())

    def test_completed_journal_replays_with_zero_new_attempts(self, tmp_path):
        workload = small_workload()
        path = tmp_path / "j.jsonl"
        first = EigenService(
            MachinePool(2, 8, PARAMS), TuningCache(), journal=path
        ).run_workload(workload)
        attempts_after_first = read_journal(path)["attempts"]
        second = EigenService(
            MachinePool(2, 8, PARAMS), TuningCache(), journal=path
        ).run_workload(workload)
        # replay pre-seeded the memo: no new attempt records were written
        assert read_journal(path)["attempts"] == attempts_after_first
        assert serve_bench.deterministic_summary(
            first.summary()
        ) == serve_bench.deterministic_summary(second.summary())
        for a, b in zip(first.results, second.results):
            assert a.eigenvalues is None or (a.eigenvalues == b.eigenvalues).all()

    def test_no_job_lost_recorded_in_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        EigenService(
            MachinePool(2, 8, PARAMS), TuningCache(),
            scenario="poison-job", journal=path,
        ).run_workload(small_workload(jobs=12, seed=7))
        doc = read_journal(path)
        assert doc["submitted"] == 12
        assert doc["missing_terminals"] == []
        assert set(doc["dispositions"]) <= {"ok", "degraded", "shed", "error"}

    def test_workload_change_invalidates_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        EigenService(
            MachinePool(2, 8, PARAMS), TuningCache(), journal=path
        ).run_workload(small_workload(seed=5))
        with pytest.raises(JournalMismatch):
            EigenService(
                MachinePool(2, 8, PARAMS), TuningCache(), journal=path
            ).run_workload(small_workload(seed=6))


# ------------------------------------------------------------------ #
# satellite: crash mid-workload, resume byte-identical


class TestCrashResume:
    def test_killed_service_resumes_byte_identical(self, tmp_path):
        doc = serve_bench.run_crash_resume(
            jobs=10, seed=5, journal_path=tmp_path / "crash.jsonl",
            log=lambda *_: None,
        )
        assert doc["crash_exit"] == CRASH_EXIT_CODE
        # the crash left work behind: some jobs had no terminal record
        assert doc["journal_at_crash"]["missing_terminals"] != []
        # ... and the resumed run finished all of them
        assert doc["journal"]["missing_terminals"] == []
        assert doc["resumed_summary_identical"] is True
        assert doc["resumed_spectra_identical"] is True
        assert doc["no_job_lost"] is True
        assert doc["silent_wrong"] == []
        assert doc["deterministic"] is True

    def test_soak_crash_scenario_delegates_to_crash_resume(self, tmp_path):
        doc = serve_bench.run_soak(
            jobs=10, seed=5, scenario="crash",
            journal_path=tmp_path / "soak.jsonl", log=lambda *_: None,
        )
        assert doc["scenario"] == "crash"
        assert doc["no_job_lost"] is True and doc["deterministic"] is True
