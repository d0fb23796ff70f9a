"""Tests for the crash-safe job journal (``repro.serve.journal``).

Covers the WAL file format (header binding, idempotent appends, torn-tail
tolerance including a torn header, mid-file corruption rejection, and a
property over every byte cut of a random journal), the service
integration (resume replays memoized attempts without recompute), and the
soak's crash sweep: a resume from every prefix of the soak's journal
reproduces the uninterrupted run and solves only what the prefix lacks.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.service as service_mod
from repro.serve import EigenService, MachinePool, TuningCache
from repro.serve import bench as serve_bench
from repro.serve.journal import (
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


#: a random sequence of ``record_*`` calls: (kind, job id / key index)
RECORD_CALLS = st.lists(
    st.tuples(st.sampled_from(["submitted", "attempt", "terminal"]), st.integers(0, 5)),
    max_size=12,
)


def apply_records(journal, calls):
    for kind, i in calls:
        if kind == "submitted":
            journal.record_submitted(i, {"n": 8 + i})
        elif kind == "attempt":
            journal.record_attempt(f"k{i}", {"ok": True, "eigenvalues": [i / 3]})
        else:
            journal.record_terminal(i, {"disposition": "ok"})


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
        # mid-record, after a complete record but before its "\n", or
        # inside the header (the crash hit the very first append)
        complete = json.dumps({"kind": "attempt", "key": "k0", "outcome": {}})
        header = json.dumps({"kind": "header", "version": JOURNAL_VERSION})
        cases = (  # (torn tail, jobs submitted before it)
            ('{"kind": "attempt", "key": "k0", "outco', {0}),
            (complete, {0}),
            (header[:25], set()),
        )
        for i, (tail, kept) in enumerate(cases):
            for appends in (1, 2):  # records written after the resume
                path = tmp_path / f"j{i}-{appends}.jsonl"
                if kept:
                    with JobJournal(path) as j:
                        j.open("fp-1", jobs=2)
                        j.record_submitted(0, {"n": 12})
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(tail)
                doc = read_journal(path)
                assert doc["torn_tail"] is True
                assert doc["records"] == (2 if kept else 0)
                with JobJournal(path) as j2:
                    j2.open("fp-1", jobs=2)
                    assert j2.torn_tail and set(j2.submitted) == kept
                    assert j2.attempts == {}  # the torn attempt never happened
                    j2.record_terminal(0, {"disposition": "ok"})
                    if appends == 2:
                        j2.record_submitted(1, {"n": 16})
                # the post-crash file parses cleanly end to end, under a
                # whole header, and the next resume keeps every record
                # appended after the crash
                doc = read_journal(path)
                assert not doc["torn_tail"] and doc["terminals"] == 1
                assert doc["fingerprint"] == "fp-1"
                assert doc["missing_terminals"] == list(range(1, appends))
                with JobJournal(path) as j3:
                    j3.open("fp-1", jobs=2)
                    assert not j3.torn_tail and set(j3.terminals) == {0}
                    assert set(j3.submitted) == kept | set(range(1, appends))

    @settings(max_examples=60, deadline=None)
    @given(calls=RECORD_CALLS, frac=st.floats(0, 1), after=RECORD_CALLS)
    def test_any_byte_cut_reopens_to_the_records_before_the_last_newline(
        self, calls, frac, after
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            with JobJournal(path) as j:
                j.open("fp-1", jobs=6)
                apply_records(j, calls)
            data = path.read_bytes()
            cut = data[: round(frac * len(data))]
            path.write_bytes(cut)
            kept = cut[: cut.rfind(b"\n") + 1]
            records = [json.loads(line) for line in kept.splitlines()[1:]]
            with JobJournal(path) as j2:
                j2.open("fp-1", jobs=6)
                assert j2.torn_tail == (kept != cut)
                assert j2.submitted == {
                    r["job_id"]: r for r in records if r["kind"] == "submitted"
                }
                assert j2.attempts == {
                    r["key"]: r["outcome"] for r in records if r["kind"] == "attempt"
                }
                assert j2.terminals == {
                    r["job_id"]: r for r in records if r["kind"] == "terminal"
                }
                # a cut inside the header restarts from a whole header
                assert path.read_bytes() == (kept or data[: data.index(b"\n") + 1])
                apply_records(j2, after)
                state = (j2.submitted, j2.attempts, j2.terminals)
            doc = read_journal(path)
            assert not doc["torn_tail"]
            assert doc["records"] == 1 + sum(map(len, state))
            with JobJournal(path) as j3:
                j3.open("fp-1", jobs=6)
                assert not j3.torn_tail
                assert (j3.submitted, j3.attempts, j3.terminals) == state

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
        assert set(doc["dispositions"]) <= {"ok", "degraded", "error"}

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
# the soak's crash sweep: resume from every prefix of its journal


class TestCrashSweep:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        """An 8-job flaky-machine soak, counting the real solves of each
        run: the reference first, then one resume per record boundary."""
        solves_per_run: list[int] = []
        solves = [0]
        execute_payload = service_mod.execute_payload
        run_workload = EigenService.run_workload

        def counting_execute(payload):
            solves[0] += 1
            return execute_payload(payload)

        def counting_run(service, workload):
            before = solves[0]
            report = run_workload(service, workload)
            solves_per_run.append(solves[0] - before)
            return report

        path = tmp_path_factory.mktemp("sweep") / "journal.jsonl"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service_mod, "execute_payload", counting_execute)
            mp.setattr(EigenService, "run_workload", counting_run)
            doc = serve_bench.run_soak(
                jobs=8, scenario="flaky-machine", journal_path=path,
                log=lambda *_: None,
            )
        return doc, path, solves_per_run

    def test_every_crash_point_resumes_to_the_uninterrupted_run(self, sweep):
        doc, path, _ = sweep
        records = doc["journal"]["records"]
        assert doc["crash_failures"] == [] and doc["deterministic"] is True
        assert doc["crash_points"] == records + 1
        assert doc["torn_cuts"] == 2 * records
        assert doc["no_job_lost"] is True and doc["silent_wrong"] == []
        # the flaky machine forced retries, so the sweep crossed them
        assert doc["resilience"]["retries"] > 0
        # the resumes ran on a copy: only the reference journal is left
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_a_resume_solves_only_the_attempts_past_its_cut(self, sweep):
        _, path, solves_per_run = sweep
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        total = kinds.count("attempt")
        assert solves_per_run == [total] + [
            total - kinds[:cut].count("attempt") for cut in range(len(kinds) + 1)
        ]
