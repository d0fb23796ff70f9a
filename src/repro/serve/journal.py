"""Crash-safe write-ahead job journal for the eigensolver service.

A service process can die mid-workload — OOM-killed, preempted, crashed.
Without a journal the whole in-flight batch is lost and every completed
solve recomputes.  :class:`JobJournal` is an append-only JSONL write-ahead
log, fsync'd record by record, that a restarted service replays to resume
a workload **without recompute and without drift**: the resilient event
loop is a pure function of the workload + scheduling + seeds, so replaying
the journal's memoized attempt outcomes through the same loop reproduces
the uninterrupted run byte-for-byte.

Record stream (one JSON object per line)::

    {"kind": "header", "version": "repro.serve.journal/1", "fingerprint": ..., "jobs": N}
    {"kind": "submitted", "job_id": 0, "n": 24, "seed": 7000021, ...}
    {"kind": "attempt", "key": "<memo key>", "outcome": {..., "eigenvalues": [...]}}
    {"kind": "terminal", "job_id": 0, "disposition": "ok", ...}

* **header** binds the file to one run configuration: a sha256 over the
  workload trace, machine params, algorithm, scheduling order, scenario,
  and the model fingerprint (the same wholesale-invalidation trick as
  :class:`~repro.serve.cache.TuningCache`).  Opening a journal whose
  header fingerprint differs raises :class:`JournalMismatch` — resuming a
  *different* workload against old records must fail loudly, never blend.
* **submitted** records make the no-job-lost invariant checkable: after a
  completed run (or a crash + resume) every submitted ``job_id`` must own
  a **terminal** record with a disposition in ``ok|degraded|error``.
* **attempt** records are the expensive part — one per executed solve,
  carrying the full outcome (eigenvalues serialize through JSON ``repr``
  floats, which round-trip IEEE doubles exactly, so a resumed spectrum is
  byte-identical to the original).  On resume they pre-seed the service's
  solve memo, so replay costs arithmetic, not eigensolves.

Durability: every append is ``write → flush → fsync`` of one complete
line, so a crash leaves a byte prefix of the uninterrupted journal.  A
torn last line — a last segment without its newline, whether or not its
JSON is complete, including a torn header — is dropped: the crashed
append never happened (anything torn mid-file means external corruption
and counts as such).  Since every crash state is a prefix, the soak
(:func:`repro.serve.bench.run_soak`) proves resume at all of them by
cutting its own journal, in-process.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

#: on-disk schema identifier; bump on any incompatible layout change
JOURNAL_VERSION = "repro.serve.journal/1"


class JournalError(ValueError):
    """A journal file that cannot be used at all (corrupt mid-file)."""


class JournalMismatch(JournalError):
    """An existing journal belongs to a different run configuration."""


def _parse_lines(text: str) -> tuple[list[dict[str, Any]], bool]:
    """Parse JSONL content; a torn *final* line is dropped (crash residue).

    Returns ``(records, torn_tail)``.  A malformed line anywhere else
    raises :class:`JournalError` — that is corruption, not a crash.
    """
    records: list[dict[str, Any]] = []
    # a file that ends mid-append has a non-empty last segment with no
    # trailing newline — torn even when its JSON happens to be complete,
    # since the next append would land on the same line; everything
    # before it must parse
    *lines, tail = text.split("\n")
    for pos, line in enumerate(lines):
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            raise JournalError(
                f"journal line {pos + 1} is not valid JSON (mid-file corruption)"
            ) from None
        if not isinstance(doc, dict):
            raise JournalError(f"journal line {pos + 1} is not an object")
        records.append(doc)
    return records, bool(tail)


class JobJournal:
    """Append-only, fsync'd, resumable record of one workload run."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.fingerprint: str | None = None
        self.submitted: dict[int, dict[str, Any]] = {}
        self.attempts: dict[str, dict[str, Any]] = {}
        self.terminals: dict[int, dict[str, Any]] = {}
        self.replayed_records = 0
        self.torn_tail = False
        self._fh: Any = None

    # -------------------------------------------------------------- #
    # open / replay

    def open(self, fingerprint: str, jobs: int) -> None:
        """Bind to ``fingerprint``, replaying an existing file if present.

        A file without a complete line gets a (new) header record; one
        with complete lines must carry the same fingerprint (else
        :class:`JournalMismatch`).  A torn last line is truncated away.
        """
        if self._fh is not None:
            raise JournalError("journal is already open")
        self.fingerprint = fingerprint
        data = self.path.read_bytes() if self.path.exists() else b""
        keep = data.rfind(b"\n") + 1
        if keep:
            self._replay(fingerprint, data[:keep].decode("utf-8"))
        self.torn_tail = keep < len(data)
        if self.torn_tail:
            # the crashed append never happened — when it was the header's
            # own, nothing is kept and the journal starts afresh below
            with open(self.path, "rb+") as fh:
                fh.truncate(keep)
                fh.flush()
                os.fsync(fh.fileno())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        if not keep:
            self._append(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "fingerprint": fingerprint,
                    "jobs": jobs,
                }
            )

    def _replay(self, fingerprint: str, text: str) -> None:
        records, _ = _parse_lines(text)
        if not records or records[0].get("kind") != "header":
            raise JournalError(f"journal {self.path} has no header record")
        header = records[0]
        if header.get("version") != JOURNAL_VERSION:
            raise JournalMismatch(
                f"journal {self.path} has version {header.get('version')!r}, "
                f"expected {JOURNAL_VERSION!r}"
            )
        if header.get("fingerprint") != fingerprint:
            raise JournalMismatch(
                f"journal {self.path} was written by a different run "
                f"configuration (fingerprint {header.get('fingerprint')!r} != "
                f"{fingerprint!r}); refusing to resume against it"
            )
        for doc in records[1:]:
            kind = doc.get("kind")
            if kind == "submitted":
                self.submitted[int(doc["job_id"])] = doc
            elif kind == "attempt":
                self.attempts[str(doc["key"])] = doc["outcome"]
            elif kind == "terminal":
                self.terminals[int(doc["job_id"])] = doc
            # unknown kinds are skipped: forward-compatible replay
        self.replayed_records = len(records) - 1

    # -------------------------------------------------------------- #
    # appends (each one durable before the method returns)

    def _append(self, doc: dict[str, Any]) -> None:
        if self._fh is None:
            raise JournalError("journal is not open")
        self._fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_submitted(self, job_id: int, doc: dict[str, Any]) -> None:
        """Journal a job's admission (idempotent across resumes)."""
        if job_id in self.submitted:
            return
        rec = {"kind": "submitted", "job_id": job_id, **doc}
        self.submitted[job_id] = rec
        self._append(rec)

    def record_attempt(self, key: str, outcome: dict[str, Any]) -> None:
        """Journal one executed attempt's outcome under its memo key."""
        if key in self.attempts:
            return
        self.attempts[key] = outcome
        self._append({"kind": "attempt", "key": key, "outcome": outcome})

    def record_terminal(self, job_id: int, doc: dict[str, Any]) -> None:
        """Journal a job's terminal disposition (idempotent across resumes)."""
        if job_id in self.terminals:
            return
        rec = {"kind": "terminal", "job_id": job_id, **doc}
        self.terminals[job_id] = rec
        self._append(rec)

    # -------------------------------------------------------------- #
    # invariants / teardown

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_journal(path: str | Path) -> dict[str, Any]:
    """Summarize a journal file (for reports and the no-job-lost check)."""
    records, torn = _parse_lines(Path(path).read_text(encoding="utf-8"))
    header = records[0] if records and records[0].get("kind") == "header" else {}
    submitted = {int(d["job_id"]) for d in records if d.get("kind") == "submitted"}
    terminals = {
        int(d["job_id"]): d.get("disposition", "")
        for d in records
        if d.get("kind") == "terminal"
    }
    return {
        "path": str(path),
        "version": header.get("version"),
        "fingerprint": header.get("fingerprint"),
        "records": len(records),
        "torn_tail": torn,
        "submitted": len(submitted),
        "terminals": len(terminals),
        "attempts": sum(1 for d in records if d.get("kind") == "attempt"),
        "missing_terminals": sorted(submitted - set(terminals)),
        "dispositions": {
            d: sum(1 for v in terminals.values() if v == d)
            for d in sorted(set(terminals.values()))
        },
    }
