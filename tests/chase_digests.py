"""Digests of everything an observed eigensolve exposes.

``tests/data/chase_observed_digests.json`` holds these digests as captured
at the last commit that still had the per-step chase path: real ``rect_qr``
/ ``carma_matmul`` calls per chase step on a ``spans=True, metrics=True``
machine.  Four re-captures since, each of one kind of digest: ``metrics``
when every comm charge began to name its wire pattern (the heat map
stopped being fitted), ``spectrum`` when full-to-band began to factor
each panel with one sequential QR and to replay its ``rect_qr`` /
``carma_matmul`` charges from kernel tapes (eigenvalues moved at rounding
level, ≤ 0.04 n·ε·‖A‖₂), ``spectrum`` again when the local Householder
QR moved onto LAPACK's ``dgeqrf`` (≤ 0.041 n·ε·‖A‖₂), and ``spectrum``
once more when the sequential finish moved onto LAPACK's ``dsbtrd`` +
``dstebz`` (≤ 0.032 n·ε·‖A‖₂).  No counter or span digest has moved.
``tests/test_chase_batch.py`` asserts the single chase loop reproduces
them; regenerate (``PYTHONPATH=src python tests/chase_digests.py``) only
when a charge legitimately changes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.bsp import BSPMachine
from repro.bsp.counters import COUNTER_FIELDS
from repro.eig import eigensolve_2p5d
from repro.util.matrices import random_symmetric

DATA = Path(__file__).resolve().parent / "data" / "chase_observed_digests.json"

#: (n, p, δ); n = 256 is where ``chase_qr`` nests real ``rect_qr`` spans
CONFIGS = ((256, 64, 2.0 / 3.0), (128, 32, 0.5))


def config_key(n: int, p: int, delta: float) -> str:
    return f"n{n}_p{p}_d{delta:.3f}"


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _array_bytes(a) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype}{a.shape}".encode() + a.tobytes()


def observed_run_digests(n: int, p: int, delta: float, machine: BSPMachine | None = None) -> dict[str, str]:
    """sha256 per artifact of one solve on a spans + metrics machine (a
    fresh one unless ``machine`` — freshly built or reset — is given)."""
    if machine is None:
        machine = BSPMachine(p, spans=True, metrics=True)
    result = eigensolve_2p5d(machine, random_symmetric(n, seed=3), delta=delta)
    return {**machine_digests(machine), "spectrum": _sha([_array_bytes(result.eigenvalues)])}


def machine_digests(machine: BSPMachine) -> dict[str, str]:
    """sha256 of a machine's per-rank counters and, on a spans + metrics
    machine, of its span events, span buckets and metrics snapshot."""
    counters = _sha(_array_bytes(machine.counters.field_array(f)) for f in COUNTER_FIELDS)
    if not (machine.spans.enabled and machine.metrics.enabled):
        return {"counters": counters}
    report = machine.cost()
    spans = report.by_span()
    snap = report.metrics()

    buckets = []
    for row in spans.rows:
        buckets += [row.path, row.calls]
        buckets += [_array_bytes(spans.per_rank[row.path][f]) for f in sorted(spans.per_rank[row.path])]
    metrics = []
    for f in fields(snap):
        value = getattr(snap, f.name)
        if f.name == "series":
            for t, mem, sent in value:
                metrics += [repr(t), _array_bytes(mem), _array_bytes(sent)]
        elif isinstance(value, np.ndarray):
            metrics.append(_array_bytes(value))
        else:
            metrics.append(repr(value))
    return {
        "span_events": _sha(json.dumps(e.as_dict(), sort_keys=True) for e in machine.spans.events),
        "span_buckets": _sha(buckets),
        "metrics": _sha(metrics),
        "counters": counters,
    }


if __name__ == "__main__":
    doc = {config_key(*cfg): observed_run_digests(*cfg) for cfg in CONFIGS}
    DATA.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(DATA.read_text())
