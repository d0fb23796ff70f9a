"""The ``metrics.json`` document: build, render, persist, and gate.

:func:`build_metrics_doc` folds one instrumented eigensolver run into a
stable machine-readable document (schema :data:`SCHEMA_VERSION`) with five
sections:

* ``config`` — the run parameters (n, p, delta, ...);
* ``comm`` — the rank-to-rank words/messages matrices, their totals, the
  heaviest directed pairs and the unpaired residuals;
* ``memory`` — per-rank superstep watermarks, counter peaks, and the
  Theorem IV.4 model bound with its utilization;
* ``imbalance`` — max/mean and Gini per cost component over the run;
* ``attainment`` — measured ÷ predicted cost per eigensolver stage (see
  :mod:`repro.metrics.attainment`);
* ``conservation`` — the collector's invariant verdict.

:func:`check_metrics` is the deterministic CI gate over a pinned baseline
document: conservation must hold, no memory watermark may exceed the model
bound, the simulated comm totals must match exactly, and no attainment
ratio may drift above its baseline by more than the envelope.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.metrics.attainment import ATTAINMENT_COMPONENTS, attainment_ratios
from repro.model.bounds import memory_bound_words

if TYPE_CHECKING:
    from repro.eig.driver import EigensolveResult

#: bump when the document layout changes incompatibly
SCHEMA_VERSION = "repro.metrics/1"

#: cost components reported in the imbalance section
IMBALANCE_REPORT_FIELDS: tuple[str, ...] = (
    "flops",
    "words",
    "mem_traffic",
    "supersteps",
    "memory",
)

#: relative drift allowed on attainment ratios before the gate fails
DEFAULT_ENVELOPE = 0.25


def build_metrics_doc(
    result: "EigensolveResult", n: int, config: dict | None = None
) -> dict[str, Any]:
    """Fold an instrumented :class:`EigensolveResult` into the document.

    ``result.cost`` must carry a metrics snapshot (the machine ran with
    ``metrics=True``); ``config`` merges extra run parameters into the
    ``config`` section.
    """
    report = result.cost
    snap = report.metrics()
    p = snap.p
    bound = float(memory_bound_words(n, p, result.delta))
    watermark = snap.watermark_words
    peak = snap.peak_memory_words
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "config": {
            "n": int(n),
            "p": int(p),
            "delta": float(result.delta),
            "replication": int(result.replication),
            "initial_bandwidth": int(result.initial_bandwidth),
            **(config or {}),
        },
        "comm": {
            "total_words": snap.total_words,
            "total_messages": snap.total_messages,
            "words_matrix": snap.words_matrix.tolist(),
            "messages_matrix": snap.messages_matrix.tolist(),
            "heaviest_pairs": snap.heaviest_pairs(8),
            "unpaired_sent": float(snap.unpaired_sent.sum()),
            "unpaired_recv": float(snap.unpaired_recv.sum()),
        },
        "memory": {
            "watermark_words": watermark.tolist(),
            "watermark_superstep": snap.watermark_superstep.tolist(),
            "peak_memory_words": peak.tolist(),
            "max_watermark": float(watermark.max()),
            "max_peak": float(peak.max()),
            "model_bound_words": bound,
            "bound_utilization": float(peak.max()) / bound if bound > 0 else None,
        },
        "imbalance": {
            f: {"max_over_mean": report.imbalance(f), "gini": report.gini(f)}
            for f in IMBALANCE_REPORT_FIELDS
        },
        "attainment": attainment_ratios(result.stages, result.stage_meta),
        "conservation": {"problems": list(snap.conservation_problems)},
    }
    return doc


def write_metrics(doc: dict[str, Any], path: Path | str) -> Path:
    """Write the document to ``path`` (parents created) and return it."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return out


def load_metrics(path: Path | str) -> dict[str, Any]:
    """Load a previously written document.

    Raises ``FileNotFoundError`` / ``ValueError`` with messages naming the
    expected file — the CLI routes both through its exit-2 diagnostic path
    instead of a bare traceback.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            f"no metrics baseline at {path}; create one with `repro metrics --out {path}`"
        )
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"metrics baseline {path} is not valid JSON ({exc}); "
            f"regenerate it with `repro metrics --out {path}`"
        ) from exc


def check_metrics(
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    envelope: float = DEFAULT_ENVELOPE,
) -> list[str]:
    """Deterministic gate of a fresh document against a pinned baseline.

    Returns failure descriptions ([] = pass).  Hard invariants (checked on
    the fresh run alone): conservation holds and no rank's memory peak
    exceeds the model bound.  Baseline-relative: identical config, exactly
    matching comm totals (the simulation is deterministic), and every
    attainment ratio within ``(1 + envelope) ×`` its baseline value.
    """
    failures: list[str] = []
    if fresh.get("schema") != SCHEMA_VERSION:
        failures.append(
            f"schema mismatch: fresh document is {fresh.get('schema')!r}, "
            f"expected {SCHEMA_VERSION!r}"
        )
        return failures

    for problem in fresh["conservation"]["problems"]:
        failures.append(f"conservation violated: {problem}")
    mem = fresh["memory"]
    bound = mem["model_bound_words"]
    if mem["max_peak"] > bound:
        failures.append(
            f"memory watermark exceeds the model bound: max peak "
            f"{mem['max_peak']:.6g} words > bound {bound:.6g} words"
        )

    if baseline.get("schema") != SCHEMA_VERSION:
        failures.append(
            f"baseline schema mismatch: {baseline.get('schema')!r} != {SCHEMA_VERSION!r} "
            "(regenerate the pinned baseline)"
        )
        return failures
    if fresh["config"] != baseline["config"]:
        failures.append(
            f"config mismatch: fresh {fresh['config']!r} != baseline {baseline['config']!r}"
        )
        return failures

    for key in ("total_words", "total_messages"):
        got, want = fresh["comm"][key], baseline["comm"][key]
        if not np.isclose(got, want, rtol=1e-12, atol=0.0):
            failures.append(
                f"comm drift in {key}: baseline {want!r} != fresh {got!r} "
                "(the simulation is deterministic — a charge changed)"
            )

    base_stages = {entry["stage"]: entry for entry in baseline["attainment"]}
    fresh_stages = {entry["stage"]: entry for entry in fresh["attainment"]}
    if set(base_stages) != set(fresh_stages):
        failures.append(
            f"attainment stage set changed: baseline {sorted(base_stages)} != "
            f"fresh {sorted(fresh_stages)}"
        )
        return failures
    for stage, base_entry in base_stages.items():
        fresh_entry = fresh_stages[stage]
        for comp in ATTAINMENT_COMPONENTS:
            base_ratio = base_entry["ratio"].get(comp)
            fresh_ratio = fresh_entry["ratio"].get(comp)
            if base_ratio is None or fresh_ratio is None:
                continue
            if fresh_ratio > base_ratio * (1.0 + envelope):
                failures.append(
                    f"attainment regression in {stage}/{comp}: measured/model "
                    f"ratio {fresh_ratio:.4g} exceeds baseline {base_ratio:.4g} "
                    f"by more than {100.0 * envelope:.0f}%"
                )
    return failures


def render_metrics(doc: dict[str, Any]) -> str:
    """Human-readable summary of a metrics document."""
    from repro.report.tables import format_table  # late: avoid cycle

    cfg = doc["config"]
    comm = doc["comm"]
    mem = doc["memory"]
    parts: list[str] = [
        f"per-rank metrics (n={cfg['n']}, p={cfg['p']}, delta={cfg['delta']:.3f})",
        "",
        format_table(
            ["src", "dst", "words"],
            [[s, d, w] for s, d, w in comm["heaviest_pairs"]],
            title=(
                f"heaviest directed pairs (total {comm['total_words']:.4g} words, "
                f"{comm['total_messages']} messages)"
            ),
        ),
        "",
        format_table(
            ["component", "max/mean", "gini"],
            [
                [f, doc["imbalance"][f]["max_over_mean"], doc["imbalance"][f]["gini"]]
                for f in IMBALANCE_REPORT_FIELDS
            ],
            title="per-rank imbalance",
        ),
        "",
        (
            f"memory: max watermark {mem['max_watermark']:.4g} words, "
            f"max peak {mem['max_peak']:.4g}, model bound {mem['model_bound_words']:.4g} "
            f"({100.0 * (mem['bound_utilization'] or 0.0):.1f}% utilized)"
        ),
    ]
    att_rows = []
    for entry in doc["attainment"]:
        ratios = entry["ratio"]
        att_rows.append(
            [entry["stage"]]
            + [
                f"{ratios[c]:.3g}" if ratios.get(c) is not None else "-"
                for c in ATTAINMENT_COMPONENTS
            ]
        )
    if att_rows:
        parts += [
            "",
            format_table(
                ["stage", "F", "W", "Q", "S"],
                att_rows,
                title="bound attainment (measured / model prediction)",
            ),
        ]
    problems = doc["conservation"]["problems"]
    parts += [
        "",
        "conservation: OK" if not problems else "conservation: " + "; ".join(problems),
    ]
    return "\n".join(parts)
