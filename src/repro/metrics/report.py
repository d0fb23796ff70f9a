"""The ``metrics.json`` document: build, render, and gate.

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
bound, and — the run being a pure function of its ``config`` — the whole
document must equal the baseline exactly (:func:`repro.bench.exact_diff`;
every heat-map cell, watermark and attainment ratio, in both directions).
Documents are written and loaded with :func:`repro.bench.write_document` /
:func:`repro.bench.load_document`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.bench import exact_diff
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


def check_metrics(fresh: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Deterministic gate of a fresh document against a pinned baseline.

    Returns failure descriptions ([] = pass).  Hard invariants (checked on
    the fresh run alone): conservation holds and no rank's memory peak
    exceeds the model bound.  Baseline-relative: the same schema and
    config, then every leaf of the document exactly equal, each difference
    reported under its JSON path.
    """
    if fresh.get("schema") != SCHEMA_VERSION:
        return [
            f"schema mismatch: fresh document is {fresh.get('schema')!r}, "
            f"expected {SCHEMA_VERSION!r}"
        ]
    failures = [f"conservation violated: {p}" for p in fresh["conservation"]["problems"]]
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
    if fresh["config"] != baseline.get("config"):
        failures.append(
            f"config mismatch: fresh {fresh['config']!r} != baseline "
            f"{baseline.get('config')!r} (regenerate the pinned baseline)"
        )
        return failures
    return failures + exact_diff(fresh, baseline)


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
