"""What the traced run wraps, and how spans become per-layer metrics.

Layers are this repo's packages.  A span's layer is the metric prefix it
rolls up into (``linalg.householder``, ``bsp.charge``, ``eig.finish`` …).
Only public callables are wrapped, from outside; time spent in anything
unwrapped is self time of the nearest wrapped caller.
"""

from __future__ import annotations

import importlib

import metrics as registry
from tracer import Tracer, aggregate

#: layer of the benchmark's own span around each timed call
ROOT_LAYER = "harness"

#: (layer, module, public function names; None = every public function
#: defined in that module)
FUNCTIONS: tuple[tuple[str, str, tuple[str, ...] | None], ...] = (
    ("linalg.householder", "repro.linalg.householder",
     ("compact_wy_qr", "compact_wy_qr_general")),
    ("linalg.chase_step", "repro.linalg.sbr", ("apply_chase_step",)),
    ("linalg.sturm", "repro.linalg.tridiag", ("sturm_bisection_eigenvalues",)),
    ("linalg.band_tridiag", "repro.linalg.band_tridiag", ("band_to_tridiagonal_storage",)),
    ("blocks.carma", "repro.blocks.matmul", ("carma_matmul",)),
    ("blocks.streaming", "repro.blocks.streaming", ("streaming_matmul",)),
    ("blocks.rect_qr", "repro.blocks.rect_qr", ("rect_qr",)),
    ("blocks.tsqr", "repro.blocks.tsqr", ("tsqr", "tsqr_thin")),
    ("blocks.square_qr", "repro.blocks.square_qr", ("square_qr",)),
    ("blocks.square_qr", "repro.blocks.square_qr_25d", ("square_qr_25d",)),
    ("eig.full_to_band", "repro.eig.full_to_band", ("full_to_band_2p5d",)),
    ("eig.band_to_band", "repro.eig.band_to_band", ("band_to_band_2p5d",)),
    ("eig.ca_sbr", "repro.eig.ca_sbr", ("ca_sbr_reduce",)),
    ("eig.finish", "repro.eig.driver", ("finish_sequential",)),
    ("eig.driver", "repro.eig.driver", ("eigensolve_2p5d",)),
    ("serve.planner", "repro.serve.planner", ("plan_job",)),
    ("serve.execute", "repro.serve.service", ("execute_payload",)),
    ("serve.resilience", "repro.serve.resilience", ("run_resilient",)),
    ("util.matrices", "repro.util.matrices", None),
    ("util.validation", "repro.util.validation", None),
)

#: (layer, module, class, method names / prefixes*; None = every public method)
METHODS: tuple[tuple[str, str, str, tuple[str, ...] | None], ...] = (
    ("bsp.charge", "repro.bsp.machine", "BSPMachine",
     ("charge_*", "mem_*", "superstep", "note_memory", "cost")),
    ("bsp.batch", "repro.bsp.batch", "ChargeLog", None),
    ("bsp.batch", "repro.bsp.batch", "KernelTape", None),
    ("bsp.batch", "repro.bsp.batch", "FlatTape", None),
    ("dist.band", "repro.dist.banded", "DistBandMatrix", ("redistribute", "gather")),
    ("serve.service", "repro.serve.service", "EigenService", ("run_workload",)),
    ("serve.journal", "repro.serve.journal", "JobJournal", None),
    ("obs.telemetry", "repro.obs.telemetry", "Telemetry", None),
    ("trace.spans", "repro.trace.spans", "SpanRecorder", None),
    ("metrics.collector", "repro.metrics.collector", "MetricsCollector", None),
)

def install(tracer: Tracer) -> int:
    """Patch every target; returns the number of bindings replaced.  Call
    after a warm-up op so every module a workload imports lazily is loaded."""
    count = 0
    for layer, mod_name, names in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        if names is None:
            names = tuple(
                n for n, v in vars(mod).items()
                if not n.startswith("_") and callable(v) and not isinstance(v, type)
                and getattr(v, "__module__", None) == mod_name
            )
        for name in names:
            count += tracer.patch_function(getattr(mod, name), layer)
    for layer, mod_name, cls_name, names in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        count += tracer.patch_methods(cls, layer, names)
    return count


def stage_metrics(entries: list[dict]) -> dict[str, float]:
    """Per stage kind: sim W and S charged, and measured ÷ lemma — sums over
    every entry of the kind (several band_to_band stages; many jobs)."""
    out: dict[str, float] = {}
    for st in registry.STAGES:
        rows = [e for e in entries if e.get("kind") == st]
        for comp in ("words", "supersteps"):
            got = sum(e["measured"][comp] for e in rows)
            want = sum(e["predicted"][comp] for e in rows)
            out[f"eig.{st}.sim_{comp}"] = got
            out[f"eig.{st}.attain_{comp}_x"] = got / want if want > 0 else 0.0
    return out


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, float]:
    """Span-derived per-layer metrics, per timed call (``calls`` of them):
    every registered ``<layer>.calls|self_s|wall_s`` of a wrapped layer."""
    totals = aggregate(tracer)
    root = totals.pop(ROOT_LAYER)
    out = {"serve.solves": totals.get("serve.execute", {"calls": 0})["calls"] / calls,
           "trace.coverage": 1.0 - root["self_s"] / root["wall_s"],
           "trace.spans_recorded": sum(row["calls"] for row in totals.values()) / calls}
    wrapped = {row[0] for row in FUNCTIONS + METHODS}
    for metric in registry.PER_LAYER:
        layer, _, field = metric.name.rpartition(".")
        if layer in wrapped and field in ("calls", "self_s", "wall_s"):
            out[metric.name] = totals.get(layer, {field: 0.0})[field] / calls
    return out
