"""Per-rank telemetry: communication heatmaps, memory watermarks,
imbalance metrics and bound-attainment ratios.

See docs/observability.md ("Per-rank metrics").  Enable on any machine with
``BSPMachine(p, metrics=True)``, read the result with
``machine.cost().metrics()``, and export with ``repro metrics``.
"""

from repro.bsp.machine import NO_METRICS
from repro.metrics.attainment import (
    ATTAINMENT_COMPONENTS,
    attainment_ratios,
    finish_cost,
    stage_model_cost,
)
from repro.metrics.collector import MetricsCollector, MetricsSnapshot
from repro.metrics.report import (
    SCHEMA_VERSION,
    build_metrics_doc,
    check_metrics,
    render_metrics,
)
from repro.metrics.sketch import LatencySketch

__all__ = [
    "ATTAINMENT_COMPONENTS",
    "LatencySketch",
    "MetricsCollector",
    "MetricsSnapshot",
    "NO_METRICS",
    "SCHEMA_VERSION",
    "attainment_ratios",
    "build_metrics_doc",
    "check_metrics",
    "finish_cost",
    "render_metrics",
    "stage_model_cost",
]
