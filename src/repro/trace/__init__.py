"""Span tracing, critical-path breakdowns and Chrome trace export.

See docs/observability.md.  Enable on any machine with
``BSPMachine(p, spans=True)``, read the result with
``machine.cost().by_span()``, and export with
:func:`repro.trace.chrome.write_chrome_trace` or ``repro trace``.
"""

from repro.trace.chrome import (
    chrome_trace,
    chrome_trace_per_rank,
    write_chrome_trace,
    write_chrome_trace_per_rank,
)
from repro.trace.report import SpanBreakdown, SpanCost
from repro.trace.spans import NULL_SPAN, SPAN_FIELDS, UNTRACED, SpanEvent, SpanHandle, SpanRecorder

__all__ = [
    "NULL_SPAN",
    "SPAN_FIELDS",
    "UNTRACED",
    "SpanBreakdown",
    "SpanCost",
    "SpanEvent",
    "SpanHandle",
    "SpanRecorder",
    "chrome_trace",
    "chrome_trace_per_rank",
    "write_chrome_trace",
    "write_chrome_trace_per_rank",
]
