"""``repro dash``: a self-contained HTML flight recorder for a service run.

Renders one telemetry document (:func:`repro.obs.report.build_telemetry_doc`)
as a single HTML file with zero external assets — openable from a CI
artifact listing:

* stat tiles (jobs by disposition, retries/quarantines,
  plan-cache hit rate);
* the machine-lane **timeline**: every executed attempt as a thin slice on
  its machine's lane(s) in simulated time, colored by attempt kind
  (primary/retry), failed attempts in the status color;
* the **queue-depth** step line with a nearest-point hover readout;
* per-SLO-class deadline hit rates and latency percentile tables;
* the breaker **chronology**;
* a full attempts table (the screen-reader / grayscale twin of the
  timeline — every value the charts show is also in a table).

Colors follow the repo-wide dataviz conventions: two categorical slots
for attempt identity (validated for CVD separation in both light and dark
modes), status colors only for failure/breaker state, text always in ink
tokens.  The output is a pure function of the document — byte-stable
across reruns.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any

#: categorical slots (identity: attempt kind), light / dark
KIND_COLORS = {
    "primary": ("#2a78d6", "#3987e5"),
    "retry": ("#eb6834", "#d95926"),
}
#: status colors (state, never identity)
STATUS_CRITICAL = ("#d03b3b", "#d03b3b")
STATUS_GOOD = ("#0ca30c", "#0ca30c")

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
}
.viz-root {
  --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --k-primary: #2a78d6; --k-retry: #eb6834;
  --critical: #d03b3b; --good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --k-primary: #3987e5; --k-retry: #d95926;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile .note { color: var(--muted); font-size: 11px; margin-top: 2px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; overflow-x: auto;
}
.legend { display: flex; gap: 16px; margin: 8px 0 4px; font-size: 12px;
  color: var(--ink-2); flex-wrap: wrap; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
table { border-collapse: collapse; font-size: 13px; }
th {
  text-align: left; color: var(--ink-2); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 14px 4px 0;
}
td {
  padding: 4px 14px 4px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
td.t { font-variant-numeric: normal; }
.state { display: inline-flex; align-items: center; gap: 5px; }
details summary { cursor: pointer; color: var(--ink-2); margin: 8px 0; }
svg text { font: 11px system-ui, sans-serif; fill: var(--muted); }
.tooltip {
  position: absolute; pointer-events: none; display: none;
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 9px; font-size: 12px; color: var(--ink);
  box-shadow: 0 2px 8px rgba(0,0,0,0.15); white-space: nowrap;
}
footer { color: var(--muted); font-size: 12px; margin-top: 28px; }
"""

_QUEUE_JS = """
(function () {
  var svg = document.getElementById('queue-svg');
  if (!svg) return;
  var data = JSON.parse(document.getElementById('queue-data').textContent);
  var tip = document.getElementById('queue-tip');
  var hair = document.getElementById('queue-hair');
  var dot = document.getElementById('queue-dot');
  var geom = JSON.parse(svg.dataset.geom);
  function sx(t) { return geom.x0 + (t - geom.t0) / geom.dt * geom.w; }
  function sy(v) { return geom.y1 - v / geom.vmax * geom.h; }
  svg.addEventListener('mousemove', function (evt) {
    var r = svg.getBoundingClientRect();
    var t = geom.t0 + (evt.clientX - r.left - geom.x0) / geom.w * geom.dt;
    var best = data[0];
    for (var i = 0; i < data.length; i++) {
      if (data[i][0] <= t) best = data[i]; else break;
    }
    hair.setAttribute('x1', sx(Math.max(geom.t0, Math.min(t, geom.t0 + geom.dt))));
    hair.setAttribute('x2', hair.getAttribute('x1'));
    hair.style.display = 'block';
    dot.setAttribute('cx', sx(best[0])); dot.setAttribute('cy', sy(best[1]));
    dot.style.display = 'block';
    tip.style.display = 'block';
    tip.style.left = (evt.pageX + 14) + 'px';
    tip.style.top = (evt.pageY - 10) + 'px';
    tip.textContent = 'depth ' + best[1] + ' at t=' + best[0].toExponential(3);
  });
  svg.addEventListener('mouseleave', function () {
    tip.style.display = 'none'; hair.style.display = 'none';
    dot.style.display = 'none';
  });
})();
"""


def _fmt(x: float) -> str:
    """Compact figure for tiles (1,284 / 12.9K / 4.2M)."""
    x = float(x)
    for cut, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if abs(x) >= cut:
            return f"{x / cut:.1f}{suffix}"
    if x == int(x):
        return f"{int(x):,}"
    return f"{x:,.2f}"


def _fmt_t(x: float) -> str:
    """Simulated time, compact scientific."""
    return f"{float(x):.3g}"


def _tile(label: str, value: str, note: str = "") -> str:
    note_html = f'<div class="note">{html.escape(note)}</div>' if note else ""
    return (
        f'<div class="tile"><div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(value)}</div>{note_html}</div>'
    )


def _assign_lanes(spans: list[dict]) -> dict[int, int]:
    from repro.obs.perfetto import _assign_lanes as assign

    return assign(spans)


def _timeline_svg(timeline: dict[str, Any]) -> str:
    """Machine-lane timeline: one thin slice per attempt, simulated time."""
    spans = timeline.get("attempts", [])
    if not spans:
        return '<p class="sub">no attempts recorded</p>'
    lanes = _assign_lanes(spans)
    # global lane order: (machine, lane) sorted
    keys = sorted({(s["machine"], lanes[i]) for i, s in enumerate(spans)})
    row_of = {k: j for j, k in enumerate(keys)}
    t0 = min(s["start"] for s in spans)
    t1 = max(s["finish"] for s in spans)
    dt = (t1 - t0) or 1.0
    left, width, row_h, bar_h = 90, 880, 18, 12
    height = len(keys) * row_h + 30
    parts = [
        f'<svg viewBox="0 0 {left + width + 20} {height}" '
        f'width="100%" role="img" aria-label="attempt timeline">'
    ]
    # lane labels + hairline separators
    for (machine, lane), j in row_of.items():
        y = j * row_h
        label = f"machine {machine}" + (f" · {lane}" if lane else "")
        parts.append(
            f'<text x="{left - 8}" y="{y + row_h - 6}" '
            f'text-anchor="end">{html.escape(label)}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y + row_h - 0.5}" '
            f'x2="{left + width}" y2="{y + row_h - 0.5}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
    # attempt slices (2px gap is the lane padding; tooltip = native title)
    for i, s in enumerate(spans):
        j = row_of[(s["machine"], lanes[i])]
        x = left + (s["start"] - t0) / dt * width
        w = max(1.5, (s["finish"] - s["start"]) / dt * width)
        y = j * row_h + (row_h - bar_h) / 2 - 1
        if s["ok"]:
            color = f'var(--k-{s["kind"]})' if s["kind"] in KIND_COLORS else "var(--k-primary)"
        else:
            color = "var(--critical)"
        tip = (
            f'job {s["job"]} attempt {s["attempt"]} [{s["kind"]}'
            + (", probe" if s.get("probe") else "")
            + f'] p={s["p"]} rung={s["rung"]} '
            + ("ok" if s["ok"] else "FAILED")
            + f' t={_fmt_t(s["start"])}..{_fmt_t(s["finish"])}'
        )
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{bar_h}" '
            f'rx="2" fill="{color}"><title>{html.escape(tip)}</title></rect>'
        )
    # time axis
    y_ax = len(keys) * row_h + 8
    parts.append(
        f'<line x1="{left}" y1="{y_ax}" x2="{left + width}" y2="{y_ax}" '
        f'stroke="var(--axis)" stroke-width="1"/>'
    )
    for k in range(5):
        t = t0 + dt * k / 4
        x = left + width * k / 4
        anchor = "start" if k == 0 else ("end" if k == 4 else "middle")
        parts.append(
            f'<text x="{x:.1f}" y="{y_ax + 14}" '
            f'text-anchor="{anchor}">{_fmt_t(t)}</text>'
        )
    parts.append("</svg>")
    legend = (
        '<div class="legend">'
        + "".join(
            f'<span class="key"><span class="swatch" '
            f'style="background:var(--k-{k})"></span>{k}</span>'
            for k in KIND_COLORS
        )
        + '<span class="key"><span class="swatch" '
        'style="background:var(--critical)"></span>✕ failed attempt</span>'
        "</div>"
    )
    return legend + "".join(parts)


def _queue_svg(samples: list[list[float]]) -> str:
    """Queue-depth step line (single series — the title names it)."""
    if not samples:
        return '<p class="sub">no queue-depth samples</p>'
    t0, t1 = samples[0][0], samples[-1][0]
    dt = (t1 - t0) or 1.0
    vmax = max(v for _, v in samples) or 1.0
    left, width, height, top = 50, 900, 120, 10
    y1 = top + height

    def sx(t: float) -> float:
        return left + (t - t0) / dt * width

    def sy(v: float) -> float:
        return y1 - v / vmax * height

    pts: list[str] = []
    prev_v = samples[0][1]
    pts.append(f"{sx(samples[0][0]):.2f},{sy(prev_v):.2f}")
    for t, v in samples[1:]:
        pts.append(f"{sx(t):.2f},{sy(prev_v):.2f}")  # step: hold then jump
        pts.append(f"{sx(t):.2f},{sy(v):.2f}")
        prev_v = v
    pts.append(f"{sx(t1):.2f},{sy(prev_v):.2f}")
    geom = json.dumps(
        {"x0": left, "w": width, "t0": t0, "dt": dt, "vmax": vmax,
         "h": height, "y1": y1},
        sort_keys=True,
    )
    grid = []
    for k in range(3):
        v = vmax * (k + 1) / 3
        grid.append(
            f'<line x1="{left}" y1="{sy(v):.1f}" x2="{left + width}" '
            f'y2="{sy(v):.1f}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{left - 6}" y="{sy(v) + 4:.1f}" '
            f'text-anchor="end">{v:.0f}</text>'
        )
    axis_ticks = []
    for k in range(5):
        t = t0 + dt * k / 4
        anchor = "start" if k == 0 else ("end" if k == 4 else "middle")
        axis_ticks.append(
            f'<text x="{sx(t):.1f}" y="{y1 + 16}" '
            f'text-anchor="{anchor}">{_fmt_t(t)}</text>'
        )
    return (
        f'<script type="application/json" id="queue-data">'
        f"{json.dumps(samples)}</script>"
        f'<svg id="queue-svg" data-geom=\'{geom}\' '
        f'viewBox="0 0 {left + width + 20} {y1 + 24}" width="100%" '
        f'role="img" aria-label="queue depth over simulated time">'
        + "".join(grid)
        + f'<line x1="{left}" y1="{y1}" x2="{left + width}" y2="{y1}" '
        f'stroke="var(--axis)" stroke-width="1"/>'
        + "".join(axis_ticks)
        + f'<polyline points="{" ".join(pts)}" fill="none" '
        f'stroke="var(--k-primary)" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round"/>'
        f'<line id="queue-hair" x1="0" y1="{top}" x2="0" y2="{y1}" '
        f'stroke="var(--axis)" stroke-width="1" style="display:none"/>'
        f'<circle id="queue-dot" r="4" fill="var(--k-primary)" '
        f'stroke="var(--surface)" stroke-width="2" style="display:none"/>'
        "</svg>"
        '<div class="tooltip" id="queue-tip"></div>'
    )


def _slo_table(doc: dict[str, Any]) -> str:
    slo = doc.get("slo", {})
    sketches = doc.get("latency_sketches", {})
    if not slo and not sketches:
        return '<p class="sub">no SLO data</p>'
    rows = []
    for cls in sorted(set(slo) | set(sketches)):
        s = slo.get(cls, {})
        sk = sketches.get(cls, {})
        q = sk.get("quantiles", {})
        rows.append(
            f'<tr><td class="t">{html.escape(cls)}</td>'
            f'<td>{s.get("jobs", sk.get("count", 0))}</td>'
            f'<td>{s.get("hit_rate", 0.0):.1%}</td>'
            f'<td>{_fmt_t(q.get("p50", 0.0))}</td>'
            f'<td>{_fmt_t(q.get("p95", 0.0))}</td>'
            f'<td>{_fmt_t(q.get("p99", 0.0))}</td>'
            f'<td>{_fmt_t(sk.get("max", 0.0))}</td></tr>'
        )
    return (
        "<table><thead><tr><th>SLO class</th><th>jobs</th>"
        "<th>deadline hit rate</th><th>latency p50</th><th>p95</th>"
        "<th>p99</th><th>max</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _chronology(doc: dict[str, Any]) -> str:
    rows = []
    for e in doc.get("breaker_chronology", []):
        state = e.get("state", "?")
        if state == "open":
            mark = '<span class="state" style="color:var(--critical)">✕ open</span>'
        elif state == "closed":
            mark = '<span class="state" style="color:var(--good)">● closed</span>'
        else:
            mark = f'<span class="state">◐ {html.escape(str(state))}</span>'
        rows.append(
            f'<tr><td>{_fmt_t(e["t"])}</td>'
            f'<td class="t">machine {e.get("machine")}</td>'
            f'<td class="t">{html.escape(str(e.get("prev")))} → {mark}</td></tr>'
        )
    if not rows:
        return '<p class="sub">no breaker transitions this run</p>'
    # the events are already in emission (simulated-time) order
    return (
        "<table><thead><tr><th>t (sim)</th><th>machine</th>"
        "<th>transition</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _attempts_table(timeline: dict[str, Any]) -> str:
    spans = timeline.get("attempts", [])
    if not spans:
        return ""
    rows = [
        f'<tr><td>{s["job"]}</td><td>{s["attempt"]}</td>'
        f'<td class="t">{html.escape(s["kind"])}</td>'
        f'<td class="t">{html.escape(s["rung"])}</td><td>{s["p"]}</td>'
        f'<td>{s["machine"]}</td><td class="t">{"yes" if s.get("probe") else ""}</td>'
        f'<td class="t">{"ok" if s["ok"] else "failed"}</td>'
        f'<td>{_fmt_t(s["start"])}</td><td>{_fmt_t(s["finish"])}</td></tr>'
        for s in spans
    ]
    return (
        "<details><summary>attempts table "
        f"({len(spans)} rows — the accessible twin of the timeline)</summary>"
        "<table><thead><tr><th>job</th><th>attempt</th><th>kind</th>"
        "<th>rung</th><th>p</th><th>machine</th><th>probe</th><th>result</th>"
        "<th>start</th><th>finish</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table></details>"
    )


def build_dash_html(
    doc: dict[str, Any], title: str = "repro service flight recorder"
) -> str:
    """Render one telemetry document as a self-contained HTML report."""
    counters = doc.get("counters", {})
    events = doc.get("events", {})
    cfg = doc.get("config", {})
    solver = doc.get("solver", {})
    timeline = doc.get("timeline", {})

    jobs_ok = counters.get("jobs_ok", 0) + counters.get("jobs_degraded", 0)
    jobs_total = sum(
        counters.get(f"jobs_{d}", 0) for d in ("ok", "degraded", "error")
    )
    plans = counters.get("plans", 0)
    hits = counters.get("plan_cache_hits", 0)
    tiles = [
        _tile("Jobs served", _fmt(jobs_total),
              f"{_fmt(jobs_ok)} ok · {_fmt(counters.get('jobs_error', 0))} error"),
        _tile("Attempts", _fmt(counters.get("dispatches", 0)),
              f"{_fmt(counters.get('probes', 0))} probes"),
        _tile("Retries", _fmt(counters.get("retries", 0))),
        _tile("Quarantines", _fmt(counters.get("quarantines", 0))),
        _tile("Plan cache", f"{(hits / plans if plans else 0.0):.0%}",
              f"{_fmt(hits)}/{_fmt(plans)} hits"),
        _tile("Solver spans", _fmt(solver.get("span_events", 0)),
              f"{_fmt(solver.get('attempts_with_spans', 0))} attempts traced"),
    ]
    cfg_line = " · ".join(f"{k}={v}" for k, v in sorted(cfg.items())) or "—"

    body = f"""
<div class="viz-root">
<h1>{html.escape(title)}</h1>
<p class="sub">{events.get("count", 0)} lifecycle events · simulated time
(1 unit = 1 model time unit, T = γF + βW + νQ + αS) ·
config: {html.escape(cfg_line)}</p>
<div class="tiles">{"".join(tiles)}</div>
<h2>Attempt timeline by machine lane</h2>
<div class="card">{_timeline_svg(timeline)}{_attempts_table(timeline)}</div>
<h2>Queue depth (simulated time)</h2>
<div class="card">{_queue_svg(timeline.get("queue_depth", []))}</div>
<h2>SLO deadline hit rates and latency percentiles</h2>
<div class="card">{_slo_table(doc)}</div>
<h2>Breaker chronology</h2>
<div class="card">{_chronology(doc)}</div>
<footer>generated by <code>repro dash</code> from telemetry.json ·
all times simulated and deterministic — two runs of the same seeded
workload produce this exact report</footer>
</div>
<script>{_QUEUE_JS}</script>
"""
    return (
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<style>{_CSS}</style></head><body>{body}</body></html>"
    )


def write_dash(
    doc: dict[str, Any],
    path: Path | str,
    title: str = "repro service flight recorder",
) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(build_dash_html(doc, title=title))
    return out
