"""``repro report`` — self-contained HTML run reports.

The paper's deliverable is *evidence you can read*: error-vs-duration
curves, per-configuration variance, significance calls.  This module
renders one or two benchmark result files (pytest-benchmark JSON from
CI's bench-smoke, or any compatible writer) into a single HTML file
with **zero external references** — inline CSS, inline SVG, system
fonts, no JavaScript — so the artifact opens identically from a CI
artifact store, an airgapped box, or a mail attachment, years later.

What it renders:

* **per-family variance plots** (one ``<svg>`` per benchmark family,
  a family being the entry's ``group`` or, ungrouped, the benchmark
  itself): every recorded round as a dot over a mean line and a
  ±stddev band — the per-configuration dispersion the paper (and
  nanoBench, and BayesPerf) insist must ride along with any point
  estimate;
* **a summary table** (mean/stddev/CoV/percentiles/throughput) — the
  numbers behind every mark, so nothing is color-alone;
* **an A/B delta table** when given two runs, with the same
  direction-aware verdicts as ``repro bench diff``;
* **per-layer self-time bars** from a ``repro trace --json`` payload
  (:func:`repro.obs.report.layer_breakdown_payload` — the same
  numbers as the printed table, by construction).

``python -m repro.obs.htmlreport report.html [bench.json ...]`` is the
CI-grade validator: parses the HTML, rejects any external reference,
and checks the one-``<svg>``-per-family invariant against the source
result files.
"""

from __future__ import annotations

import html
import json
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.benchdiff import (
    DEFAULT_METRIC,
    DEFAULT_THRESHOLD,
    diff_benchmarks,
    load_payload,
    regressions,
)
from repro.errors import ConfigurationError

#: Run colors: categorical slots 1 (blue) and 2 (orange), light/dark
#: steps validated together (see docs/reports.md for provenance).
RUN_LABELS = ("A", "B")


# -- loading ---------------------------------------------------------------

@dataclass
class RunData:
    """One loaded result file, normalized for rendering."""

    path: str
    label: str
    payload: Mapping[str, Any]
    entries: "list[dict[str, Any]]" = field(default_factory=list)

    @property
    def names(self) -> "list[str]":
        return [entry["name"] for entry in self.entries]

    def entry(self, name: str) -> "dict[str, Any] | None":
        for entry in self.entries:
            if entry["name"] == name:
                return entry
        return None

    def stats_by_name(self) -> dict[str, dict[str, Any]]:
        """name -> merged stats (stats + numeric extra_info)."""
        out: dict[str, dict[str, Any]] = {}
        for entry in self.entries:
            merged = dict(entry["stats"])
            for key, value in entry.get("extra_info", {}).items():
                if isinstance(value, (int, float)):
                    merged.setdefault(key, value)
            out[entry["name"]] = merged
        return out

    def metadata_labels(self) -> "dict[str, str]":
        """String-valued extra_info across entries (git_sha, host...)."""
        out: dict[str, str] = {}
        for entry in self.entries:
            for key, value in entry.get("extra_info", {}).items():
                if isinstance(value, str):
                    out.setdefault(key, value)
        return out


def load_run(path: "str | Path", label: str = "A") -> RunData:
    """Parse one result file; malformed shapes are config errors."""
    payload = load_payload(path)
    raw = payload.get("benchmarks")
    if not isinstance(raw, list):
        raise ConfigurationError(
            f"benchmark file {path} has no 'benchmarks' list"
        )
    entries: "list[dict[str, Any]]" = []
    for item in raw:
        if not isinstance(item, Mapping):
            continue
        name = item.get("name")
        stats = item.get("stats")
        if not (isinstance(name, str) and isinstance(stats, Mapping)):
            continue
        extra = item.get("extra_info")
        entries.append({
            "name": name,
            "group": item.get("group"),
            "stats": dict(stats),
            "extra_info": dict(extra) if isinstance(extra, Mapping) else {},
        })
    if not entries:
        raise ConfigurationError(
            f"benchmark file {path} contains no benchmarks"
        )
    return RunData(path=str(path), label=label, payload=payload,
                   entries=entries)


def load_trace(path: "str | Path") -> dict[str, Any]:
    """Parse a ``repro trace --json`` payload for the self-time panel."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"trace file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"trace file {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, Mapping) or not isinstance(
        payload.get("layers"), list
    ):
        raise ConfigurationError(
            f"trace file {path} is not 'repro trace --json' output "
            "(no 'layers' list)"
        )
    return dict(payload)


# -- families --------------------------------------------------------------

def family_of(entry: Mapping[str, Any]) -> str:
    """The benchmark family: the entry's group, else the benchmark."""
    group = entry.get("group")
    if isinstance(group, str) and group:
        return group
    return str(entry.get("name"))


def report_families(
    runs: Sequence[RunData],
) -> "dict[str, list[str]]":
    """family -> benchmark names, ordered by first appearance."""
    families: "dict[str, list[str]]" = {}
    for run in runs:
        for entry in run.entries:
            family = family_of(entry)
            names = families.setdefault(family, [])
            if entry["name"] not in names:
                names.append(entry["name"])
    return families


def expected_svg_count(paths: "Iterable[str | Path]") -> int:
    """How many ``<svg>`` a report over these files must contain."""
    runs = [
        load_run(path, label=RUN_LABELS[min(i, 1)])
        for i, path in enumerate(paths)
    ]
    return len(report_families(runs))


# -- formatting ------------------------------------------------------------

def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _pick_unit(seconds: float) -> "tuple[str, float]":
    magnitude = abs(seconds)
    if magnitude >= 1.0 or magnitude == 0.0:
        return "s", 1.0
    if magnitude >= 1e-3:
        return "ms", 1e3
    if magnitude >= 1e-6:
        return "µs", 1e6
    return "ns", 1e9


def _fmt_seconds(seconds: float) -> str:
    unit, factor = _pick_unit(seconds)
    return f"{seconds * factor:,.3g} {unit}"


def _fmt_count(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4g}"


def _fmt_pct(fraction: float) -> str:
    return f"{fraction * 100.0:.1f}%"


# -- SVG family plots ------------------------------------------------------

#: Cap on rendered sample dots per series; beyond it, evenly strided.
MAX_POINTS = 120

_CHART_W = 720
_CHART_H = 230
_ML, _MR, _MT, _MB = 70, 12, 14, 36


def _series_values(stats: Mapping[str, Any]) -> "list[float]":
    data = stats.get("data")
    if isinstance(data, list):
        values = [float(v) for v in data if isinstance(v, (int, float))]
        if values:
            return values
    return []


def _downsample(values: "list[float]", cap: int = MAX_POINTS) -> "list[tuple[int, float]]":
    if len(values) <= cap:
        return list(enumerate(values))
    stride = len(values) / cap
    picked = []
    for i in range(cap):
        index = int(i * stride)
        picked.append((index, values[index]))
    return picked


def _family_svg(
    family: str,
    names: "list[str]",
    runs: Sequence[RunData],
) -> str:
    """One family's plot: per-round dots, mean line, ±stddev band."""
    plot_w = _CHART_W - _ML - _MR
    plot_h = _CHART_H - _MT - _MB
    # Domain: every sample, mean+stddev and max of every series shown.
    peak = 0.0
    for run in runs:
        for name in names:
            entry = run.entry(name)
            if entry is None:
                continue
            stats = entry["stats"]
            candidates = _series_values(stats) + [
                float(stats.get(key, 0.0) or 0.0)
                for key in ("max", "mean")
            ]
            mean = float(stats.get("mean", 0.0) or 0.0)
            stddev = float(stats.get("stddev", 0.0) or 0.0)
            candidates.append(mean + stddev)
            peak = max(peak, *candidates)
    domain = peak * 1.08 if peak > 0 else 1.0
    unit, factor = _pick_unit(peak if peak > 0 else 1.0)

    def y(value: float) -> float:
        return _MT + plot_h * (1.0 - max(0.0, min(value, domain)) / domain)

    parts: "list[str]" = [
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'aria-label="{_esc(family)}: per-round duration with mean and '
        f'±stddev band" class="chart">'
    ]
    # Recessive grid: four hairlines plus the baseline.
    for i in range(1, 5):
        gy = _MT + plot_h * (1.0 - i / 4.0)
        value = domain * i / 4.0
        parts.append(
            f'<line class="grid" x1="{_ML}" y1="{gy:.1f}" '
            f'x2="{_CHART_W - _MR}" y2="{gy:.1f}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_ML - 6}" y="{gy + 4:.1f}" '
            f'text-anchor="end">{value * factor:,.3g}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_ML}" y1="{_MT + plot_h}" '
        f'x2="{_CHART_W - _MR}" y2="{_MT + plot_h}"/>'
    )
    parts.append(
        f'<text class="tick" x="{_ML - 6}" y="{_MT + plot_h + 4}" '
        f'text-anchor="end">0 {unit}</text>'
    )

    slot_w = plot_w / max(1, len(names))
    active_runs = [run for run in runs]
    for slot, name in enumerate(names):
        x0 = _ML + slot * slot_w
        pad = min(14.0, slot_w * 0.08)
        inner_w = slot_w - 2 * pad
        gap = 8.0 if len(active_runs) > 1 else 0.0
        sub_w = (inner_w - gap * (len(active_runs) - 1)) / len(active_runs)
        for r, run in enumerate(active_runs):
            entry = run.entry(name)
            if entry is None:
                continue
            stats = entry["stats"]
            sx0 = x0 + pad + r * (sub_w + gap)
            sx1 = sx0 + sub_w
            mean = float(stats.get("mean", 0.0) or 0.0)
            stddev = float(stats.get("stddev", 0.0) or 0.0)
            cls = f"s{r + 1}"
            if stddev > 0:
                top = y(mean + stddev)
                bottom = y(max(0.0, mean - stddev))
                parts.append(
                    f'<rect class="band {cls}" x="{sx0:.1f}" '
                    f'y="{top:.1f}" width="{sub_w:.1f}" '
                    f'height="{max(1.0, bottom - top):.1f}">'
                    f'<title>{_esc(name)} · run {run.label}: '
                    f'mean {_esc(_fmt_seconds(mean))} ± '
                    f'{_esc(_fmt_seconds(stddev))}</title></rect>'
                )
            parts.append(
                f'<line class="mean {cls}" x1="{sx0:.1f}" '
                f'y1="{y(mean):.1f}" x2="{sx1:.1f}" y2="{y(mean):.1f}">'
                f'<title>{_esc(name)} · run {run.label}: mean '
                f'{_esc(_fmt_seconds(mean))}</title></line>'
            )
            values = _series_values(stats)
            if values:
                points = _downsample(values)
                n = len(values)
                for index, value in points:
                    px = sx0 + (index + 0.5) / n * sub_w
                    parts.append(
                        f'<circle class="dot {cls}" cx="{px:.1f}" '
                        f'cy="{y(value):.1f}" r="2.5">'
                        f'<title>{_esc(name)} · run {run.label} · '
                        f'round {index + 1}: '
                        f'{_esc(_fmt_seconds(value))}</title></circle>'
                    )
            else:
                # No raw rounds recorded: a min/q1/median/q3/max glyph.
                mid = (sx0 + sx1) / 2.0
                lo = float(stats.get("min", mean) or 0.0)
                hi = float(stats.get("max", mean) or 0.0)
                q1 = float(stats.get("q1", lo) or 0.0)
                q3 = float(stats.get("q3", hi) or 0.0)
                median = float(stats.get("median", mean) or 0.0)
                parts.append(
                    f'<line class="whisker {cls}" x1="{mid:.1f}" '
                    f'y1="{y(lo):.1f}" x2="{mid:.1f}" y2="{y(hi):.1f}"/>'
                )
                parts.append(
                    f'<rect class="box {cls}" x="{mid - 6:.1f}" '
                    f'y="{y(q3):.1f}" width="12" '
                    f'height="{max(1.0, y(q1) - y(q3)):.1f}">'
                    f'<title>{_esc(name)} · run {run.label}: '
                    f'q1 {_esc(_fmt_seconds(q1))}, median '
                    f'{_esc(_fmt_seconds(median))}, q3 '
                    f'{_esc(_fmt_seconds(q3))}</title></rect>'
                )
                parts.append(
                    f'<line class="median {cls}" x1="{mid - 8:.1f}" '
                    f'y1="{y(median):.1f}" x2="{mid + 8:.1f}" '
                    f'y2="{y(median):.1f}"/>'
                )
        # Slot label (truncated to the slot, full name in the tooltip).
        budget = max(4, int(slot_w / 6.8))
        shown = name if len(name) <= budget else name[: budget - 1] + "…"
        parts.append(
            f'<text class="xlabel" x="{x0 + slot_w / 2:.1f}" '
            f'y="{_MT + plot_h + 16}" text-anchor="middle">'
            f'{_esc(shown)}<title>{_esc(name)}</title></text>'
        )
    parts.append(
        f'<text class="ylabel" x="{_ML}" y="{_MT - 3}" '
        f'text-anchor="start">{unit} / round</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


# -- panels ----------------------------------------------------------------

def _header_section(runs: Sequence[RunData], title: str) -> str:
    rows = []
    for run in runs:
        payload = run.payload
        commit = payload.get("commit_info")
        commit = commit if isinstance(commit, Mapping) else {}
        machine = payload.get("machine_info")
        machine = machine if isinstance(machine, Mapping) else {}
        labels = run.metadata_labels()
        sha = labels.get("git_sha") or commit.get("id") or "unknown"
        host = labels.get("hostname") or machine.get("node") or "unknown"
        extra = ", ".join(
            f"{key}={value}" for key, value in sorted(labels.items())
            if key not in ("git_sha", "hostname")
        )
        chip = (
            f'<span class="chip r{run.label}"></span>'
            if len(runs) > 1 else ""
        )
        rows.append(
            "<tr>"
            f"<td>{chip}<strong>{_esc(run.label)}</strong></td>"
            f"<td><code>{_esc(Path(run.path).name)}</code></td>"
            f"<td><code>{_esc(str(sha)[:12])}</code>"
            f"{' (dirty)' if commit.get('dirty') else ''}</td>"
            f"<td>{_esc(host)}</td>"
            f"<td>{_esc(payload.get('datetime') or 'n/a')}</td>"
            f"<td>{_esc(extra) if extra else '—'}</td>"
            "</tr>"
        )
    return (
        f"<header><h1>{_esc(title)}</h1>"
        '<table class="meta"><thead><tr><th>run</th><th>file</th>'
        "<th>commit</th><th>host</th><th>recorded</th><th>labels</th>"
        "</tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table></header>"
    )


def _tiles_section(
    runs: Sequence[RunData], families: "dict[str, list[str]]"
) -> str:
    benchmarks = {name for run in runs for name in run.names}
    rounds = 0
    for run in runs:
        for entry in run.entries:
            value = entry["stats"].get("rounds")
            if isinstance(value, (int, float)):
                rounds += int(value)
    tiles = [
        ("runs", str(len(runs))),
        ("benchmarks", str(len(benchmarks))),
        ("families", str(len(families))),
        ("rounds recorded", f"{rounds:,}"),
    ]
    cells = "".join(
        f'<div class="tile"><div class="tile-value">{_esc(value)}</div>'
        f'<div class="tile-label">{_esc(label)}</div></div>'
        for label, value in tiles
    )
    return f'<section class="tiles">{cells}</section>'


def _legend(runs: Sequence[RunData]) -> str:
    if len(runs) < 2:
        return ""
    items = "".join(
        f'<span class="legend-item"><span class="chip r{run.label}"></span>'
        f"run {_esc(run.label)} · "
        f"<code>{_esc(Path(run.path).name)}</code></span>"
        for run in runs
    )
    return f'<div class="legend">{items}</div>'


def _plots_section(
    runs: Sequence[RunData], families: "dict[str, list[str]]"
) -> str:
    blocks = []
    for family, names in families.items():
        blocks.append(
            '<figure class="family">'
            f"<figcaption><h3>{_esc(family)}</h3>"
            "<p>per-round duration · line = mean · "
            "band = ±stddev</p></figcaption>"
            + _family_svg(family, names, runs)
            + "</figure>"
        )
    return (
        "<section><h2>Variance by benchmark family</h2>"
        + _legend(runs)
        + "".join(blocks)
        + "</section>"
    )


def _summary_section(runs: Sequence[RunData]) -> str:
    head = (
        "<tr><th>benchmark</th><th>run</th><th>mean</th><th>stddev</th>"
        "<th>CoV</th><th>p50</th><th>p90</th><th>p99</th><th>rounds</th>"
        "<th>req/s</th></tr>"
    )
    rows = []
    names_seen: "list[str]" = []
    for run in runs:
        for name in run.names:
            if name not in names_seen:
                names_seen.append(name)
    for name in names_seen:
        for run in runs:
            stats = run.stats_by_name().get(name)
            if stats is None:
                continue
            mean = float(stats.get("mean", 0.0) or 0.0)
            stddev = float(stats.get("stddev", 0.0) or 0.0)
            cov = (stddev / mean) if mean else 0.0

            def cell(key: str) -> str:
                value = stats.get(key)
                if isinstance(value, (int, float)):
                    return _esc(_fmt_seconds(float(value)))
                return "—"

            rps = stats.get("throughput_rps")
            chip = (
                f'<span class="chip r{run.label}"></span>'
                if len(runs) > 1 else ""
            )
            rows.append(
                "<tr>"
                f"<td>{_esc(name)}</td>"
                f"<td>{chip}{_esc(run.label)}</td>"
                f"<td>{_esc(_fmt_seconds(mean))}</td>"
                f"<td>{_esc(_fmt_seconds(stddev))}</td>"
                f"<td>{_esc(_fmt_pct(cov))}</td>"
                f"<td>{cell('p50')}</td><td>{cell('p90')}</td>"
                f"<td>{cell('p99')}</td>"
                f"<td>{_esc(_fmt_count(stats.get('rounds', 0) or 0))}</td>"
                f"<td>{_esc(f'{rps:,.1f}') if isinstance(rps, (int, float)) else '—'}</td>"
                "</tr>"
            )
    return (
        "<section><h2>Summary</h2>"
        '<table class="data"><thead>' + head + "</thead><tbody>"
        + "".join(rows) + "</tbody></table></section>"
    )


def _delta_section(
    runs: Sequence[RunData],
    metric: str,
    threshold: float,
) -> str:
    if len(runs) != 2:
        return ""
    base, new = runs[0].stats_by_name(), runs[1].stats_by_name()
    try:
        deltas, base_only, new_only = diff_benchmarks(
            base, new, metric=metric, threshold=threshold,
        )
    except ConfigurationError as exc:
        return (
            "<section><h2>A → B delta</h2>"
            f"<p class='note'>not comparable: {_esc(exc)}</p></section>"
        )
    rows = []
    for delta in deltas:
        if delta.regression > threshold:
            verdict = '<span class="verdict bad">▲ REGRESSED</span>'
        elif delta.regression < -threshold:
            verdict = '<span class="verdict good">▼ improved</span>'
        else:
            verdict = '<span class="verdict">≈ ok</span>'
        rows.append(
            "<tr>"
            f"<td>{_esc(delta.name)}</td>"
            f"<td>{_esc(delta.metric)}</td>"
            f"<td>{_esc(_fmt_seconds(delta.base))}</td>"
            f"<td>{_esc(_fmt_seconds(delta.new))}</td>"
            f"<td>{_esc(f'{delta.change:+.1%}')}</td>"
            f"<td>±{_esc(f'{threshold:.1%}')}</td>"
            f"<td>{verdict}</td>"
            "</tr>"
        )
    notes = []
    if base_only:
        notes.append(f"only in A: {', '.join(base_only)}")
    if new_only:
        notes.append(f"only in B: {', '.join(new_only)}")
    regressed = regressions(deltas, threshold)
    notes.append(
        f"{len(regressed)} regression(s) beyond threshold"
        if regressed else "clean: no regression beyond threshold"
    )
    return (
        "<section><h2>A → B delta</h2>"
        '<table class="data"><thead><tr><th>benchmark</th><th>metric</th>'
        "<th>A</th><th>B</th><th>Δ</th><th>threshold</th>"
        "<th>verdict</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table>"
        + "".join(f"<p class='note'>{_esc(note)}</p>" for note in notes)
        + "</section>"
    )


def _meter(label: str, fraction: float, detail: str) -> str:
    width = max(0.0, min(1.0, fraction)) * 100.0
    return (
        '<div class="meter-row">'
        f'<span class="meter-label">{_esc(label)}</span>'
        f'<span class="meter"><span class="fill" '
        f'style="width:{width:.1f}%"></span></span>'
        f'<span class="meter-value">{_esc(detail)}</span>'
        "</div>"
    )


def _selftime_section(trace: "Mapping[str, Any] | None") -> str:
    if not trace:
        return ""
    layers = [
        layer for layer in trace.get("layers", [])
        if isinstance(layer, Mapping)
    ]
    if not layers:
        return ""
    rows = []
    for layer in layers:
        self_us = float(layer.get("self_us", 0) or 0)
        share = float(layer.get("share", 0.0) or 0.0)
        instructions = layer.get("instructions", 0) or 0
        detail = f"{_fmt_seconds(self_us / 1e6)} · {_fmt_pct(share)}"
        if instructions:
            detail += f" · {int(instructions):,} instr"
        rows.append(_meter(str(layer.get("layer", "?")), share, detail))
    caption = ""
    if trace.get("artifact"):
        caption = (
            f"<p class='note'>traced artifact: "
            f"<code>{_esc(trace['artifact'])}</code>, wall "
            f"{_esc(_fmt_seconds(float(trace.get('wall_us', 0) or 0) / 1e6))}"
            "</p>"
        )
    return (
        "<section><h2>Per-layer self time</h2>" + caption
        + '<div class="panel">' + "".join(rows) + "</div></section>"
    )


# -- document --------------------------------------------------------------

_CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --s1: #2a78d6; --s2: #eb6834;
  --good: #006300; --bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --s1: #3987e5; --s2: #d95926;
    --good: #0ca30c; --bad: #d03b3b;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px 20px 48px; max-width: 960px;
  background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 22px; margin: 0 0 12px; }
h2 { font-size: 16px; margin: 28px 0 10px; }
h3 { font-size: 13px; margin: 12px 0 4px; color: var(--ink-2); }
code { font-size: 12px; }
figure.family { margin: 0 0 18px; }
figcaption h3 { display: inline; margin-right: 8px; color: var(--ink); }
figcaption p { display: inline; color: var(--muted); font-size: 12px; margin: 0; }
svg.chart {
  display: block; width: 100%; height: auto; margin-top: 4px;
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px;
}
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .tick, svg .xlabel, svg .ylabel {
  fill: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums;
}
svg .ylabel { font-size: 10px; }
svg .dot { opacity: 0.75; }
svg .dot.s1, svg .mean.s1, svg .whisker.s1, svg .median.s1 { stroke: var(--s1); }
svg .dot.s1, svg .band.s1, svg .box.s1 { fill: var(--s1); }
svg .dot.s2, svg .mean.s2, svg .whisker.s2, svg .median.s2 { stroke: var(--s2); }
svg .dot.s2, svg .band.s2, svg .box.s2 { fill: var(--s2); }
svg .dot { stroke: none; }
svg .band { opacity: 0.14; }
svg .box { opacity: 0.25; }
svg .mean { stroke-width: 2; }
svg .median { stroke-width: 2; }
svg .whisker { stroke-width: 1.5; }
table { border-collapse: collapse; width: 100%; margin: 6px 0; }
th, td {
  text-align: left; padding: 5px 10px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--muted); font-weight: 600; font-size: 12px; }
table.meta td { font-size: 13px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; padding: 10px 16px; min-width: 110px;
}
.tile-value { font-size: 22px; font-weight: 600; }
.tile-label { color: var(--muted); font-size: 12px; }
.legend { margin: 4px 0 10px; font-size: 12px; color: var(--ink-2); }
.legend-item { margin-right: 18px; }
.chip {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 6px; vertical-align: baseline;
}
.chip.rA { background: var(--s1); }
.chip.rB { background: var(--s2); }
.verdict { color: var(--ink-2); }
.verdict.bad { color: var(--bad); font-weight: 600; }
.verdict.good { color: var(--good); font-weight: 600; }
.panel {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; padding: 10px 14px; margin: 8px 0;
}
.meter-row {
  display: flex; align-items: center; gap: 10px; margin: 6px 0;
}
.meter-label { flex: 0 0 190px; color: var(--ink-2); font-size: 13px; }
.meter {
  flex: 1; height: 8px; background: var(--grid); border-radius: 4px;
  overflow: hidden;
}
.meter .fill {
  display: block; height: 100%; background: var(--s1);
  border-radius: 4px;
}
.meter-value {
  flex: 0 0 auto; color: var(--muted); font-size: 12px;
  font-variant-numeric: tabular-nums;
}
.note { color: var(--muted); font-size: 12px; margin: 4px 0; }
footer {
  margin-top: 36px; color: var(--muted); font-size: 12px;
  border-top: 1px solid var(--grid); padding-top: 10px;
}
"""


def render_report(
    runs: Sequence[RunData],
    trace: "Mapping[str, Any] | None" = None,
    title: "str | None" = None,
    metric: str = DEFAULT_METRIC,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """The complete self-contained HTML document for 1 or 2 runs."""
    if not 1 <= len(runs) <= 2:
        raise ConfigurationError(
            f"a report covers one or two runs, got {len(runs)}"
        )
    families = report_families(runs)
    title = title or (
        "repro run report — "
        + " vs ".join(Path(run.path).name for run in runs)
    )
    body = [
        _header_section(runs, title),
        _tiles_section(runs, families),
        _delta_section(runs, metric, threshold),
        _plots_section(runs, families),
        _summary_section(runs),
        _selftime_section(trace),
        "<footer>generated by <code>repro report</code> · "
        "self-contained: inline CSS and SVG, no scripts, no external "
        "references · see docs/reports.md</footer>",
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head><body>\n"
        + "\n".join(part for part in body if part)
        + "\n</body></html>\n"
    )


def write_report(
    out_path: "str | Path",
    run_paths: "Sequence[str | Path]",
    trace_path: "str | Path | None" = None,
    title: "str | None" = None,
    metric: str = DEFAULT_METRIC,
    threshold: float = DEFAULT_THRESHOLD,
) -> "tuple[Path, int]":
    """Load, render and write; returns (path, svg count).

    The count is one family plot per benchmark family — feed it to
    :func:`validate_report_text`.
    """
    runs = [
        load_run(path, label=RUN_LABELS[i])
        for i, path in enumerate(run_paths)
    ]
    trace = load_trace(trace_path) if trace_path is not None else None
    text = render_report(
        runs, trace=trace, title=title, metric=metric,
        threshold=threshold,
    )
    out_path = Path(out_path)
    out_path.write_text(text)
    return out_path, len(report_families(runs))


# -- validation ------------------------------------------------------------

_EXTERNAL_ATTRS = ("src", "href", "xlink:href", "data", "poster", "action")
_FORBIDDEN_TAGS = ("script", "link", "iframe", "object", "embed")


class _ReportChecker(HTMLParser):
    """Counts structure and hunts external references."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.svg_open = 0
        self.svg_close = 0
        self.html_open = 0
        self.html_close = 0
        self.problems: "list[str]" = []

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "svg":
            self.svg_open += 1
        if tag == "html":
            self.html_open += 1
        if tag in _FORBIDDEN_TAGS:
            self.problems.append(f"forbidden element <{tag}>")
        for name, value in attrs:
            if value is None:
                continue
            lowered = value.strip().lower()
            if name in _EXTERNAL_ATTRS and (
                lowered.startswith(("http:", "https:", "//", "ftp:"))
            ):
                self.problems.append(
                    f"external reference in <{tag} {name}={value!r}>"
                )
            if name == "style" and "url(" in lowered and "http" in lowered:
                self.problems.append(
                    f"external url() in <{tag} style=...>"
                )

    def handle_endtag(self, tag: str) -> None:
        if tag == "svg":
            self.svg_close += 1
        if tag == "html":
            self.html_close += 1


def validate_report_text(
    text: str, expect_svgs: "int | None" = None
) -> "list[str]":
    """Problems with a rendered report ([] = valid).

    Checks: parses as an HTML document (doctype, one balanced
    ``<html>``), balanced ``<svg>`` elements (exactly ``expect_svgs``
    of them when given), no ``<script>``/``<link>``/frame elements,
    and zero external references — ``http(s)://`` may not appear
    anywhere in the file, which is what "opens offline, forever"
    actually requires.
    """
    problems: "list[str]" = []
    if not text.lstrip().lower().startswith("<!doctype html"):
        problems.append("missing <!DOCTYPE html> prologue")
    checker = _ReportChecker()
    try:
        checker.feed(text)
        checker.close()
    except Exception as exc:  # HTMLParser is lenient; belt and braces
        problems.append(f"HTML failed to parse: {exc}")
        return problems
    problems.extend(checker.problems)
    if checker.html_open != 1 or checker.html_close != 1:
        problems.append(
            f"expected one balanced <html> element, found "
            f"{checker.html_open} open / {checker.html_close} close"
        )
    if checker.svg_open != checker.svg_close:
        problems.append(
            f"unbalanced <svg>: {checker.svg_open} open, "
            f"{checker.svg_close} close"
        )
    if expect_svgs is not None and checker.svg_open != expect_svgs:
        problems.append(
            f"expected {expect_svgs} <svg> plot(s) "
            f"(one per benchmark family), found {checker.svg_open}"
        )
    for match in re.finditer(r"https?://|ftp://", text, re.IGNORECASE):
        problems.append(
            f"external URL at offset {match.start()}: "
            f"{text[match.start():match.start() + 40]!r}"
        )
        break  # one is enough to fail; don't spam
    return problems


def main(argv: "Sequence[str] | None" = None) -> int:
    """``python -m repro.obs.htmlreport report.html [bench.json ...]``

    Validates a rendered report offline: well-formed, self-contained,
    and carrying one ``<svg>`` per benchmark family of the given
    source result files (or ``--expect-svgs N``).  Exit 0 valid,
    1 invalid, 2 usage errors.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.htmlreport",
        description="validate a 'repro report' HTML file offline",
    )
    parser.add_argument("report", help="the rendered HTML file")
    parser.add_argument(
        "benchmarks", nargs="*",
        help="the source result file(s); sets the expected plot count",
    )
    parser.add_argument(
        "--expect-svgs", type=int, default=None, metavar="N",
        help="expected number of <svg> plots (overrides 'benchmarks')",
    )
    args = parser.parse_args(argv)
    try:
        text = Path(args.report).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.report}: {exc}", file=sys.stderr)
        return 2
    expect = args.expect_svgs
    if expect is None and args.benchmarks:
        try:
            expect = expected_svg_count(args.benchmarks)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    problems = validate_report_text(text, expect_svgs=expect)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    svgs = text.count("<svg")
    print(
        f"{args.report}: valid self-contained report "
        f"({svgs} plot(s), {len(text)} bytes)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
