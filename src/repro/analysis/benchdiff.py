"""``repro bench diff`` — compare two pytest-benchmark result files.

Performance numbers in CI are noisy; a raw "is B slower than A"
comparison flags phantom regressions on every run.  This tool compares
one stats metric (``mean`` by default) per benchmark *name* across two
result files and only calls a change a regression when it exceeds a
relative noise threshold: one ``--threshold`` for every benchmark,
10% by default — above the run-to-run jitter observed for the repo's
bench-smoke workloads, low enough to catch a real algorithmic slip.

Direction matters: for time-valued metrics (``mean``, ``median``,
``min``, percentiles...) bigger is worse; for rate-valued metrics
(``ops``, ``throughput_rps``) bigger is better.  Benchmarks present in
only one file are reported but never fail the diff — renaming a
benchmark must not masquerade as a regression, and a first run has no
baseline at all.

Exit codes follow the CLI convention: 0 clean, 1 at least one
regression beyond the threshold, 2 usage errors
(unreadable, truncated, empty or non-pytest-benchmark files, unknown
metric).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError

#: Metrics where a larger value is an improvement, not a regression.
HIGHER_IS_BETTER = frozenset(("ops", "throughput_rps"))

DEFAULT_METRIC = "mean"
DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True)
class BenchDelta:
    """One benchmark's change between the baseline and the candidate."""

    name: str
    metric: str
    base: float
    new: float
    #: Relative change in the metric (positive = metric grew).
    change: float
    #: Positive when the change is a slowdown (direction-adjusted).
    regression: float

    def render(self, threshold: float) -> str:
        if self.base == 0:
            shape = "baseline 0"
        else:
            shape = f"{self.change:+.1%}"
        verdict = "ok"
        if self.regression > threshold:
            verdict = "REGRESSED"
        elif self.regression < -threshold:
            verdict = "improved"
        return (
            f"{self.name:<32} {self.metric}: "
            f"{self.base:.6g} -> {self.new:.6g}  ({shape})  {verdict}"
        )


def load_payload(path: "str | Path") -> Mapping[str, Any]:
    """The parsed top-level object of a benchmark result file.

    Every malformed shape a truncated or hand-rolled file can take —
    missing, unreadable, empty, invalid JSON, or a top level that is
    not an object — is a :class:`ConfigurationError`, so CLI callers
    exit 2 with one clear line instead of a traceback.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigurationError(f"benchmark file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(
            f"benchmark file {path} is unreadable: {exc}"
        ) from None
    if not text.strip():
        raise ConfigurationError(f"benchmark file {path} is empty")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"benchmark file {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"benchmark file {path} is not a pytest-benchmark result "
            f"(top level is {type(payload).__name__}, expected an object)"
        )
    return payload


def load_benchmarks(path: "str | Path") -> dict[str, dict[str, Any]]:
    """name -> stats mapping from a pytest-benchmark JSON file."""
    benchmarks = load_payload(path).get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ConfigurationError(
            f"benchmark file {path} has no 'benchmarks' list"
        )
    out: dict[str, dict[str, Any]] = {}
    for entry in benchmarks:
        if not isinstance(entry, Mapping):
            continue
        name = entry.get("name")
        stats = entry.get("stats")
        if isinstance(name, str) and isinstance(stats, Mapping):
            # Percentiles and throughput live in extra_info for files
            # written by pytest-benchmark itself; fold them in so the
            # same metric name works regardless of the writer.
            merged = dict(stats)
            extra = entry.get("extra_info")
            if isinstance(extra, Mapping):
                for key, value in extra.items():
                    if isinstance(value, (int, float)):
                        merged.setdefault(key, value)
            out[name] = merged
    if not out:
        raise ConfigurationError(
            f"benchmark file {path} contains no benchmarks"
        )
    return out


def _metric_value(stats: Mapping[str, Any], metric: str, name: str) -> float:
    value = stats.get(metric)
    if not isinstance(value, (int, float)):
        known = ", ".join(
            sorted(k for k, v in stats.items() if isinstance(v, (int, float)))
        )
        raise ConfigurationError(
            f"benchmark {name!r} has no numeric metric {metric!r}; "
            f"available: {known}"
        )
    return float(value)


def diff_benchmarks(
    base: Mapping[str, Mapping[str, Any]],
    new: Mapping[str, Mapping[str, Any]],
    metric: str = DEFAULT_METRIC,
    threshold: float = DEFAULT_THRESHOLD,
) -> "tuple[list[BenchDelta], list[str], list[str]]":
    """Compare common benchmarks; returns (deltas, base_only, new_only)."""
    common = sorted(set(base) & set(new))
    base_only = sorted(set(base) - set(new))
    new_only = sorted(set(new) - set(base))
    deltas: "list[BenchDelta]" = []
    for name in common:
        old = _metric_value(base[name], metric, name)
        cur = _metric_value(new[name], metric, name)
        change = (cur - old) / old if old != 0 else (0.0 if cur == 0 else 1.0)
        regression = -change if metric in HIGHER_IS_BETTER else change
        deltas.append(BenchDelta(
            name=name, metric=metric, base=old, new=cur,
            change=change, regression=regression,
        ))
    # Worst offender first, so CI logs lead with the problem.
    deltas.sort(key=lambda d: d.regression, reverse=True)
    return deltas, base_only, new_only


def regressions(
    deltas: "list[BenchDelta]", threshold: float
) -> "list[BenchDelta]":
    """The deltas beyond the noise threshold."""
    return [d for d in deltas if d.regression > threshold]


def render_diff(
    deltas: "list[BenchDelta]",
    base_only: "list[str]",
    new_only: "list[str]",
    threshold: float,
) -> str:
    lines: "list[str]" = []
    if not deltas:
        lines.append(
            "no common benchmarks to compare (different suites?); "
            "nothing to flag"
        )
    for delta in deltas:
        lines.append(delta.render(threshold))
    if base_only:
        lines.append(f"only in baseline: {', '.join(base_only)}")
    if new_only:
        lines.append(f"only in candidate: {', '.join(new_only)}")
    regressed = regressions(deltas, threshold)
    band = f"the {threshold:.0%} noise threshold"
    if regressed:
        lines.append(f"{len(regressed)} regression(s) beyond {band}")
    else:
        lines.append(f"clean: no regression beyond {band}")
    return "\n".join(lines)


def diff_files(
    base_path: "str | Path",
    new_path: "str | Path",
    metric: str = DEFAULT_METRIC,
    threshold: float = DEFAULT_THRESHOLD,
) -> "tuple[int, str]":
    """(exit_code, report_text) for the CLI and CI."""
    deltas, base_only, new_only = diff_benchmarks(
        load_benchmarks(base_path),
        load_benchmarks(new_path),
        metric=metric,
        threshold=threshold,
    )
    text = render_diff(deltas, base_only, new_only, threshold)
    code = 1 if regressions(deltas, threshold) else 0
    return code, text
