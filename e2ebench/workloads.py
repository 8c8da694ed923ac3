"""The benchmark's workloads and how each one's output is read.

Each workload is one cold workload process running one or more ``repro
reproduce`` commands, with the benchmark's ``--seed`` passed as the
sweep seed. ``rows`` holds the number of artifact result rows each
command produces (measured at seed 0; a sweep's shape does not depend
on its seed). ``paper_errors`` reads the workload's stdout and returns
``|reproduced - paper| / |paper|`` for each paper number its artifacts
quote in ``repro/experiments/paper_data.py``.

Why these four (see README.md for the layer predictions):

* ``cli-cold``: the most common interactive command; start-up dominates.
* ``loop-sweep``: the only artifact where the loop engine, timer
  interrupts and fast-forward do real work.
* ``null-matrix``: harness paths (infra, kext syscalls, boots) with an
  idle loop engine, then the result cache's hit path and the ANOVA.
* ``parallel-overview``: the only workload through the warm backend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    #: Argument lists for ``repro.cli.main``, without ``--seed``.
    commands: tuple[tuple[str, ...], ...]
    #: Result rows of each command (its cache hits plus misses).
    rows: tuple[int, ...]
    paper_errors: Callable[[str, dict], list[float]]

    def argv(self, seed: int) -> list[list[str]]:
        return [[*command, "--seed", str(seed)] for command in self.commands]


def _number(text: str) -> float:
    return float(text.replace(",", ""))


def _rel(reproduced: float, paper: float) -> float:
    return abs(reproduced - paper) / abs(paper)


def _figure4(stdout: str, paper: dict) -> list[float]:
    """figure4 vs FIGURE4: the two read-read user medians."""
    match = re.search(
        r"read-read user median: ([\d,.]+) \(TSC off\) -> ([\d,.]+) \(TSC on\)",
        stdout,
    )
    if match is None:
        raise ValueError("figure4 report lacks the read-read median line")
    figure = paper["FIGURE4"]
    return [
        _rel(_number(match.group(1)), figure["rr_median_tsc_off"]),
        _rel(_number(match.group(2)), figure["rr_median_tsc_on"]),
    ]


def _figure8(stdout: str, paper: dict) -> list[float]:
    """figure8 vs FIGURE8: the largest |slope| and the pm-on-K8 slope."""
    figure = paper["FIGURE8"]
    top = re.search(r"max \|slope\| = (\S+) ", stdout)
    header = re.search(r"^infra((?:\s+\w+)+)\s*$", stdout, re.MULTILINE)
    row = re.search(r"^pm((?:\s+\S+)+)\s*$", stdout, re.MULTILINE)
    if top is None or header is None or row is None:
        raise ValueError("figure8 report lacks its slope table")
    slopes = dict(zip(header.group(1).split(), row.group(1).split()))
    return [
        _rel(float(top.group(1)), figure["abs_slope_max"]),
        _rel(float(slopes["K8"]), figure[("pm", "K8")]),
    ]


def _table3(stdout: str, paper: dict) -> list[float]:
    """figure6+table3 vs TABLE3: each tool's best-pattern median error."""
    rows = re.findall(
        r"^(user\+kernel|user)\s+(\S+)\s+\w+\s+([\d,.]+)\s+[\d,.]+\s+\(",
        stdout,
        re.MULTILINE,
    )
    table = paper["TABLE3"]
    if len(rows) != len(table):
        raise ValueError(f"table3 report has {len(rows)} rows, want {len(table)}")
    return [
        _rel(_number(median), table[(mode, tool)]["median"])
        for mode, tool, median in rows
    ]


def _figure1(stdout: str, paper: dict) -> list[float]:
    """figure1 vs FIGURE1: user IQR, user tail, user+kernel tail.

    The paper's tails are "errors of N or more", compared with the
    largest reproduced error. Its 170000-measurement count describes
    the paper's sweep size, not a result, and is left out.
    """
    stats = {
        key: dict(re.findall(r"(\w+)=([\d,.]+)", line))
        for key, line in re.findall(
            r"^\s*(user\+kernel|user): (min=.*)$", stdout, re.MULTILINE
        )
    }
    if set(stats) != {"user", "user+kernel"}:
        raise ValueError("figure1 report lacks its per-mode summary lines")
    figure = paper["FIGURE1"]
    return [
        _rel(_number(stats["user"]["iqr"]), figure["user_iqr_approx"]),
        _rel(_number(stats["user"]["max"]), figure["user_tail_at_least"]),
        _rel(_number(stats["user+kernel"]["max"]),
             figure["user_kernel_tail_at_least"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-cold", (("reproduce", "figure4"),), (1280,), _figure4),
        Workload("loop-sweep", (("reproduce", "figure8"),), (4860,), _figure8),
        Workload(
            "null-matrix",
            (("reproduce", "figure6+table3"), ("reproduce", "section4.3")),
            (3840, 1920),
            _table3,
        ),
        Workload(
            "parallel-overview",
            (("reproduce", "figure1", "--jobs", "2"),),
            (5760,),
            _figure1,
        ),
    )
}
