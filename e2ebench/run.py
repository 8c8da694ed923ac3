"""End-to-end benchmark: cold ``repro reproduce`` processes, timed and traced.

Usage, from the root of the repository::

    python3 e2ebench/run.py --workload cli-cold --seed 0 --seconds 25 --trace 0

Each invocation starts a fresh workload process (``probe.py``, which
calls ``repro.cli.main`` as ``python -m repro`` does) in an empty
temporary directory under ``e2ebench/.work/`` with every ``REPRO_*``
variable removed from its environment. Invocations run one after
another (a closed loop with one client) until the next one would end
past ``--seconds``. Every invocation's stdout is checked: its digest
against ``references.json`` (or, for a seed without a reference, against
the run's first invocation), and its per-command result-row counts.

``--trace 0`` prints the end-to-end metrics (medians over invocations);
``--trace 1`` alternates untraced and traced invocations and prints the
per-layer metrics of the traced ones (see README.md). The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.util
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layertrace
from probe import SETUP_MARKER
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

#: An invocation still running after this long has failed.
INVOCATION_TIMEOUT_S = 60.0
#: How long the process group of a finished invocation may take to empty.
GROUP_GRACE_S = 10.0
#: Fewest invocations a run makes, whatever --seconds says: an untraced
#: run takes medians of three; a traced run needs two traced invocations
#: for the count self-check and untraced ones to compare them with.
MIN_UNTRACED = 3
MIN_PAIRS = 2

_CACHE_LINE = re.compile(r"^cache: (\d+) hits / (\d+) misses", re.MULTILINE)


@dataclass
class Invocation:
    traced: bool
    failure: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stdout: bytes = b""
    digest: str = ""
    stderr: str = ""
    layers: dict = field(default_factory=dict)

    @property
    def timed(self) -> bool:
        """Whether the process ran to completion, so its times are valid."""
        return self.setup_s > 0.0


def hermetic_env() -> dict[str, str]:
    """This process's environment without any ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _stop_group(pgid: int) -> None:
    """Wait for the invocation's process group to empty; kill stragglers.

    Members that outlive a SIGKILL and the grace after it can only be
    zombies nobody reaps; they no longer run, so they are reported and
    left.
    """
    deadline = time.monotonic() + GROUP_GRACE_S
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                print(f"warning: process group {pgid} left unreaped members",
                      file=sys.stderr)
                return
            _kill_group(pgid)
            killed = True
            deadline = time.monotonic() + GROUP_GRACE_S
        time.sleep(0.01)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@contextlib.contextmanager
def work_area():
    """A private directory under ``e2ebench/.work/``, removed afterwards."""
    parent = BENCH_DIR / ".work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # fails while another run still uses it


def invoke(workload: Workload, seed: int, traced: bool, work_root: Path) -> Invocation:
    """One cold workload process, timed from spawn to exit."""
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    inv = Invocation(traced=traced)
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [
        str(BENCH_DIR / "probe.py"),
        "1" if traced else "0",
        json.dumps(workload.argv(seed)),
    ]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=workdir, env=hermetic_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        except BaseException:
            _kill_group(proc.pid)  # interrupted: leave nothing running
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    inv.stdout = (workdir / "stdout").read_bytes()
    inv.digest = hashlib.sha256(inv.stdout).hexdigest()
    inv.stderr = (workdir / "stderr").read_text(errors="replace")
    probe = workdir / "probe.json"
    if proc.returncode != 0 or not probe.exists():
        inv.failure = f"exit status {proc.returncode}"
        if exited - spawned >= INVOCATION_TIMEOUT_S:
            inv.failure = f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"
    else:
        marks = json.loads(probe.read_text())
        inv.wall_s = exited - spawned
        inv.setup_s = marks["setup_done"] - spawned
        inv.cpu_s = usage.ru_utime + usage.ru_stime
        inv.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        rows = tuple(int(h) + int(m) for h, m in _CACHE_LINE.findall(inv.stderr))
        if rows != workload.rows:
            inv.failure = f"result rows {rows}, want {workload.rows}"
        elif traced:
            inv.layers = _traced_layers(inv, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    return inv


def _traced_layers(inv: Invocation, workdir: Path) -> dict[str, float]:
    workers = sorted(workdir.glob("spans-worker-*.pkl"))
    reduced = layertrace.reduce_dumps([workdir / "spans-coordinator.pkl", *workers])
    spawned = int(reduced["registry"]["repro_backend_workers_spawned"])
    if len(workers) != spawned:
        inv.failure = f"{len(workers)} of {spawned} worker span dumps"
        return {}
    metrics = layertrace.layer_metrics(reduced)
    metrics.update(layertrace.import_times(inv.stderr, SETUP_MARKER))
    metrics["startup.self_s"] = inv.setup_s
    attributed = inv.setup_s + reduced["coordinator_self_s"]
    metrics["trace.unattributed_frac"] = (inv.wall_s - attributed) / inv.wall_s
    return metrics


def load_paper_data() -> dict:
    """``repro/experiments/paper_data.py``'s tables, without importing repro."""
    path = SRC / "repro" / "experiments" / "paper_data.py"
    spec = importlib.util.spec_from_file_location("paper_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return vars(module)


def check_outputs(invocations: list[Invocation], reference: "str | None") -> None:
    """Mark every invocation whose stdout differs from the reference.

    Without a committed reference for this seed, the run's first
    complete invocation is the reference: the output must at least be
    deterministic.
    """
    if reference is None:
        reference = next((i.digest for i in invocations if not i.failure), None)
    for inv in invocations:
        if not inv.failure and inv.digest != reference:
            inv.failure = f"stdout digest {inv.digest[:12]} differs from reference"


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_root: Path) -> list[Invocation]:
    """Invocations until the next would end past ``seconds``."""
    invocations: list[Invocation] = []
    start = time.monotonic()
    longest = {False: 0.0, True: 0.0}
    while True:
        untraced = sum(not i.traced for i in invocations)
        traced = len(invocations) - untraced
        # Traced runs alternate with untraced ones, untraced first.
        kind = trace and traced < untraced
        short = traced < MIN_PAIRS if trace else untraced < MIN_UNTRACED
        if not short and time.monotonic() - start + longest[kind] > seconds:
            return invocations
        t0 = time.monotonic()
        invocations.append(invoke(workload, seed, kind, work_root))
        longest[kind] = max(longest[kind], time.monotonic() - t0)


def end_to_end(workload: Workload, invocations: list[Invocation]) -> dict[str, float]:
    timed = [i for i in invocations if i.timed and not i.traced]
    rows = sum(workload.rows)
    return {
        "wall_s": statistics.median([i.wall_s for i in timed]),
        "setup_s": statistics.median([i.setup_s for i in timed]),
        "cpu_s": statistics.median([i.cpu_s for i in timed]),
        "rows_per_s": statistics.median([rows / (i.wall_s - i.setup_s) for i in timed]),
        "peak_rss_mb": statistics.median([i.peak_rss_mb for i in timed]),
    }


def per_layer(invocations: list[Invocation]) -> "tuple[dict[str, float], list[str]]":
    traced = [i for i in invocations if i.traced and i.layers]
    untraced = [i for i in invocations if not i.traced and i.timed]
    metrics = {
        key: statistics.median(i.layers[key] for i in traced)
        for key in traced[0].layers
    }
    # Exact counts are reported as counted, and must agree everywhere.
    drift = [
        key for key in layertrace.EXACT_COUNTS
        if len({i.layers[key] for i in traced}) > 1
    ]
    for key in layertrace.EXACT_COUNTS:
        metrics[key] = traced[0].layers[key]
    metrics["trace.overhead_frac"] = (
        statistics.median(i.wall_s for i in traced)
        / statistics.median(i.wall_s for i in untraced) - 1.0
    )
    metrics["trace.count_drift"] = len(drift)
    return metrics, drift


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MiB", "_frac": "ratio",
         "_ratio": "ratio", "_err": "ratio", "_per_s": "1/s",
         "_per_job": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so the running
    # invocation is killed and the scratch directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # What an install does once: byte-compile, so no invocation pays it.
    compileall.compile_dir(str(SRC), quiet=1)
    references = json.loads(REFERENCES.read_text())
    reference = references.get(workload.name, {}).get(str(args.seed))

    with work_area() as work_root:
        invocations = measure(
            workload, args.seed, args.seconds, bool(args.trace), work_root
        )
    check_outputs(invocations, reference)
    paper_rel_err = float("nan")
    passing = next((i for i in invocations if not i.failure), None)
    if passing is not None:
        # Outside the timed interval: a passing invocation's report
        # against the paper's published numbers.
        try:
            errors = workload.paper_errors(passing.stdout.decode(), load_paper_data())
            paper_rel_err = statistics.median(errors)
        except ValueError as exc:
            for inv in invocations:
                if inv.digest == passing.digest:
                    inv.failure = f"unreadable report: {exc}"
    failed = [i for i in invocations if i.failure]
    for inv in failed:
        print(f"invocation failed: {inv.failure}", file=sys.stderr)
        print(inv.stderr[-2000:], file=sys.stderr)
    if not any(i.timed and not i.traced for i in invocations) or (
        args.trace and not any(i.layers for i in invocations)
    ):
        print("error: no invocation completed", file=sys.stderr)
        return 1

    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(invocations)} invocation(s), {len(failed)} failed"
          + ("" if reference else " (no committed reference for this seed)"))
    drift: list[str] = []
    if args.trace:
        metrics, drift = per_layer(invocations)
        for key in drift:
            values = sorted({i.layers[key] for i in invocations if i.layers})
            print(f"count drift: {key} took values {values}", file=sys.stderr)
    else:
        metrics = end_to_end(workload, invocations)
        shown = dict(metrics)
        shown["paper_rel_err"] = paper_rel_err
        shown["fail_frac"] = len(failed) / len(invocations)
        for key, value in shown.items():
            print(f"  {key:<14} {value:>14.6g} {unit_of(key)}")
    if args.trace:
        for key in sorted(metrics):
            print(f"  {key:<28} {metrics[key]:>14.6g} {unit_of(key)}")
    print(json.dumps({
        "correct": not failed and not drift,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
