"""Per-layer spans for one traced workload process, and their reduction.

The child side (:func:`install`) wraps the public entry points of each
layer of the ``repro`` package from outside it: nothing under ``src/``
changes. Every call of a wrapped entry point becomes one span (name,
start, end, parent), appended to flat arrays kept in memory and written
out once, when the process (or a warm-backend worker) is done.

The parent side (:func:`reduce_dumps`) turns the dumps of one traced
invocation into per-layer figures: self time (span duration minus the
part covered by child spans), call counts, job latency percentiles,
and counts read from ``repro.obs.metrics.default_registry()``.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from array import array
from pathlib import Path

#: Span name -> (module, owner class or None for a module-level function,
#: attribute). Span names are "<layer>.<what>"; the layer is the repo
#: module the entry point belongs to.
ENTRY_POINTS = {
    "experiments.run_artifact": ("repro.experiments", None, "run_artifact"),
    "analysis.anova": ("repro.analysis.anova", None, "anova_n_way"),
    "analysis.fit": ("repro.analysis.regression", None, "fit_line"),
    "exec.map": ("repro.exec.executor", "Executor", "map"),
    "exec.job": ("repro.exec.plan", "MeasurementJob", "execute"),
    "exec.table": ("repro.exec.plan", "MeasurementPlan", "table"),
    "exec.plan": ("repro.core.sweep", "SweepSpec", "plan"),
    "exec.loop_plan": ("repro.exec.plan", "LoopSweepSpec", "plan"),
    "exec.cache_get": ("repro.exec.cache", "ResultCache", "get"),
    "exec.cache_put": ("repro.exec.cache", "ResultCache", "put"),
    "backend.execute": ("repro.backend.base", "ExecutionBackend", "execute"),
    "backend.collect": ("repro.backend.base", "ExecutionBackend", "collect"),
    "infra.setup": ("repro.core.registry", "CounterInterface", "setup"),
    "infra.start": ("repro.core.registry", "CounterInterface", "start_counting"),
    "infra.read": ("repro.core.registry", "CounterInterface", "read_running"),
    "infra.stop": ("repro.core.registry", "CounterInterface", "stop_counting"),
    "kernel.boot": ("repro.kernel.system", "Machine", "__init__"),
    "kernel.syscall": ("repro.kernel.system", "Machine", "syscall"),
    "kernel.irq": ("repro.kernel.interrupts", "InterruptController", "poll"),
    "cpu.retire": ("repro.cpu.core", "Core", "retire"),
    "cpu.loop": ("repro.cpu.core", "Core", "execute_loop"),
}

#: Registry counters each process ships with its spans.
REGISTRY_KEYS = (
    "repro_executor_jobs",
    "repro_executor_cache_hits",
    "repro_executor_snapshot_hits",
    "repro_backend_batches",
    "repro_backend_worker_restarts",
    "repro_backend_workers_spawned",
    "repro_ff_engagements_total",
    "repro_ff_iterations_skipped_total",
)

#: Counts a deterministic simulator must reproduce exactly on every run
#: of one commit at one seed. ``backend.batches`` is not among them: the
#: adaptive batch sizer retunes from measured batch times.
EXACT_COUNTS = (
    "exec.jobs",
    "exec.cache_hits",
    "exec.cache_misses",
    "kernel.boots",
    "kernel.snapshot_hits",
    "kernel.syscalls",
    "kernel.irq_polls",
    "cpu.retires",
    "cpu.ff_engagements",
    "cpu.ff_iterations_skipped",
)


class Recorder:
    """Spans of one process, as parallel arrays (22 bytes per span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span: a forked worker starts with none."""
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, fn, span_name: str):
        """``fn`` recording one span per call."""
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder.stack
            index = len(recorder.start)
            recorder.name.append(nid)
            recorder.parent.append(stack[-1])
            recorder.start.append(clock())
            recorder.end.append(0.0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.end[index] = clock()

        return traced

    def dump(self, path: Path, role: str) -> None:
        """Write the spans and this process's registry counters."""
        from repro.obs.metrics import default_registry, registry_snapshot

        snapshot = registry_snapshot(default_registry())
        payload = {
            "role": role,
            "names": self.names,
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "registry": {key: snapshot.get(key, 0.0) for key in REGISTRY_KEYS},
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(payload))
        tmp.replace(path)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module attribute that is ``original``.

    ``from x import f`` copies the reference, so the defining module is
    not the only place the function is reached through.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(recorder: Recorder, workdir: Path, main):
    """Wrap every entry point; returns the traced ``repro.cli.main``.

    Forked warm-backend workers inherit the wrappers; each drops the
    coordinator's spans and dumps its own when its loop returns.
    """
    import repro.backend.warm as warm

    for span_name, (module_name, owner, attr) in ENTRY_POINTS.items():
        module = importlib.import_module(module_name)
        if owner is None:
            original = getattr(module, attr)
            _replace_everywhere(original, recorder.wrap(original, span_name))
            continue
        for cls in _subclasses(getattr(module, owner)):
            fn = vars(cls).get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, attr, recorder.wrap(fn, span_name))

    worker_main = warm._worker_main

    def traced_worker_main(*args, **kwargs):
        recorder.reset()
        try:
            worker_main(*args, **kwargs)
        finally:
            recorder.dump(workdir / f"spans-worker-{os.getpid()}.pkl", "worker")

    warm._worker_main = traced_worker_main
    return recorder.wrap(main, "cli.main")


# -- parent side -------------------------------------------------------------


def _load(path: Path) -> dict:
    # Written by Recorder.dump in a process this benchmark started.
    import numpy as np

    data = pickle.loads(path.read_bytes())
    for key, dtype in (("name", np.uint16), ("parent", np.int32),
                       ("start", np.float64), ("end", np.float64)):
        data[key] = np.frombuffer(data[key], dtype=dtype)
    return data


def reduce_dumps(dumps: list[Path]) -> dict:
    """Per-span-name totals over every process of one invocation.

    Returns ``{"self": {span: s}, "total": {span: s}, "calls": {span: n},
    "job_p50_ms"/"job_p99_ms": job latency percentiles, "registry":
    coordinator counters plus every process's fast-forward counters,
    "coordinator_self_s": s}``.
    """
    import numpy as np

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    job_ms = []
    registry: dict[str, float] = {}
    coordinator_self = 0.0
    for path in dumps:
        data = _load(path)
        names, name, parent = data["names"], data["name"], data["parent"]
        durations = data["end"] - data["start"]
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=durations[nested], minlength=len(durations)
        )
        own = durations - covered
        width = len(names)
        own_by_name = np.bincount(name, weights=own, minlength=width)
        total_by_name = np.bincount(name, weights=durations, minlength=width)
        calls_by_name = np.bincount(name, minlength=width)
        for nid, key in enumerate(names):
            self_s[key] = self_s.get(key, 0.0) + float(own_by_name[nid])
            total_s[key] = total_s.get(key, 0.0) + float(total_by_name[nid])
            calls[key] = calls.get(key, 0) + int(calls_by_name[nid])
        if "exec.job" in names:
            job_ms.append(durations[name == names.index("exec.job")] * 1e3)
        if data["role"] == "coordinator":
            coordinator_self += float(own.sum())
        for key, value in data["registry"].items():
            if data["role"] == "coordinator" or key.startswith("repro_ff_"):
                registry[key] = registry.get(key, 0.0) + value
    latencies = np.concatenate(job_ms) if job_ms else np.zeros(1)
    return {
        "self": self_s,
        "total": total_s,
        "calls": calls,
        "job_p50_ms": float(np.percentile(latencies, 50)),
        "job_p99_ms": float(np.percentile(latencies, 99)),
        "registry": registry,
        "coordinator_self_s": coordinator_self,
    }


def layer_metrics(reduced: dict) -> dict[str, float]:
    """The named per-layer metrics of one traced invocation."""
    self_s, total_s, calls = reduced["self"], reduced["total"], reduced["calls"]
    reg = reduced["registry"]

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    jobs = calls.get("exec.job", 0)
    hits = int(reg.get("repro_executor_cache_hits", 0))
    lookups = int(reg.get("repro_executor_jobs", 0))
    return {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "experiments.self_s": layer_self("experiments"),
        "analysis.anova_s": total_s.get("analysis.anova", 0.0),
        "analysis.fit_s": total_s.get("analysis.fit", 0.0),
        "exec.jobs": jobs,
        "exec.job_p50_ms": reduced["job_p50_ms"],
        "exec.job_p99_ms": reduced["job_p99_ms"],
        "exec.cache_hits": hits,
        "exec.cache_misses": lookups - hits,
        "exec.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "exec.self_s": layer_self("exec"),
        "backend.execute_s": self_s.get("backend.execute", 0.0),
        "backend.collect_wait_s": total_s.get("backend.collect", 0.0),
        "backend.batches": int(reg.get("repro_backend_batches", 0)),
        "backend.worker_revivals": int(reg.get("repro_backend_worker_restarts", 0)),
        "infra.setup_s": self_s.get("infra.setup", 0.0),
        "infra.start_s": self_s.get("infra.start", 0.0),
        "infra.read_s": self_s.get("infra.read", 0.0),
        "infra.stop_s": self_s.get("infra.stop", 0.0),
        "kernel.boots": calls.get("kernel.boot", 0),
        "kernel.boot_s": self_s.get("kernel.boot", 0.0),
        "kernel.snapshot_hits": int(reg.get("repro_executor_snapshot_hits", 0)),
        "kernel.syscalls": calls.get("kernel.syscall", 0),
        "kernel.syscall_s": self_s.get("kernel.syscall", 0.0),
        "kernel.irq_polls": calls.get("kernel.irq", 0),
        "kernel.irq_s": self_s.get("kernel.irq", 0.0),
        "cpu.retires": calls.get("cpu.retire", 0),
        "cpu.retire_s": self_s.get("cpu.retire", 0.0),
        "cpu.retires_per_job": calls.get("cpu.retire", 0) / jobs if jobs else 0.0,
        "cpu.loop_s": self_s.get("cpu.loop", 0.0),
        "cpu.ff_engagements": int(reg.get("repro_ff_engagements_total", 0)),
        "cpu.ff_iterations_skipped": int(
            reg.get("repro_ff_iterations_skipped_total", 0)
        ),
    }


def import_times(stderr_text: str, marker: str) -> dict[str, float]:
    """Start-up import seconds from ``python -X importtime`` output.

    Only imports logged before ``marker`` (printed once ``repro.cli`` is
    imported) count. ``startup.import_s`` sums the top-level imports;
    the scipy and numpy figures sum each package's outermost imports,
    wherever in the tree they were first pulled in.
    """
    entries = []  # (depth, name, cumulative seconds), in log order
    for line in stderr_text.splitlines():
        if line.startswith(marker):
            break
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2]
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        entries.append((depth, label.strip(), int(parts[1]) / 1e6))
    totals = {"startup.import_s": 0.0, "startup.scipy_import_s": 0.0,
              "startup.numpy_import_s": 0.0}
    ancestors: dict[int, str] = {}
    # The log is post-order (children before their parent), so walking
    # it backwards meets every parent before its children.
    for depth, name, cumulative in reversed(entries):
        ancestors[depth] = name
        parent_root = ancestors[depth - 1].split(".")[0] if depth else ""
        root = name.split(".")[0]
        if depth == 0:
            totals["startup.import_s"] += cumulative
        for package in ("scipy", "numpy"):
            if root == package and parent_root != package:
                totals[f"startup.{package}_import_s"] += cumulative
    return totals
