"""Benches of the execution backends: inline vs warm.

The warm backend's persistent workers, template frames and
pre-populated snapshot stores are what make ``--jobs N`` pay.  These
benches time the same mid-size sweep on both backends and check the
fleet's accounting: it persisted across rounds and its template
preload absorbed nearly every worker-side boot.
"""

import pytest

from repro.backend import make_backend, warm_available
from repro.core.config import Mode
from repro.core.sweep import SweepSpec
from repro.exec import Executor

needs_fork = pytest.mark.skipif(
    not warm_available(), reason="warm backend needs the fork start method"
)


def mid_size_plan(base_seed: int = 0):
    """~1400 null measurements — figure-1 scale."""
    return SweepSpec(
        processors=("PD", "CD", "K8"),
        modes=(Mode.USER, Mode.USER_KERNEL),
        repeats=3,
        base_seed=base_seed,
        io_interrupts=False,
    ).plan()


def test_inline_backend_sweep(benchmark):
    plan = mid_size_plan()
    executor = Executor(make_backend("inline"), cache=None)
    table = benchmark.pedantic(
        executor.run, args=(plan,), rounds=3, iterations=1
    )
    assert len(table) == len(plan)


@needs_fork
def test_warm_backend_sweep(benchmark):
    plan = mid_size_plan()
    backend = make_backend("warm", workers=4)
    executor = Executor(backend, cache=None)
    try:
        table = benchmark.pedantic(
            executor.run, args=(plan,), rounds=3, iterations=1
        )
    finally:
        backend.shutdown(grace=5.0)
    assert len(table) == len(plan)
    # The fleet persisted: rounds reused the same workers, and the
    # template preload absorbed (nearly) every worker-side boot.
    assert backend.stats.workers_spawned == 4
    assert backend.stats.worker_restarts == 0
    assert backend.stats.snapshot_hits >= backend.stats.jobs - 4 * 6
