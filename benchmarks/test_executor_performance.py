"""Benches of the execution engine (plan → executor → cache).

Timings of a mid-size factorial sweep under each execution strategy:
serial (inline backend), parallel (warm backend), and cache-warm
replay.  They guard the
two claims the engine makes — parallelism helps on multi-core hosts
(``reproduce figure1 --jobs 4`` vs ``--jobs 1``), and a warm cache makes
re-runs nearly free — without ever changing results, which
``tests/exec/test_executor.py`` proves separately.
"""

import os
import time

import pytest

from repro.backend import make_backend, warm_available
from repro.core.config import Mode
from repro.core.sweep import SweepSpec
from repro.exec import Executor, ResultCache

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


def serial_executor(cache=None):
    return Executor(make_backend("inline"), cache=cache)


@pytest.fixture
def warm_backend():
    """A fresh four-worker warm fleet, shut down afterwards."""
    backend = make_backend("warm", workers=4)
    yield backend
    backend.shutdown(grace=5.0)


def test_serial_sweep(benchmark):
    plan = mid_size_plan()
    table = benchmark.pedantic(
        serial_executor().run, args=(plan,), rounds=3, iterations=1
    )
    assert len(table) == len(plan)


@needs_fork
def test_parallel_sweep(benchmark, warm_backend):
    plan = mid_size_plan()
    executor = Executor(warm_backend, cache=None)
    table = benchmark.pedantic(
        executor.run, args=(plan,), rounds=3, iterations=1
    )
    assert len(table) == len(plan)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs more than one core",
)
@needs_fork
def test_parallel_is_measurably_faster_than_serial(warm_backend):
    """The --jobs 4 vs --jobs 1 contrast from the CLI, timed directly.

    The warm fleet is spawned inside the timed region, as a cold
    ``--jobs 4`` run pays for it.
    """
    plan = mid_size_plan(base_seed=1)
    start = time.perf_counter()
    serial = serial_executor().run(plan)
    serial_s = time.perf_counter() - start

    executor = Executor(warm_backend, cache=None)
    start = time.perf_counter()
    parallel = executor.run(plan)
    parallel_s = time.perf_counter() - start

    assert serial.to_csv() == parallel.to_csv()
    assert parallel_s < serial_s


@needs_fork
def test_batched_parallel_sweep(benchmark, warm_backend):
    """Capped dispatch: at most N jobs per warm-worker batch.

    The counter assertions prove the batching actually engaged —
    dispatch units shrink from one-per-job to one-per-batch, and the
    workers report the boots their snapshot stores absorbed.
    """
    plan = mid_size_plan(base_seed=3)
    executor = Executor(warm_backend, cache=None, batch_size=32)
    table = benchmark.pedantic(
        executor.run, args=(plan,), rounds=3, iterations=1
    )
    assert len(table) == len(plan)
    # Counter proofs, independent of how many rounds the runner timed
    # (--benchmark-disable runs once, a timed pass runs several).
    runs = executor.stats.executed // len(plan)
    assert runs >= 1
    assert executor.stats.batches == runs * -(-len(plan) // 32)
    # Nearly every boot inside the workers was a snapshot hit: each of
    # the 4 workers pays at most one capture per (processor, kernel)
    # template, and this sweep spans 6 of them.
    assert executor.stats.snapshot_hits >= runs * (len(plan) - 4 * 6)


def test_cold_cache_sweep(benchmark):
    """Cache enabled but empty every round: pure store overhead."""
    plan = mid_size_plan(base_seed=2)

    def run_cold():
        return serial_executor(ResultCache()).run(plan)

    table = benchmark.pedantic(run_cold, rounds=3, iterations=1)
    assert len(table) == len(plan)


def test_warm_cache_sweep(benchmark):
    """Every result already cached: replay must be nearly free."""
    plan = mid_size_plan(base_seed=2)
    cache = ResultCache()
    serial_executor(cache).run(plan)  # populate

    executor = serial_executor(cache)
    table = benchmark.pedantic(
        executor.run, args=(plan,), rounds=3, iterations=1
    )
    assert len(table) == len(plan)
    assert cache.stats.hits >= len(plan)
