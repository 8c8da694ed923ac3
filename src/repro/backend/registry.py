"""Backend registry: names, resolution chain, and shared instances.

``--backend {inline,warm}`` / ``REPRO_BACKEND`` resolve here, by the
same precedence chain every other execution knob uses: explicit
argument > process default set by the CLI > environment variable >
built-in fallback.  The fallback is worker-count aware: a single job
slot runs inline, more-than-one defaults to the warm backend (or
inline, serially, on platforms without fork).

:func:`get_backend` hands out *shared* instances keyed by
``(name, workers)`` — this is what makes the warm backend warm: every
``get_executor()`` call, every service-scheduler job, every repeated
sweep in one process lands on the same persistent worker fleet instead
of spawning a new one.  An :mod:`atexit` hook shuts the fleet down.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import TYPE_CHECKING

from repro.backend.knobs import resolve_jobs
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.backend.base import ExecutionBackend

#: Every registered backend, in documentation order.
BACKEND_NAMES = ("inline", "warm")

_default_backend: "str | None" = None


def _require_known(name: str) -> str:
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ConfigurationError(
            f"unknown backend {name!r}; known: {known}"
        )
    return name


def set_default_backend(name: "str | None") -> None:
    """Set the process-wide backend (the CLI's ``--backend``)."""
    global _default_backend
    if name is not None:
        name = _require_known(name)
    _default_backend = name


def resolve_backend_name(
    explicit: "str | None" = None, jobs: "int | None" = None
) -> str:
    """Backend name: explicit > default > $REPRO_BACKEND > by-jobs.

    With nothing configured, one job slot means ``inline`` and more
    means ``warm`` (``inline`` where fork is unavailable: the same
    bytes, serially) — so plain ``--jobs 4`` gets the persistent fleet
    without further flags.
    """
    for candidate in (explicit, _default_backend):
        if candidate is not None:
            return _require_known(candidate)
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if env:
        return _require_known(env)
    from repro.backend.warm import warm_available

    if resolve_jobs(jobs) > 1 and warm_available():
        return "warm"
    return "inline"


# -- shared instances -------------------------------------------------------

_shared: "dict[tuple[str, int], ExecutionBackend]" = {}
#: Guards the check-then-insert on ``_shared``: scheduler threads call
#: :func:`get_backend` concurrently and must not each spawn a fleet.
_shared_lock = threading.Lock()
_atexit_registered = False


def make_backend(
    name: str,
    workers: "int | None" = None,
    batch_cap: "int | None" = None,
) -> "ExecutionBackend":
    """A fresh backend instance (callers own its lifecycle)."""
    name = _require_known(name)
    if name == "inline":
        from repro.backend.inline import InlineBackend

        return InlineBackend(batch_cap=batch_cap)
    from repro.backend.warm import WarmBackend

    return WarmBackend(max_workers=workers, batch_cap=batch_cap)


def get_backend(
    name: "str | None" = None,
    jobs: "int | None" = None,
) -> "ExecutionBackend":
    """The shared backend for (resolved name, resolved workers).

    Sharing is the point: a warm fleet spawned for one plan serves the
    next one too.  Shut down process-wide via :func:`shutdown_backends`
    (registered atexit).
    """
    global _atexit_registered
    resolved = resolve_backend_name(name, jobs)
    workers = resolve_jobs(jobs) if resolved != "inline" else 1
    key = (resolved, workers)
    with _shared_lock:
        backend = _shared.get(key)
        if backend is None:
            backend = make_backend(resolved, workers=workers)
            _shared[key] = backend
            if not _atexit_registered:
                # multiprocessing SIGTERMs daemonic children from its
                # own atexit hook.  Importing it first registers that
                # hook first, so (LIFO) this one runs before it and the
                # fleet stops gracefully: workers return from their loop.
                import multiprocessing.util  # noqa: F401

                atexit.register(shutdown_backends)
                _atexit_registered = True
    return backend


def shared_backends() -> "list[ExecutionBackend]":
    """Every live shared instance (metrics iterate these)."""
    with _shared_lock:
        return list(_shared.values())


def shutdown_backends(grace: float = 5.0) -> None:
    """Stop every shared backend (atexit, and the test-suite reset)."""
    while True:
        with _shared_lock:
            if not _shared:
                return
            _, backend = _shared.popitem()
        try:
            backend.shutdown(grace=grace)
        except Exception:
            pass
