"""Process-wide execution knobs: worker count and batch-size cap.

These are the CLI's ``--jobs`` / ``--batch-size`` (and their
``REPRO_JOBS`` / ``REPRO_BATCH`` environment twins), resolved through
the same precedence chain everywhere: explicit argument, process
default set by the CLI, environment variable, then a built-in fallback.

They live here — below :mod:`repro.exec` and :mod:`repro.backend.base`
— because both layers consult them; import them from
:mod:`repro.backend`.

The resolved batch size is a **cap** on the adaptive batch sizer
(:class:`repro.backend.base.AdaptiveBatchSizer`), not a fixed size:
:func:`resolve_batch_cap` returns None when nothing is configured, and
the sizer then picks its own size from measured per-job cost.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

# -- worker-count resolution ----------------------------------------------

_default_jobs: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    _default_jobs = jobs


def resolve_jobs(explicit: int | None = None) -> int:
    """Worker count: explicit arg > set_default_jobs > $REPRO_JOBS > 1."""
    for candidate in (explicit, _default_jobs):
        if candidate is not None:
            if candidate < 1:
                raise ConfigurationError(
                    f"jobs must be >= 1, got {candidate}"
                )
            return candidate
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
        if jobs < 1:
            raise ConfigurationError(f"REPRO_JOBS must be >= 1, got {jobs}")
        return jobs
    return 1


# -- batch-size resolution --------------------------------------------------

_default_batch: int | None = None


def set_default_batch(batch: int | None) -> None:
    """Set the process-wide batch cap (the CLI's ``--batch-size``)."""
    global _default_batch
    if batch is not None and batch < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch}")
    _default_batch = batch


def resolve_batch_cap(explicit: int | None = None) -> int | None:
    """The configured batch cap, or None when nothing was set.

    Chain: explicit > set_default_batch > $REPRO_BATCH.  There is no
    automatic fallback — the adaptive sizer supplies its own size when
    no cap is configured.
    """
    for candidate in (explicit, _default_batch):
        if candidate is not None:
            if candidate < 1:
                raise ConfigurationError(
                    f"batch size must be >= 1, got {candidate}"
                )
            return candidate
    env = os.environ.get("REPRO_BATCH", "").strip()
    if env:
        try:
            batch = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_BATCH must be an integer, got {env!r}"
            ) from None
        if batch < 1:
            raise ConfigurationError(f"REPRO_BATCH must be >= 1, got {batch}")
        return batch
    return None


# -- watchdog thresholds ----------------------------------------------------

_default_deadline: float | None = None
_default_slow_threshold: float | None = None


def _positive_seconds(value: float | None, what: str) -> float | None:
    if value is not None and not value > 0:
        raise ConfigurationError(f"{what} must be > 0 seconds, got {value}")
    return value


def _env_seconds(var: str) -> float | None:
    env = os.environ.get(var, "").strip()
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        raise ConfigurationError(
            f"{var} must be a number of seconds, got {env!r}"
        ) from None
    return _positive_seconds(value, var)


def set_default_deadline(seconds: float | None) -> None:
    """Set the process-wide per-job deadline (the CLI's ``--deadline``)."""
    global _default_deadline
    _default_deadline = _positive_seconds(seconds, "deadline")


def resolve_deadline(explicit: float | None = None) -> float | None:
    """Per-job deadline in seconds, or None when the watchdog is off.

    Chain: explicit > set_default_deadline > $REPRO_DEADLINE.  When
    set, the warm backend's collect loop revives any worker whose
    oldest in-flight batch has been running longer than
    ``deadline × batch size`` and re-dispatches its batches.
    """
    for candidate in (explicit, _default_deadline):
        if candidate is not None:
            return _positive_seconds(candidate, "deadline")
    return _env_seconds("REPRO_DEADLINE")


def set_default_slow_threshold(seconds: float | None) -> None:
    """Set the slow-job warning threshold (``--slow-job-threshold``)."""
    global _default_slow_threshold
    _default_slow_threshold = _positive_seconds(seconds, "slow-job threshold")


def resolve_slow_threshold(explicit: float | None = None) -> float | None:
    """Slow-job warning threshold in seconds, or None when off.

    Chain: explicit > set_default_slow_threshold > $REPRO_SLOW_JOB.
    Crossing it warns (and counts into
    ``repro_slow_job_warnings_total``) but never kills anything —
    that's the deadline's job.
    """
    for candidate in (explicit, _default_slow_threshold):
        if candidate is not None:
            return _positive_seconds(candidate, "slow-job threshold")
    return _env_seconds("REPRO_SLOW_JOB")

