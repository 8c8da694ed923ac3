"""Fixtures for the executor tests."""

import pytest

from repro.backend import make_backend, warm_available
from repro.exec import Executor


@pytest.fixture
def warm_executor():
    """Build executors over fresh two-worker warm fleets.

    Call it with :class:`~repro.exec.Executor` keyword arguments
    (``cache`` defaults to None); every fleet is shut down afterwards.
    Skips where the warm backend is unavailable (no ``fork``).
    """
    if not warm_available():
        pytest.skip("warm backend needs the fork start method")
    backends = []

    def build(**kwargs):
        backend = make_backend("warm", workers=2)
        backends.append(backend)
        kwargs.setdefault("cache", None)
        return Executor(backend, **kwargs)

    yield build
    for backend in backends:
        backend.shutdown(grace=2.0)
