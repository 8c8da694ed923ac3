"""The performance monitoring unit: counter registers and the TSC.

Counters here behave like the hardware the paper describes (Section
2.1): programmable counters select an event and a privilege filter and
can be enabled, disabled, read, and written; fixed-function counters
always count their designated event; the time stamp counter always
runs.  Counters are ``width``-bit registers and wrap on overflow; a
counter configured with ``interrupt_on_overflow`` raises its overflow
line, which the kernel may route to a sampling handler.

The PMU never knows about software threads — per-thread virtualization
is the job of the kernel extensions (:mod:`repro.perfctr`,
:mod:`repro.perfmon`), exactly as in the real stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.cpu.events import Event, PrivFilter, PrivLevel
from repro.errors import CounterError


@dataclass(frozen=True, slots=True)
class CounterConfig:
    """Programming of one programmable counter."""

    event: Event
    priv: PrivFilter = PrivFilter.ALL
    enabled: bool = False
    interrupt_on_overflow: bool = False


@dataclass
class ProgrammableCounter:
    """One programmable counter register."""

    index: int
    width: int
    config: CounterConfig | None = None
    _value: float = 0.0

    @property
    def limit(self) -> int:
        return 1 << self.width

    @property
    def live(self) -> bool:
        """True when the counter is programmed and enabled."""
        return self.config is not None and self.config.enabled

    def read(self) -> int:
        return int(self._value) % self.limit

    def write(self, value: int) -> None:
        if value < 0:
            raise CounterError(f"counter {self.index}: cannot write {value}")
        self._value = float(value % self.limit)

    def add(self, amount: float) -> bool:
        """Accumulate; returns True when the counter wrapped (overflow)."""
        before = self._value
        self._value = before + amount
        wrapped = self._value >= self.limit
        if wrapped:
            self._value -= self.limit
        return wrapped


@dataclass
class FixedCounter:
    """A fixed-function counter: the event is hard-wired."""

    index: int
    event: Event
    width: int
    priv: PrivFilter = PrivFilter.NONE  # NONE = disabled
    _value: float = 0.0

    @property
    def limit(self) -> int:
        return 1 << self.width

    @property
    def live(self) -> bool:
        return self.priv is not PrivFilter.NONE

    def read(self) -> int:
        return int(self._value) % self.limit

    def write(self, value: int) -> None:
        self._value = float(value % self.limit)

    def add(self, amount: float) -> bool:
        before = self._value
        self._value = before + amount
        wrapped = self._value >= self.limit
        if wrapped:
            self._value -= self.limit
        return wrapped


class Pmu:
    """The per-core performance monitoring unit.

    Args:
        n_programmable: number of programmable counters (Table 1).
        fixed_events: events of the fixed-function counters, if any
            (Core2 has three: instructions, core cycles, bus cycles).
        counter_width: width in bits of programmable counters.
        on_overflow: callback invoked with the counter index when a
            counter with ``interrupt_on_overflow`` wraps.
    """

    TSC_WIDTH = 64

    def __init__(
        self,
        n_programmable: int,
        fixed_events: tuple[Event, ...] = (),
        counter_width: int = 40,
        on_overflow: Callable[[int], None] | None = None,
    ) -> None:
        if n_programmable < 1:
            raise CounterError("a PMU needs at least one programmable counter")
        self.counters = [
            ProgrammableCounter(index=i, width=counter_width)
            for i in range(n_programmable)
        ]
        self.fixed = [
            FixedCounter(index=i, event=event, width=counter_width)
            for i, event in enumerate(fixed_events)
        ]
        self._tsc = 0.0
        self.on_overflow = on_overflow

    # -- configuration ---------------------------------------------------

    @property
    def n_programmable(self) -> int:
        return len(self.counters)

    @property
    def n_fixed(self) -> int:
        return len(self.fixed)

    def program(self, index: int, config: CounterConfig) -> None:
        """Program counter ``index`` (models a PERFEVTSEL write)."""
        self._counter(index).config = config

    def configure_fixed(self, index: int, priv: PrivFilter) -> None:
        """Set a fixed counter's privilege filter (NONE disables it)."""
        self._fixed(index).priv = priv

    def enable(self, index: int) -> None:
        counter = self._counter(index)
        if counter.config is None:
            raise CounterError(f"counter {index} enabled before being programmed")
        counter.config = replace(counter.config, enabled=True)

    def disable(self, index: int) -> None:
        counter = self._counter(index)
        if counter.config is not None:
            counter.config = replace(counter.config, enabled=False)

    def disable_all(self) -> None:
        for counter in self.counters:
            if counter.config is not None:
                counter.config = replace(counter.config, enabled=False)

    # -- access ------------------------------------------------------------

    def read(self, index: int) -> int:
        """Read a programmable counter (models RDPMC)."""
        return self._counter(index).read()

    def write(self, index: int, value: int) -> None:
        """Write a programmable counter (models WRMSR to PERFCTRx)."""
        self._counter(index).write(value)

    def read_fixed(self, index: int) -> int:
        return self._fixed(index).read()

    def read_tsc(self) -> int:
        """Read the time stamp counter (models RDTSC)."""
        return int(self._tsc) % (1 << self.TSC_WIDTH)

    def write_tsc(self, value: int) -> None:
        self._tsc = float(value)

    # -- counting ------------------------------------------------------------

    def count(self, deltas: dict[Event, int | float], level: PrivLevel) -> None:
        """Charge event increments observed at privilege ``level``.

        Every live counter whose privilege filter matches accumulates
        its event's increment; overflow lines fire via ``on_overflow``.
        """
        for counter in self.counters:
            config = counter.config
            if config is None or not config.enabled:
                continue
            if not config.priv.matches(level):
                continue
            amount = deltas.get(config.event, 0)
            if not amount:
                continue
            if config.interrupt_on_overflow and self.on_overflow is not None:
                self._accumulate_with_overflow(counter, float(amount))
            elif counter.add(amount) and config.interrupt_on_overflow:
                if self.on_overflow is not None:  # pragma: no cover
                    self.on_overflow(counter.index)
        for fixed in self.fixed:
            if fixed.priv is PrivFilter.NONE or not fixed.priv.matches(level):
                continue
            amount = deltas.get(fixed.event, 0)
            if amount:
                fixed.add(amount)

    def _accumulate_with_overflow(
        self, counter: ProgrammableCounter, amount: float
    ) -> None:
        """Charge ``amount`` firing the overflow line at every wrap.

        A single closed-form retirement bundle can cover many sampling
        periods; real hardware would interrupt at each overflow, so the
        charge is applied in wrap-sized steps with the callback (which
        typically re-arms the counter) run between steps.
        """
        assert self.on_overflow is not None
        remaining = amount
        for _ in range(10_000_000):
            space = counter.limit - counter._value
            if remaining < space:
                counter._value += remaining
                return
            remaining -= space
            counter._value = 0.0
            self.on_overflow(counter.index)
            if remaining <= 0:
                return
        raise CounterError(
            f"counter {counter.index}: overflow storm "
            "(period too small for the charged amount)"
        )

    def advance_tsc(self, cycles: float) -> None:
        """The TSC free-runs: it advances regardless of mode or filters."""
        if cycles < 0:
            raise CounterError(f"TSC cannot run backwards ({cycles})")
        self._tsc += cycles

    # -- state save/restore (context switches) -----------------------------

    def snapshot(self) -> dict:
        """Capture full PMU state for a context switch."""
        return {
            "counters": [(c.config, c._value) for c in self.counters],
            "fixed": [(f.priv, f._value) for f in self.fixed],
        }

    def restore(self, state: dict) -> None:
        """Restore state captured by :meth:`snapshot`."""
        for counter, (config, value) in zip(self.counters, state["counters"]):
            counter.config = config
            counter._value = value
        for fixed, (priv, value) in zip(self.fixed, state["fixed"]):
            fixed.priv = priv
            fixed._value = value

    # -- helpers ----------------------------------------------------------

    def _counter(self, index: int) -> ProgrammableCounter:
        if not 0 <= index < len(self.counters):
            raise CounterError(
                f"no programmable counter {index} "
                f"(PMU has {len(self.counters)})"
            )
        return self.counters[index]

    def _fixed(self, index: int) -> FixedCounter:
        if not 0 <= index < len(self.fixed):
            raise CounterError(
                f"no fixed counter {index} (PMU has {len(self.fixed)})"
            )
        return self.fixed[index]
