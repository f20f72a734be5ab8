"""Consecutive-failure circuit breakers with a closed / open / half-open lifecycle.

The one breaker shared by the HTTP service (per codec, published under
``service.breaker``) and the experiment sweep (per codec or experiment,
under ``sweep.breaker_open``). After ``cooldown`` seconds an open breaker
admits one probe request (half-open); a success closes it, a failure
re-opens it. The sweep's infinite cooldown keeps its breakers open for the
rest of a run. The clock is injectable so the chaos drill can advance time
deterministically instead of sleeping.

Only state changes publish: the gauge ``<namespace>.<codec>`` (0 closed /
0.5 half-open / 1 open) and a ``.tripped`` / ``.half_open`` / ``.closed``
counter, so ``/metrics`` and the drill can watch recovery without touching
internals.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs import inc_counter, set_gauge

__all__ = ["CodecBreaker", "BreakerBoard"]

#: state -> (transition counter, gauge); "probing" (probe taken) is unpublished
_TRANSITIONS = {"closed": ("closed", 0.0), "half_open": ("half_open", 0.5),
                "open": ("tripped", 1.0)}


def _validate(threshold: int, cooldown: float) -> None:
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if cooldown <= 0:
        raise ValueError("cooldown must be positive")


class CodecBreaker:
    """Consecutive-failure breaker for one codec (or sweep subject)."""

    def __init__(self, codec: str, *, threshold: int = 3,
                 cooldown: float = 30.0,
                 clock: Callable[[], float] | None = None,
                 namespace: str = "service.breaker") -> None:
        _validate(threshold, cooldown)
        self.codec = codec
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.clock = clock or time.monotonic
        self.namespace = namespace
        self.state = "closed"
        self.consecutive = 0
        self.opened_at: float | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _enter(self, state: str) -> None:
        """Move to ``state`` (lock held); a change of published state
        sets the gauge and counts the transition."""
        if state == self.state:
            return
        self.state = state
        if state in _TRANSITIONS:
            counter, value = _TRANSITIONS[state]
            name = f"{self.namespace}.{self.codec}"
            inc_counter(f"{name}.{counter}")
            set_gauge(name, value)

    def _tick(self) -> None:
        """Open -> half-open once the cooldown has elapsed (lock held)."""
        if (self.state == "open" and self.opened_at is not None
                and self.clock() - self.opened_at >= self.cooldown):
            self._enter("half_open")

    # ------------------------------------------------------------------ #
    def allow(self) -> bool:
        """May a request for this codec proceed right now?

        Closed: yes. Open: no, until the cooldown elapses. Half-open:
        admits exactly one probe (further calls see open-like denial
        until the probe reports back).
        """
        with self._lock:
            self._tick()
            if self.state == "closed":
                return True
            if self.state == "half_open":
                # one probe at a time: the "probing" state shuts a second
                # concurrent caller out until this probe reports back
                self.state = "probing"
                return True
            return False

    def retry_after(self) -> float:
        """Seconds until the next probe would be admitted (0 if now)."""
        with self._lock:
            if self.state in ("closed", "half_open"):
                return 0.0
            if self.opened_at is None:
                return self.cooldown
            return max(0.0, self.cooldown - (self.clock() - self.opened_at))

    def record(self, ok: bool) -> bool:
        """Report the outcome of an admitted request; returns True exactly
        when this call tripped the breaker open."""
        with self._lock:
            if ok:
                self._enter("closed")
                self.consecutive = 0
                self.opened_at = None
                return False
            self.consecutive += 1
            if self.state != "probing" and self.consecutive < self.threshold:
                return False
            tripped = self.state != "open"
            self._enter("open")
            self.opened_at = self.clock()
            return tripped

    def snapshot(self) -> dict:
        with self._lock:
            self._tick()
            state = "half_open" if self.state == "probing" else self.state
            return {
                "state": state,
                "consecutive_failures": self.consecutive,
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown,
                "retry_after": round(max(
                    0.0, self.cooldown - (self.clock() - self.opened_at))
                    if self.state in ("open", "probing") and self.opened_at is not None
                    else 0.0, 3),
            }


class BreakerBoard:
    """Lazily-created breaker per codec, shared across handler threads."""

    def __init__(self, *, threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] | None = None,
                 namespace: str = "service.breaker") -> None:
        _validate(threshold, cooldown)
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.namespace = namespace
        self._breakers: dict[str, CodecBreaker] = {}
        self._lock = threading.Lock()

    def for_codec(self, codec: str) -> CodecBreaker:
        with self._lock:
            breaker = self._breakers.get(codec)
            if breaker is None:
                breaker = CodecBreaker(
                    codec, threshold=self.threshold, cooldown=self.cooldown,
                    clock=self.clock, namespace=self.namespace)
                self._breakers[codec] = breaker
            return breaker

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            breakers = dict(self._breakers)
        return {codec: b.snapshot() for codec, b in sorted(breakers.items())}
