"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG.

All simulation time is integer milliseconds. Determinism contract: two engines
built from the same seed that schedule the same work in the same order produce
bit-identical event sequences, RNG draws, and trace output.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Any, Callable, TextIO

SimTime = int  # milliseconds


def substream(seed: int, label: str) -> random.Random:
    """Derive an independent RNG from (seed, label).

    Uses sha256 rather than hash() so the mapping survives Python's
    per-process hash randomization.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_exponential(rng: random.Random, mean_ms: float) -> int:
    """Exponential inter-event delay, rounded to integer ms, never below 1."""
    if mean_ms <= 0:
        raise ValueError("mean_ms must be positive")
    return max(1, round(rng.expovariate(1.0 / mean_ms)))


# Largest mean `sample_poisson` accepts. Knuth's method stops once the
# running product of uniforms falls to exp(-mean), which is a normal double
# only up to mean ~708.4; past that it loses precision, and near mean 745 it
# underflows to 0, so every draw saturates at about 745.
POISSON_MAX_MEAN = 700


def sample_poisson(rng: random.Random, mean: float) -> int:
    """Poisson draw via Knuth multiplication: exact for 0 < mean <=
    POISSON_MAX_MEAN, at O(mean) uniforms per draw, so meant for the small
    means of scan scheduling (mean <= ~30)."""
    if not 0 < mean <= POISSON_MAX_MEAN:
        raise ValueError(f"mean must be in (0, {POISSON_MAX_MEAN}]")
    limit = math.exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


class _Entry:
    """A scheduled event. Setting `cancelled` makes `run_until` skip it."""

    __slots__ = ("fire_at", "kind", "data", "cancelled")

    def __init__(self, fire_at: SimTime, kind: str, data: tuple) -> None:
        self.fire_at = fire_at
        self.kind = kind
        self.data = data
        self.cancelled = False


class Engine:
    """Event loop over a virtual ms clock.

    Handlers are registered per event kind; `schedule` enqueues, `run_until`
    drains in (fire_at, seq) order. Ties on fire_at resolve in scheduling
    order, which is what makes runs reproducible. The heap holds
    `(fire_at, seq, entry)` tuples; `seq` is unique, so ordering is decided
    by tuple comparison of two ints and never reaches the entry.
    """

    def __init__(self, seed: int, trace: TextIO | None = None) -> None:
        self.seed = seed
        self.now: SimTime = 0
        self._heap: list[tuple[SimTime, int, _Entry]] = []
        self._seq = 0
        self._handlers: dict[str, Callable[..., None]] = {}
        self._trace = trace
        self.events_processed = 0
        # Per-purpose RNG substreams. Keeping them separate means e.g. a
        # different latency range cannot perturb churn timing.
        self.rng_churn = substream(seed, "churn")
        self.rng_latency = substream(seed, "latency")
        self.rng_topology = substream(seed, "topology")
        self.rng_sched = substream(seed, "sched")
        self.rng_marker = substream(seed, "marker")

    def on(self, kind: str, handler: Callable[..., None]) -> None:
        self._handlers[kind] = handler

    def schedule(self, delay_ms: int, kind: str, *data: Any) -> _Entry:
        if delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        entry = _Entry(self.now + delay_ms, kind, data)
        heapq.heappush(self._heap, (entry.fire_at, self._seq, entry))
        self._seq += 1
        return entry

    def run_until(self, t_end: SimTime) -> int:
        """Process every event with fire_at <= t_end; advance clock to t_end."""
        heap, handlers, pop = self._heap, self._handlers, heapq.heappop
        processed = 0
        while heap and heap[0][0] <= t_end:
            fire_at, _, entry = pop(heap)
            if entry.cancelled:
                continue
            self.now = fire_at
            handler = handlers.get(entry.kind)
            if handler is None:
                raise KeyError(f"no handler for event kind {entry.kind!r}")
            handler(*entry.data)
            processed += 1
        self.now = t_end
        self.events_processed += processed
        return processed

    @property
    def tracing(self) -> bool:
        """True when `trace` writes; callers can skip building its detail."""
        return self._trace is not None

    def trace(self, kind: str, frm: Any = "-", to: Any = "-", detail: str = "") -> None:
        if self._trace is not None:
            self._trace.write(f"{self.now}\t{kind}\t{frm}\t{to}\t{detail}\n")
