"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG.

All simulation time is integer milliseconds. Determinism contract: two engines
built from the same seed that schedule the same work in the same order produce
bit-identical event sequences, RNG draws, and trace output.

A scheduled event is one int key, `fire_at << SEQ_BITS | seq`, and the heap
holds only keys: `seq` is unique and below `SEQ_LIMIT`, so key order is
(fire_at, seq) order. The event's `(kind, data)` lives in a dict under its
key. `schedule` returns the key as the event's handle; `Engine.cancel` pops
the dict entry, and `run_until` skips keys that have none without counting
them. A `schedule` past `SEQ_LIMIT` raises rather than misorder.
"""
from __future__ import annotations

import hashlib
import math
import random
from heapq import heappop, heappush
from typing import Any, Callable, TextIO

SimTime = int  # milliseconds

SEQ_BITS = 32
SEQ_LIMIT = 1 << SEQ_BITS  # events one engine may schedule


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


class Engine:
    """Event loop over a virtual ms clock.

    Handlers are registered per event kind; `schedule` enqueues, `run_until`
    drains in (fire_at, seq) order. Ties on fire_at resolve in scheduling
    order, which is what makes runs reproducible.
    """

    def __init__(self, seed: int, trace: TextIO | None = None) -> None:
        self.seed = seed
        self.now: SimTime = 0
        self._heap: list[int] = []  # event keys
        self._events: dict[int, tuple[str, tuple]] = {}  # key -> (kind, data)
        self._seq = 0
        self._handlers: dict[str, Callable[..., None]] = {}
        self._trace = trace
        self.tracing = trace is not None  # callers can skip building trace detail
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

    def schedule(self, delay_ms: int, kind: str, *data: Any) -> int:
        if delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        seq = self._seq
        if seq >= SEQ_LIMIT:
            raise OverflowError(f"more than {SEQ_LIMIT} events scheduled")
        self._seq = seq + 1
        key = (self.now + delay_ms) << SEQ_BITS | seq
        self._events[key] = (kind, data)
        heappush(self._heap, key)
        return key

    def cancel(self, key: int) -> None:
        """Never fire the event; harmless if it already fired or was cancelled."""
        self._events.pop(key, None)

    def due(self, key: int) -> tuple[SimTime, str] | None:
        """(fire_at, kind) of a pending event; None once it fired or was cancelled."""
        ev = self._events.get(key)
        return None if ev is None else (key >> SEQ_BITS, ev[0])

    def run_until(self, t_end: SimTime) -> int:
        """Process every event with fire_at <= t_end; advance clock to t_end."""
        if t_end < self.now:
            raise ValueError(f"run_until({t_end}) would move the clock back from {self.now}")
        heap, pop, handlers = self._heap, self._events.pop, self._handlers
        end = (t_end + 1) << SEQ_BITS  # the smallest key due after t_end
        processed = 0
        while heap and heap[0] < end:
            key = heappop(heap)
            ev = pop(key, None)
            if ev is None:
                continue  # cancelled
            self.now = key >> SEQ_BITS
            kind, data = ev
            handler = handlers.get(kind)
            if handler is None:
                raise KeyError(f"no handler for event kind {kind!r}")
            handler(*data)
            processed += 1
        self.now = t_end
        self.events_processed += processed
        return processed

    def trace(self, kind: str, frm: Any = "-", to: Any = "-", detail: str = "") -> None:
        if self._trace is not None:
            self._trace.write(f"{self.now}\t{kind}\t{frm}\t{to}\t{detail}\n")
