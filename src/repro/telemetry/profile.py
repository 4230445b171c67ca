"""Engine self-profiling: wall-clock and work counters.

:class:`EngineProfile` is attached to a
:class:`~repro.sim.transfers.TransferEngine` (``engine.profile``) when
``TelemetrySpec.profile`` is on.  The engine notes, per fair-share
recompute, the wall-clock nanoseconds spent and the dirty-closure size,
and counts every deadline-heap push / pop / lazy invalidation per shard
(reported in batches, one report per engine call and heap)
— the concrete work the incremental and region-sharded solvers exist
to reduce.  A summary lands on ``ModeOutcome.engine_profile`` (and,
flattened, in sweep rows), so a perf regression in the solvers becomes
a measurable diff instead of an anecdote.

All counters are *work* counters except the ``_ns`` aggregates, which
are wall-clock and therefore nondeterministic — the sweep aggregate's
byte-identity surface and the differential outcome tests exclude them.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, List

#: Heap label of the incremental mode's single global deadline heap.
GLOBAL_HEAP = "@global"

#: Heap label of the sharded mode's shard-front heap.
FRONT_HEAP = "@front"


def closure_bucket(size: int) -> str:
    """Power-of-two histogram bucket label for a closure size.

    0 stays ``"0"``; anything else lands in the next power of two at
    or above it (1, 2, 4, 8, …) — a fixed, scale-free bucketing that
    keeps the histogram a handful of keys at any swarm size.
    """
    if size <= 0:
        return "0"
    return str(1 << (size - 1).bit_length())


class EngineProfile:
    """Recompute timings, closure-size histogram, heap work counters."""

    def __init__(self) -> None:
        self.recomputes = 0
        self.recompute_ns_total = 0
        self.recompute_ns_max = 0
        self.transfers_rerated = 0
        # int power-of-two buckets; rendered as strings in summary().
        self._closure_hist: Dict[int, int] = {}
        # shard -> [pushes, pops, invalidations]; flat lists keep each
        # report to one dict lookup + one index increment.
        self._heaps: Dict[str, List[int]] = {}

    # -- recompute timing ----------------------------------------------
    #: Host nanoseconds for timing a recompute.  The engine reads the
    #: host clock only through this attribute, so every wall-clock read
    #: stays inside this allowlisted module;
    #: ``note_recompute(profile.clock() - t0, n)`` closes the span.  It
    #: is the builtin itself, so a read adds no Python call frame.
    clock = staticmethod(perf_counter_ns)

    def note_recompute(self, ns: int, closure_size: int) -> None:
        self.recomputes += 1
        self.recompute_ns_total += ns
        if ns > self.recompute_ns_max:
            self.recompute_ns_max = ns
        self.transfers_rerated += closure_size
        bucket = (
            1 << (closure_size - 1).bit_length() if closure_size > 0 else 0
        )
        self._closure_hist[bucket] = self._closure_hist.get(bucket, 0) + 1

    # -- deadline-heap work --------------------------------------------
    # The engine counts heap operations locally and reports each count
    # once per call (``n`` operations on ``shard``'s heap), which keeps
    # the profiled hot loops free of per-operation method calls.
    def heap_push(self, shard: str, n: int = 1) -> None:
        try:
            self._heaps[shard][0] += n
        except KeyError:
            self._heaps[shard] = [n, 0, 0]

    def heap_pop(self, shard: str, n: int = 1) -> None:
        """``n`` *due* entries popped for draining."""
        try:
            self._heaps[shard][1] += n
        except KeyError:
            self._heaps[shard] = [0, n, 0]

    def heap_invalidate(self, shard: str, n: int = 1) -> None:
        """``n`` stale (token-mismatched / stamp-mismatched) entries
        pruned."""
        try:
            self._heaps[shard][2] += n
        except KeyError:
            self._heaps[shard] = [0, 0, n]

    # -- export ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe summary for ``ModeOutcome.engine_profile``.

        ``closure_size_hist`` keys are the bucket labels of
        :func:`closure_bucket`; ``heaps`` keys are shard names, with
        :data:`GLOBAL_HEAP` for the incremental mode's single heap and
        :data:`FRONT_HEAP` for the sharded mode's front heap.
        """
        return {
            "recomputes": self.recomputes,
            "recompute_ns_total": self.recompute_ns_total,
            "recompute_ns_max": self.recompute_ns_max,
            "transfers_rerated": self.transfers_rerated,
            "closure_size_hist": {
                str(bucket): count
                for bucket, count in sorted(self._closure_hist.items())
            },
            "heaps": {
                shard: {
                    "pushes": counters[0],
                    "pops": counters[1],
                    "invalidations": counters[2],
                }
                for shard, counters in sorted(self._heaps.items())
            },
        }
