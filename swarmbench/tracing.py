"""Spans around the simulator's layer boundaries, from outside.

The traced run wraps the calls into each layer — the session facade,
the DES kernel, the transfer engine, the P2P registry, chunk planning,
gossip discovery, the replicator, churn and the device caches — with
:class:`SpanRecorder` spans, and counts the calls whose volume matters
more than their cost.  Nothing under ``src/`` changes: :func:`instrument`
swaps class attributes for wrappers and restores them on exit.

A span is ``[name, start_ns, end_ns, parent, pull, child_ns]``: the
parent is the index of the span open when it began (-1 for none) and
``pull`` groups every span of one image pull.  A pull id is allocated
when ``P2PRegistry.pull_process`` (or the analytic ``pull``) is called;
spans opened while the pull runs inherit it, and so do DES processes
it starts (the chunk workers).  Kernel-level work has pull 0.

Generator functions — ``pull_process``, ``fetch_layer`` and every
process the kernel runs — are timed once per resumption, so a pull's
span covers its own code and the engine calls it makes, and never the
simulated time it spends waiting.  A span's self time is its duration
minus the durations of its direct children; spans nest strictly on one
thread, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.registry.cache import ImageCache
from repro.registry.chunks import ChunkSwarmPlanner
from repro.registry.discovery import GossipDiscovery, OmniscientDiscovery
from repro.registry.p2p import (
    AdaptiveReplicator,
    P2PRegistry,
    PeerSwarm,
    SourceKind,
)
from repro.scenarios import session as session_module
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.transfers import TransferEngine, UploadBudgetExceeded

#: Span name of a kernel-run process resumption, by generator qualname.
PROCESS_SPANS = {
    "SimulationSession.run.<locals>.one_pull": "scenarios.one_pull",
    "AdaptiveReplicator.process": "registry.p2p.replicator_loop",
    "GossipDiscovery._run": "registry.discovery.loop",
    "ChurnProcess._device_loop": "sim.churn.loop",
    "ChunkSwarmPlanner._worker": "registry.chunks.worker",
}

def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the last dot, except
    for the kernel's own spans (``sim.run``, ``sim.process``)."""
    if name in ("sim.run", "sim.process"):
        return "sim"
    return name.rsplit(".", 1)[0]


class SpanRecorder:
    """In-memory spans plus call counters."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.current_pull = 0
        self._next_pull = 1
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append(
            [name, perf_counter_ns(), 0, parent, self.current_pull, 0]
        )
        return index

    def close(self, index: int) -> None:
        end = perf_counter_ns()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def new_pull(self) -> int:
        pull = self._next_pull
        self._next_pull += 1
        return pull

    # -- aggregation ----------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: Dict[str, int] = {}
        for name, start, end, _parent, _pull, child_ns in self.spans:
            totals[name] = totals.get(name, 0) + (end - start - child_ns)
        return {name: ns / 1e9 for name, ns in totals.items()}

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing).

        One process; one track (``tid``) per pull id, track 0 being the
        kernel and the processes that belong to no pull.  Every span is
        a complete ("X") event with microsecond timestamps relative to
        the first span; ``args`` carry the parent span index and the
        span's self time.
        """
        origin = self.spans[0][1] if self.spans else 0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "swarm simulator"}},
        ]
        pulls = sorted({span[4] for span in self.spans})
        for pull in pulls:
            events.append(
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": pull,
                 "args": {"name": f"pull {pull}" if pull else "@sim"}}
            )
        for index, (name, start, end, parent, pull, child_ns) in enumerate(
            self.spans
        ):
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": layer_of(name),
                    "pid": 1,
                    "tid": pull,
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "args": {
                        "span": index,
                        "parent": parent,
                        "self_us": (end - start - child_ns) / 1e3,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, sort_keys=True)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _timed_generator(rec: SpanRecorder, name: str, gen, pull: int):
    """Forward ``gen`` step by step, one span per resumption."""
    value: Any = None
    error: Any = None
    while True:
        saved = rec.current_pull
        rec.current_pull = pull
        index = rec.open(name)
        try:
            if error is None:
                item = gen.send(value)
            else:
                item = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(index)
            rec.current_pull = saved
        try:
            value = yield item
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into gen next step
            value, error = None, exc


def _span(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _count(rec: SpanRecorder, key: str, fn: Callable) -> Callable:
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _note_pull_result(rec: SpanRecorder, result) -> None:
    rec.counts["registry.p2p.pulls"] += 1
    rec.counts["registry.cache.hits"] += sum(
        1 for layer in result.plan.layers if layer.kind is SourceKind.LOCAL
    )


@contextlib.contextmanager
def instrument(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch the layer boundaries to record into ``rec``; undo on exit."""
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    counts = rec.counts

    # scenarios: build and the session's wiring around it
    patch(session_module, "build_swarm_scenario",
          lambda fn: _span(rec, "scenarios.build", fn))
    patch(session_module.SimulationSession, "__init__",
          lambda fn: _span(rec, "scenarios.assemble", fn))

    # sim: the kernel loop, its event and timeout counts, processes
    patch(Simulator, "run", lambda fn: _span(rec, "sim.run", fn))
    patch(EventQueue, "step", lambda fn: _count(rec, "sim.events", fn))
    patch(Simulator, "timeout", lambda fn: _count(rec, "sim.timeouts", fn))

    def make_process(fn):
        @functools.wraps(fn)
        def process(self, generator):
            name = PROCESS_SPANS.get(
                getattr(generator, "__qualname__", ""), "sim.process"
            )
            return fn(
                self,
                _timed_generator(rec, name, generator, rec.current_pull),
            )

        return process

    patch(Simulator, "process", make_process)

    # sim.transfers: public calls plus the kernel callbacks into it
    def make_start(fn):
        @functools.wraps(fn)
        def start(*args, **kwargs):
            index = rec.open("sim.transfers.start")
            try:
                return fn(*args, **kwargs)
            except UploadBudgetExceeded:
                counts["sim.transfers.budget_refusals"] += 1
                raise
            finally:
                rec.close(index)

        return start

    patch(TransferEngine, "start", make_start)
    for attr in ("cancel", "cancel_many"):
        patch(TransferEngine, attr,
              lambda fn: _span(rec, "sim.transfers.cancel", fn))

    def make_cancel_uploads(fn):
        @functools.wraps(fn)
        def cancel_uploads_from(*args, **kwargs):
            index = rec.open("sim.transfers.cancel")
            try:
                cancelled = fn(*args, **kwargs)
            finally:
                rec.close(index)
            counts["sim.churn.cancelled_uploads"] += cancelled
            return cancelled

        return cancel_uploads_from

    patch(TransferEngine, "cancel_uploads_from", make_cancel_uploads)
    patch(TransferEngine, "_activate",
          lambda fn: _span(rec, "sim.transfers.activate", fn))
    for attr in ("_on_wake", "_on_wake_incremental", "_on_wake_sharded"):
        patch(TransferEngine, attr,
              lambda fn: _span(rec, "sim.transfers.wake", fn))

    # registry.p2p: pulls (one pull id each), peer lookup, replicator
    def make_pull_process(fn):
        @functools.wraps(fn)
        def pull_process(*args, **kwargs):
            result = yield from _timed_generator(
                rec, "registry.p2p.pull", fn(*args, **kwargs), rec.new_pull()
            )
            _note_pull_result(rec, result)
            return result

        return pull_process

    def make_pull(fn):
        @functools.wraps(fn)
        def pull(*args, **kwargs):
            saved = rec.current_pull
            rec.current_pull = rec.new_pull()
            index = rec.open("registry.p2p.pull")
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
                rec.current_pull = saved
            _note_pull_result(rec, result)
            return result

        return pull

    patch(P2PRegistry, "pull_process", make_pull_process)
    patch(P2PRegistry, "pull", make_pull)
    patch(PeerSwarm, "best_peer",
          lambda fn: _span(rec, "registry.p2p.best_peer", fn))
    patch(AdaptiveReplicator, "run_cycle",
          lambda fn: _span(rec, "registry.p2p.replicator_cycle", fn))

    # registry.chunks: the layer fetch and its rarest-first picks
    def make_fetch_layer(fn):
        @functools.wraps(fn)
        def fetch_layer(*args, **kwargs):
            return (
                yield from _timed_generator(
                    rec, "registry.chunks.fetch_layer",
                    fn(*args, **kwargs), rec.current_pull,
                )
            )

        return fetch_layer

    patch(ChunkSwarmPlanner, "fetch_layer", make_fetch_layer)
    patch(ChunkSwarmPlanner, "_next_chunk",
          lambda fn: _span(rec, "registry.chunks.rarest_first", fn))

    # registry.discovery: gossip rounds and view lookups
    patch(GossipDiscovery, "run_round",
          lambda fn: _span(rec, "registry.discovery.round", fn))
    for backend in (GossipDiscovery, OmniscientDiscovery):
        patch(backend, "view",
              lambda fn: _count(rec, "registry.discovery.view_calls", fn))

    # registry.cache: the reserve -> commit write path
    patch(ImageCache, "reserve",
          lambda fn: _count(rec, "registry.cache.reserves", fn))
    patch(ImageCache, "commit",
          lambda fn: _count(rec, "registry.cache.commits", fn))

    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric name -> unit.  Every traced run reports all of them
#: (0 where the workload bypasses the layer).
LAYER_METRICS: Dict[str, str] = {
    "scenarios.build_s": "s",
    "scenarios.assemble_s": "s",
    "scenarios.one_pull_s": "s",
    "sim.events": "count",
    "sim.timeouts": "count",
    "sim.self_s": "s",
    "sim.transfers.recomputes": "count",
    "sim.transfers.visited": "count",
    "sim.transfers.empty_recomputes": "count",
    "sim.transfers.recompute_s": "s",
    "sim.transfers.heap_push": "count",
    "sim.transfers.heap_pop": "count",
    "sim.transfers.heap_invalidate": "count",
    "sim.transfers.started": "count",
    "sim.transfers.cancelled": "count",
    "sim.transfers.budget_refusals": "count",
    "sim.transfers.start_s": "s",
    "sim.transfers.self_s": "s",
    "sim.transfers.visited_per_started": "ratio",
    "registry.chunks.rarest_first_calls": "count",
    "registry.chunks.rarest_first_s": "s",
    "registry.chunks.fetch_layer_s": "s",
    "registry.chunks.endgame_dupes": "count",
    "registry.chunks.waste_ratio": "ratio",
    "registry.discovery.rounds": "count",
    "registry.discovery.round_s": "s",
    "registry.discovery.records_sent": "count",
    "registry.discovery.payloads_lost": "count",
    "registry.discovery.stale_misses": "count",
    "registry.discovery.view_calls": "count",
    "registry.p2p.pulls": "count",
    "registry.p2p.pull_s": "s",
    "registry.p2p.best_peer_calls": "count",
    "registry.p2p.best_peer_s": "s",
    "registry.p2p.peer_byte_share": "ratio",
    "registry.p2p.replicator_cycles": "count",
    "registry.p2p.replicator_cycle_s": "s",
    "registry.cache.reserves": "count",
    "registry.cache.commits": "count",
    "registry.cache.hits": "count",
    "registry.cache.evictions": "count",
    "sim.churn.departures": "count",
    "sim.churn.rejoins": "count",
    "sim.churn.cancelled_uploads": "count",
    "sim.churn.self_s": "s",
    "telemetry.trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, session, outcome) -> Dict[str, float]:
    """Every per-layer metric of one traced run except the overhead.

    ``session`` ran with ``telemetry.profile`` on, so the engine's own
    :class:`~repro.telemetry.EngineProfile` supplies the recompute and
    deadline-heap counters.
    """
    self_s = rec.self_seconds()
    calls = rec.span_counts()
    counts = rec.counts

    def secs(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    engine = session.engine
    profile = outcome.engine_profile or {}
    heaps = profile.get("heaps", {}).values()
    started = engine.started if engine is not None else 0
    visited = engine.transfers_visited if engine is not None else 0
    chunks = session.facade.chunks
    discovery = session.discovery
    churn = session.churn_process
    useful = outcome.origin_bytes + outcome.bytes_from_peers
    return {
        "scenarios.build_s": secs("scenarios.build"),
        "scenarios.assemble_s": secs("scenarios.assemble"),
        "scenarios.one_pull_s": secs("scenarios.one_pull"),
        "sim.events": counts["sim.events"],
        "sim.timeouts": counts["sim.timeouts"],
        "sim.self_s": secs("sim.run"),
        "sim.transfers.recomputes": profile.get("recomputes", 0),
        "sim.transfers.visited": visited,
        "sim.transfers.empty_recomputes": profile.get(
            "closure_size_hist", {}
        ).get("0", 0),
        "sim.transfers.recompute_s": profile.get("recompute_ns_total", 0) / 1e9,
        "sim.transfers.heap_push": sum(h["pushes"] for h in heaps),
        "sim.transfers.heap_pop": sum(h["pops"] for h in heaps),
        "sim.transfers.heap_invalidate": sum(h["invalidations"] for h in heaps),
        "sim.transfers.started": started,
        "sim.transfers.cancelled": (
            engine.cancellations if engine is not None else 0
        ),
        "sim.transfers.budget_refusals": counts["sim.transfers.budget_refusals"],
        "sim.transfers.start_s": secs("sim.transfers.start"),
        "sim.transfers.self_s": secs(
            "sim.transfers.start", "sim.transfers.cancel",
            "sim.transfers.activate", "sim.transfers.wake",
        ),
        "sim.transfers.visited_per_started": _ratio(visited, started),
        "registry.chunks.rarest_first_calls": calls.get(
            "registry.chunks.rarest_first", 0
        ),
        "registry.chunks.rarest_first_s": secs("registry.chunks.rarest_first"),
        "registry.chunks.fetch_layer_s": secs(
            "registry.chunks.fetch_layer", "registry.chunks.worker"
        ),
        "registry.chunks.endgame_dupes": (
            chunks.endgame_dupes if chunks is not None else 0
        ),
        "registry.chunks.waste_ratio": _ratio(
            outcome.bytes_wasted, useful + outcome.bytes_wasted
        ),
        "registry.discovery.rounds": outcome.gossip_rounds,
        "registry.discovery.round_s": secs(
            "registry.discovery.round", "registry.discovery.loop"
        ),
        "registry.discovery.records_sent": outcome.gossip_records_sent,
        "registry.discovery.payloads_lost": outcome.gossip_payloads_lost,
        "registry.discovery.stale_misses": (
            discovery.stale_misses if discovery is not None else 0
        ),
        "registry.discovery.view_calls": counts["registry.discovery.view_calls"],
        "registry.p2p.pulls": counts["registry.p2p.pulls"],
        "registry.p2p.pull_s": secs("registry.p2p.pull"),
        "registry.p2p.best_peer_calls": calls.get("registry.p2p.best_peer", 0),
        "registry.p2p.best_peer_s": secs("registry.p2p.best_peer"),
        "registry.p2p.peer_byte_share": _ratio(outcome.bytes_from_peers, useful),
        "registry.p2p.replicator_cycles": calls.get(
            "registry.p2p.replicator_cycle", 0
        ),
        "registry.p2p.replicator_cycle_s": secs(
            "registry.p2p.replicator_cycle", "registry.p2p.replicator_loop"
        ),
        "registry.cache.reserves": counts["registry.cache.reserves"],
        "registry.cache.commits": counts["registry.cache.commits"],
        "registry.cache.hits": counts["registry.cache.hits"],
        "registry.cache.evictions": sum(
            len(cache.evictions) for cache in session.caches.values()
        ),
        "sim.churn.departures": churn.departures if churn is not None else 0,
        "sim.churn.rejoins": churn.rejoins if churn is not None else 0,
        "sim.churn.cancelled_uploads": counts["sim.churn.cancelled_uploads"],
        "sim.churn.self_s": secs("sim.churn.loop"),
    }
