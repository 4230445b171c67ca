"""Run one benchmark session in this process and print its record.

``python -m swarmbench.child '<json request>'`` builds the workload's
scenario :data:`SETUPS` times (timing each construction of
``SimulationSession``), runs the last one, checks its outcome, and
prints one JSON object as the last line of standard output.
:mod:`swarmbench.run` starts a fresh process per session, so every
session starts from a cold interpreter heap and its peak resident
memory is its own.  Times are host seconds; :mod:`swarmbench.run`
scales them by the host speed it measures before and after the session.

A traced request (``"trace": true``) runs with the engine's
self-profile on and the layer boundaries instrumented
(:mod:`swarmbench.tracing`), and adds the per-layer metrics to the
record; ``"trace_out"`` names a file to export the spans to as Chrome
trace-event JSON.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from repro.scenarios import (
    SimulationSession,
    TelemetrySpec,
    canonical_hash,
    deterministic_outcome_dict,
)

from .tracing import (
    SpanRecorder,
    instrument,
    layer_metrics,
)
from .workloads import WORKLOADS, Workload

#: Tolerance on link oversubscription (fair-share rates are floats).
OVERSUBSCRIPTION_TOL = 1e-9
#: Scenario constructions per untraced session (``setup_s`` samples).
SETUPS = 3


def outcome_digest(outcome) -> str:
    """SHA-256 of the outcome's simulated results (wall clocks stripped)."""
    return canonical_hash(deterministic_outcome_dict(outcome.to_dict()))


def check_invariants(workload: Workload, session, outcome) -> List[str]:
    """Conservation checks that hold at any seed; returns violations."""
    problems: List[str] = []
    scheduled = len(session.scenario.schedule)
    counted = outcome.pulls + outcome.skipped_pulls + outcome.unfinished_pulls
    if counted != scheduled or min(
        outcome.pulls, outcome.skipped_pulls, outcome.unfinished_pulls
    ) < 0:
        problems.append(
            f"pull accounting: {outcome.pulls} pulls + "
            f"{outcome.skipped_pulls} skipped + {outcome.unfinished_pulls} "
            f"unfinished != {scheduled} scheduled"
        )
    engine = session.engine
    if engine is not None:
        peak = engine.peak_oversubscription()
        if peak > 1 + OVERSUBSCRIPTION_TOL:
            problems.append(f"link oversubscribed: peak {peak!r}")
        if workload.drains_engine and engine.active_transfers:
            problems.append(
                f"{len(engine.active_transfers)} transfers still active "
                f"at the end of the run"
            )
    reserved = sorted(
        name for name, cache in session.caches.items() if cache.reserved_bytes
    )
    if reserved:
        problems.append(
            f"cache reservations left over on {len(reserved)} devices "
            f"(first: {reserved[0]})"
        )
    return problems


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` is no good here: it carries over the parent's resident
    size from before ``exec``.  ``VmHWM`` belongs to this program alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_session(request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one request; the returned dict is the child's record."""
    workload = WORKLOADS[request["workload"]]
    spec = workload.spec(request["seed"], request.get("size", "full"))
    traced = bool(request.get("trace"))
    if traced:
        spec = replace(spec, telemetry=TelemetrySpec(profile=True))
    # A traced session is built once, so its spans cover one build.
    setups = 1 if traced else SETUPS

    recorder = SpanRecorder() if traced else None
    scope = (
        instrument(recorder) if recorder is not None
        else contextlib.nullcontext()
    )

    setup_s: List[float] = []
    with scope:
        for _ in range(setups):
            # Free the previous build (it holds reference cycles) so the
            # peak resident memory is that of one build and its run.
            session = None
            gc.collect()
            t0 = perf_counter()
            session = SimulationSession(spec)
            setup_s.append(perf_counter() - t0)
        t0 = perf_counter()
        outcome = session.run()
        run_s = perf_counter() - t0

    record: Dict[str, Any] = {
        "host_setup_s": setup_s,
        "host_run_s": run_s,
        "rss_mb": peak_rss_mb(),
        "digest": outcome_digest(outcome),
        "violations": check_invariants(workload, session, outcome),
    }
    if recorder is not None:
        record["layers"] = layer_metrics(recorder, session, outcome)
        record["spans"] = len(recorder.spans)
        if request.get("trace_out"):
            recorder.write_chrome_trace(Path(request["trace_out"]))
    return record


def main(argv: List[str]) -> int:
    request = json.loads(argv[0])
    print(json.dumps(run_session(request), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
