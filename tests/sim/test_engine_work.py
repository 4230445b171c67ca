"""The transfer engine's deterministic work, pinned exactly.

Performance work on the engine must change how fast it runs, never
what it does.  These counters — recomputes, transfers re-rated,
transfers started, kernel events dispatched, deadline-heap pushes /
pops / invalidations per heap — are deterministic functions of the
scenario, so a rewrite that keeps them equal does the same work.  The
values were recorded before the engine's fill moved its working state
onto the links; a change that moves any of them changes the
simulation, and must update them on purpose.
"""

from dataclasses import replace

import pytest

from repro import scenarios
from repro.scenarios import SimulationSession, TelemetrySpec

#: (preset, devices, regions) -> exact counters.  ``recomputes`` is
#: the engine's own count; ``profiled_recomputes`` is the profile's,
#: which in full mode skips recomputes over an empty active set.
PINNED = {
    ("p2p-chunked", 8, 2): {
        "recomputes": 853,
        "transfers_visited": 16201,
        "started": 528,
        "events": 2084,
        "profiled_recomputes": 848,
        "transfers_rerated": 16201,
        "closure_size_hist": {
            "1": 9, "2": 10, "4": 47, "8": 77, "16": 190, "32": 515,
        },
        "heaps": {},
    },
    ("p2p-swarm-100k", 60, 3): {
        "recomputes": 1320,
        "transfers_visited": 15502,
        "started": 660,
        "events": 2343,
        "profiled_recomputes": 1320,
        "transfers_rerated": 15502,
        "closure_size_hist": {
            "0": 16, "1": 37, "2": 46, "4": 105, "8": 206, "16": 543,
            "32": 367,
        },
        "heaps": {
            "@front": (1273, 660, 613),
            "region-0": (5166, 220, 4946),
            "region-1": (5168, 220, 4948),
            "region-2": (5168, 220, 4948),
        },
    },
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: k[0])
def test_engine_work_counters_are_pinned(key):
    preset, n_devices, n_regions = key
    base = scenarios.get(preset)
    spec = replace(
        base,
        topology=replace(
            base.topology, n_devices=n_devices, n_regions=n_regions
        ),
        telemetry=TelemetrySpec(profile=True),
    )
    session = SimulationSession(spec)
    queue = session.sim._queue
    step = queue.step
    events = []

    def counted_step():
        events.append(None)
        return step()

    queue.step = counted_step
    outcome = session.run()
    engine = session.engine
    profile = outcome.engine_profile
    measured = {
        "recomputes": engine.recomputes,
        "transfers_visited": engine.transfers_visited,
        "started": engine.started,
        "events": len(events),
        "profiled_recomputes": profile["recomputes"],
        "transfers_rerated": profile["transfers_rerated"],
        "closure_size_hist": profile["closure_size_hist"],
        "heaps": {
            name: (h["pushes"], h["pops"], h["invalidations"])
            for name, h in profile["heaps"].items()
        },
    }
    assert measured == PINNED[key]
