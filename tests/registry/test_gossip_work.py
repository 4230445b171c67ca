"""Gossip discovery's deterministic work, pinned exactly.

Performance work on the anti-entropy merge must change how fast it
runs, never what it does.  Rounds, wire records, lost payloads,
exchanges, stale misses and the final view sizes are deterministic
functions of the scenario, so a rewrite that keeps them equal does the
same work.  The values were recorded before the merge moved to
per-digest payloads; a change that moves any of them changes the
simulation, and must update them on purpose.
"""

import pytest

from repro import scenarios
from repro.scenarios import SimulationSession
from repro.scenarios.spec import with_overrides

#: (label, overrides of the p2p-gossip preset) -> exact counters.
PINNED = {
    ("shipped", ()): {
        "gossip_rounds": 60,
        "gossip_records_sent": 511921,
        "gossip_payloads_lost": 0,
        "exchanges": 1760,
        "stale_misses": 3,
        "view_entries": 2917,
    },
    ("digest-summary-lossy", (
        ("discovery.gossip_exchange", "digest-summary"),
        ("discovery.gossip_loss_rate", 0.2),
    )): {
        "gossip_rounds": 60,
        "gossip_records_sent": 22579,
        "gossip_payloads_lost": 733,
        "exchanges": 1760,
        "stale_misses": 3,
        "view_entries": 2917,
    },
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: k[0])
def test_gossip_work_counters_are_pinned(key):
    _label, overrides = key
    base = scenarios.get("p2p-gossip")
    assert (base.topology.n_devices, base.topology.n_regions) == (16, 3)
    session = SimulationSession(with_overrides(base, dict(overrides)))
    outcome = session.run()
    discovery = session.discovery
    measured = {
        "gossip_rounds": outcome.gossip_rounds,
        "gossip_records_sent": outcome.gossip_records_sent,
        "gossip_payloads_lost": outcome.gossip_payloads_lost,
        "exchanges": discovery.exchanges,
        "stale_misses": discovery.stale_misses,
        "view_entries": sum(
            discovery.view_entries(viewer)
            for viewer in discovery.participants()
        ),
    }
    assert measured == PINNED[key]
