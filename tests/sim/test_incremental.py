"""Differential tests for the incremental fair-share recompute.

The incremental engine's contract is **bit-identical rates**: on every
start/finish/cancel it re-solves only the dirty closure — the
connected component(s) of the transfer–link graph the event perturbed
— and because max-min fairness decomposes exactly over components,
the closure solution must equal the full solve.  ``self_check=True``
re-derives the full scalar solution after every recompute and raises
on any mismatch, so the Hypothesis traces here fail loudly on the
first divergent rate instead of on a downstream timing drift.

Completion *times* are compared with a tight relative tolerance, not
exactly: the two modes settle progress in different chunkings (full
mode advances every active transfer at every event, incremental mode
advances a transfer only when its closure is touched), so the
accumulated ``remaining_mb`` values can differ by float rounding even
though every instantaneous rate is identical.
"""

import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_fill import reference_rates as oracle_rates
from test_transfers import MB, run_transfer, star_network

from repro import scenarios
from repro.scenarios import SimulationSession
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine


# ----------------------------------------------------------------------
# trace machinery
# ----------------------------------------------------------------------
trace_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # source device index
        st.integers(min_value=0, max_value=4),  # destination device index
        st.integers(min_value=1, max_value=400 * MB),  # size
        st.floats(min_value=0.0, max_value=25.0),  # start time
    ),
    min_size=1,
    max_size=14,
)

#: (victim index into the started list, cancel time, use cancel_many)
cancel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=13),
        st.floats(min_value=0.1, max_value=40.0),
        st.booleans(),
    ),
    max_size=4,
)


def _run_trace(specs, cancels, uplink, downlink, setup=None, **engine_kw):
    """Replay one start/cancel trace; returns (engine, run records).

    ``setup(sim, engine)``, when given, runs before the simulation
    starts (tests use it to hook checks into the kernel or engine).
    """
    network = star_network(
        n_devices=5, uplink_mbps=uplink, downlink_mbps=downlink
    )
    sim = Simulator()
    engine = TransferEngine(sim, network, **engine_kw)
    runs = []

    def launch(at_s, src, dst, size):
        yield sim.timeout(at_s)
        record = run_transfer(
            sim, engine, src, dst, size, src_is_registry=(src == "origin")
        )
        record["requested"] = sim.now
        runs.append(record)

    def axe(at_s, index, many):
        yield sim.timeout(at_s)
        if index >= len(runs):
            return
        # A launch resumed at this same instant has appended its record
        # but its transfer process hasn't called start() yet — nothing
        # to cancel, skip (deterministically: event order is seeded).
        victim = runs[index].get("transfer")
        if victim is None:
            return
        if many:
            engine.cancel_many([victim], "trace")
        else:
            engine.cancel(victim, "trace")

    for src_i, dst_i, size, at_s in specs:
        src = "origin" if src_i == dst_i else f"d{src_i}"
        sim.process(launch(at_s, src, f"d{dst_i}", size))
    for index, at_s, many in cancels:
        sim.process(axe(at_s, index, many))
    if setup is not None:
        setup(sim, engine)
    sim.run()
    return engine, runs


# ----------------------------------------------------------------------
# the differential properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    specs=trace_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_incremental_rates_match_full_on_random_traces(
    specs, uplink, downlink
):
    """self_check re-solves the whole system after every incremental
    recompute and asserts rate-for-rate equality."""
    engine, runs = _run_trace(
        specs, [], uplink, downlink, incremental=True, self_check=True
    )
    assert engine.completed == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    specs=trace_specs,
    cancels=cancel_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
)
def test_incremental_rates_match_full_under_cancellation(
    specs, cancels, uplink
):
    engine, runs = _run_trace(
        specs, cancels, uplink, None, incremental=True, self_check=True
    )
    assert engine.completed + engine.cancellations == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_full_and_incremental_timelines_agree(specs, uplink, downlink):
    """Same trace through both modes: every transfer completes at the
    same instant up to settling-order float noise."""
    full, full_runs = _run_trace(specs, [], uplink, downlink)
    inc, inc_runs = _run_trace(
        specs, [], uplink, downlink, incremental=True
    )
    assert full.completed == inc.completed == len(specs)
    for a, b in zip(full_runs, inc_runs):
        assert a["requested"] == b["requested"]
        assert b["end"] == pytest.approx(a["end"], rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    uplink=st.sampled_from([60.0, 150.0]),
)
def test_incremental_never_visits_more_transfers(specs, uplink):
    """The dirty closure is a subset of the active set, so the visited
    counter — the work metric the scale benchmarks compare — can never
    exceed full mode's on the same trace."""
    full, _ = _run_trace(specs, [], uplink, None)
    inc, _ = _run_trace(specs, [], uplink, None, incremental=True)
    assert inc.transfers_visited <= full.transfers_visited


def test_independent_components_stay_untouched():
    """Three disjoint peer pairs: each event's closure is exactly one
    transfer, so incremental work stays linear while full mode
    re-rates every active transfer per event."""
    def build(incremental):
        network = star_network(n_devices=6)
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=incremental)
        runs = []

        def launch(at_s, src, dst):
            yield sim.timeout(at_s)
            runs.append(run_transfer(sim, engine, src, dst, 100 * MB))

        for i, (src, dst) in enumerate(
            [("d0", "d1"), ("d2", "d3"), ("d4", "d5")]
        ):
            sim.process(launch(0.5 * i, src, dst))
        sim.run()
        return engine, runs

    full, full_runs = build(incremental=False)
    inc, inc_runs = build(incremental=True)
    assert full.completed == inc.completed == 3
    for a, b in zip(full_runs, inc_runs):
        assert b["end"] == pytest.approx(a["end"], rel=1e-12)
    # Each start re-rates exactly the new singleton; each finish
    # leaves an *empty* closure (the component dies with the
    # transfer), so only 3 visits total.  Full mode re-rates the
    # whole active set on every one of the 6 events.
    assert inc.transfers_visited == 3
    assert full.transfers_visited > inc.transfers_visited


# ----------------------------------------------------------------------
# pinned timelines: the exact numbers of the full-mode unit tests
# ----------------------------------------------------------------------
class TestKnownTimelines:
    def test_late_arrival_shares_then_survivor_speeds_up(self):
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=True)
        a = run_transfer(
            sim, engine, "origin", "d0", 100 * MB, src_is_registry=True
        )
        b = {}

        def late():
            yield sim.timeout(5.0)
            transfer = engine.start(
                "origin", "d1", 100 * MB, src_is_registry=True
            )
            yield transfer.done
            b["end"] = sim.now

        sim.process(late())
        sim.run()
        assert a["end"] == pytest.approx(13.0)
        assert b["end"] == pytest.approx(18.0)

    def test_cancel_releases_bandwidth_immediately(self):
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=True)
        a = run_transfer(
            sim, engine, "origin", "d0", 100 * MB, src_is_registry=True
        )
        b = run_transfer(
            sim, engine, "origin", "d1", 100 * MB, src_is_registry=True
        )

        def axe():
            yield sim.timeout(4.0)
            engine.cancel(b["transfer"], "test")

        sim.process(axe())
        sim.run()
        assert b["ok"] is False and b["end"] == pytest.approx(4.0)
        assert a["end"] == pytest.approx(11.5)

    def test_cancel_does_not_drag_the_clock_to_the_stale_prediction(self):
        from repro.model.network import NetworkModel

        network = NetworkModel()
        network.connect_registry("origin", "d0", 1.0)  # finish at t=800
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=True)
        r = run_transfer(
            sim, engine, "origin", "d0", 100 * MB, src_is_registry=True
        )

        def axe():
            yield sim.timeout(1.0)
            engine.cancel(r["transfer"], "churn")

        sim.process(axe())
        end = sim.run()
        assert end == pytest.approx(1.0)  # not 800.0

    def test_zero_size_and_rtt_unchanged(self):
        network = star_network(rtt_s=1.5)
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=True)
        zero = run_transfer(
            sim, engine, "origin", "d0", 0, src_is_registry=True
        )
        payload = run_transfer(
            sim, engine, "origin", "d1", 100 * MB, src_is_registry=True
        )
        sim.run()
        assert zero["end"] == pytest.approx(1.5)
        assert payload["end"] == pytest.approx(11.5)  # 1.5 rtt + 10 s


# ----------------------------------------------------------------------
# every mode's rates equal a frozen, independent fill oracle
# ----------------------------------------------------------------------
#: TransferEngine keyword arguments per recompute mode.
MODES = {
    "full": {},
    "incremental": {"incremental": True},
    "sharded": {"sharded": True},
}


def check_after_every_event(check):
    """A ``_run_trace`` setup hook running ``check(engine)`` after
    every event the kernel dispatches."""
    def setup(sim, engine):
        queue = sim._queue
        step = queue.step

        def checked_step():
            event = step()
            check(engine)
            return event

        queue.step = checked_step

    return setup


@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    cancels=cancel_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
    mode=st.sampled_from(sorted(MODES)),
)
def test_engine_rates_match_frozen_oracle(
    specs, cancels, uplink, downlink, mode
):
    """After every kernel event, every active transfer's rate equals
    the rate the frozen dict-keyed fill in ``_reference_fill`` assigns
    over the whole active set — exactly.  ``self_check`` cannot catch a
    bug in the fill itself (``reference_rates()`` shares it); this
    oracle does not change when the engine's fill does."""
    checked = []

    def check(engine):
        active = {t.id: t for t in engine.active_transfers}
        rates = {tid: t.rate_mbps for tid, t in active.items()}
        assert rates == oracle_rates(active)
        checked.append(len(active))

    engine, runs = _run_trace(
        specs, cancels, uplink, downlink,
        setup=check_after_every_event(check), **MODES[mode],
    )
    assert engine.completed + engine.cancellations == len(specs)
    assert not engine.active_transfers
    assert len(checked) >= len(specs)


# ----------------------------------------------------------------------
# the pinned presets are bit-for-bit preserved (default path) and
# outcome-equivalent under the incremental engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["p2p-contended", "p2p-chunked"])
def test_preset_outcomes_match_full_engine(preset):
    """The two time-resolved experiment presets replayed through the
    incremental engine (with self_check on) must reproduce the pinned
    full-mode outcomes: counts and byte totals exactly, clock-derived
    floats to within settling noise."""
    base = scenarios.get(preset)
    assert base.transfer.recompute == "full"  # the pinned default path
    full = SimulationSession(base).run()
    spec = replace(
        base, transfer=replace(base.transfer, recompute="incremental")
    )
    session = SimulationSession(spec)
    session.engine.self_check = True
    inc = session.run()
    # Compare the deterministic surface; wall-clock fields differ
    # between any two runs by nature.
    reference = scenarios.deterministic_outcome_dict(full.to_dict())
    candidate = scenarios.deterministic_outcome_dict(inc.to_dict())
    assert set(reference) == set(candidate)
    for key, expected in reference.items():
        actual = candidate[key]
        if key == "engine_transfers_visited":
            # The recompute work counter is the one field the two
            # modes *must* disagree on: visiting fewer transfers per
            # event is the incremental engine's reason to exist.
            assert 0 < actual <= expected, key
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9), key
        else:
            assert actual == expected, key
