"""The fill's link-resident working state is at rest between fills.

Progressive filling keeps its per-link scratch state on the links
themselves (``Link.fill_cap``, ``Link.fill_n``).  That is only sound
if ``fill_n`` is 0 whenever no fill is running: the next fill detects
a link's first touch by ``fill_n == 0``.  These tests check the
zero-at-rest invariant after every recompute in every mode, across
``cancel_many`` batches, and around ``reference_rates()`` — which must
also leave every rate and peak untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_incremental import MODES, _run_trace, cancel_specs, trace_specs
from test_transfers import MB, run_transfer, star_network

from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine


def assert_at_rest(engine):
    busy = {link.name: link.fill_n for link in engine.links() if link.fill_n}
    assert not busy, f"fill state left behind: {busy}"


def assert_reference_is_pure(engine):
    """``reference_rates()`` returns the live rates and touches no
    rate, peak or fill state."""
    rates = {t.id: t.rate_mbps for t in engine.active_transfers}
    peaks = {link.name: link.peak_utilisation_mbps for link in engine.links()}
    assert engine.reference_rates() == rates
    assert {t.id: t.rate_mbps for t in engine.active_transfers} == rates
    assert {
        link.name: link.peak_utilisation_mbps for link in engine.links()
    } == peaks
    assert_at_rest(engine)


def check_after_every_recompute(sim, engine):
    """A ``_run_trace`` setup hook: wrap both recompute entry points so
    the invariants are checked each time one returns."""
    for name in ("_recompute", "_recompute_incremental"):
        method = getattr(engine, name)

        def checked(*args, _method=method):
            _method(*args)
            assert_at_rest(engine)
            assert_reference_is_pure(engine)

        setattr(engine, name, checked)


@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    cancels=cancel_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    mode=st.sampled_from(sorted(MODES)),
)
def test_fill_state_at_rest_after_every_recompute(
    specs, cancels, uplink, mode
):
    engine, _ = _run_trace(
        specs, cancels, uplink, None,
        setup=check_after_every_recompute, **MODES[mode],
    )
    assert engine.recomputes > 0
    assert_at_rest(engine)


def test_fill_state_at_rest_after_cancel_many_batches():
    """Batches that mix active, still-in-handshake, and already
    cancelled victims, in every mode."""
    for kw in MODES.values():
        network = star_network(n_devices=5, uplink_mbps=60.0, rtt_s=0.5)
        sim = Simulator()
        engine = TransferEngine(sim, network, **kw)
        runs = [
            run_transfer(
                sim, engine, "origin", f"d{i}", (20 + 10 * i) * MB,
                src_is_registry=True,
            )
            for i in range(5)
        ]
        cancelled = []

        def axe():
            yield sim.timeout(0.2)  # d0..d4 still in their handshake
            cancelled.append(engine.cancel_many(
                [runs[4]["transfer"]], "early"
            ))
            assert_at_rest(engine)
            yield sim.timeout(1.0)  # the rest are active now
            cancelled.append(engine.cancel_many(
                [r["transfer"] for r in runs[1:]], "batch"
            ))
            assert_at_rest(engine)
            assert_reference_is_pure(engine)

        sim.process(axe())
        sim.run()
        assert cancelled == [1, 3]
        assert engine.completed == 1
        assert_at_rest(engine)
        assert engine.reference_rates() == {}
