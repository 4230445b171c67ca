"""Each path of the progressive fill, on hand-built topologies.

The fill solves a closure one of three ways: a lone transfer takes
its path bottleneck (the singleton path); a closure whose first
bottleneck carries every member is solved in one scan (the
single-level fast path); anything else freezes one bottleneck level
at a time (the general path).  The topologies below each force one of
these, plus a closure that is only reachable from a seed link with a
single occupant, and run under all three engine modes.

After every kernel event three things must hold:

* every rate equals the frozen oracle in ``_reference_fill.py``;
* every link's ``fill_n`` is back at 0;
* every link's ``peak_utilisation_mbps`` equals the running maximum,
  over recomputes, of the sum of its transfers' rates in insertion
  order, compared with ``==`` — so a fast path that computes a
  k-occupant link's utilisation as ``share * k`` instead of k
  additions (which differ in the last bit, e.g. 7 × 100/7) fails.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_fill import reference_rates as oracle_rates
from test_incremental import MODES, _run_trace, cancel_specs, trace_specs
from test_transfers import MB, run_transfer

from repro.model.network import TRUNK, LinkSpec
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine


class PathNetwork:
    """A network whose transfer paths are given link by link.

    ``paths`` maps ``(src, dst)`` to ``[(link name, capacity, shard)]``;
    every transfer has zero latency.
    """

    def __init__(self, paths):
        self.paths = paths

    def transfer_path(self, src, dst, src_is_registry=False):
        specs = [
            LinkSpec(name, capacity, shard)
            for name, capacity, shard in self.paths[(src, dst)]
        ]
        return specs, 0.0


def link_sums(engine):
    """Each link's utilisation: its rates summed in insertion order."""
    sums = {}
    for link in engine.links():
        utilisation = 0.0
        for transfer in link.transfers.values():
            utilisation += transfer.rate_mbps
        sums[link.name] = utilisation
    return sums


def watch(sim, engine):
    """Hook the checks into ``engine``: the expected peaks follow every
    recompute, and the three invariants are asserted after every kernel
    event.  Returns how many fills took each multi-transfer path."""
    expected_peaks = {}
    tally = {"single-level": 0, "general": 0}

    def note_peaks():
        for name, utilisation in link_sums(engine).items():
            if utilisation > expected_peaks.get(name, 0.0):
                expected_peaks[name] = utilisation

    for name in ("_recompute", "_recompute_incremental"):
        method = getattr(engine, name)

        def recompute(*args, _method=method):
            _method(*args)
            note_peaks()

        setattr(engine, name, recompute)

    fill = engine._fill

    def counted_fill(transfers, *args, record=None):
        if record is None:
            counts = {}
            for transfer in transfers.values():
                for link in transfer.links:
                    counts[link.name] = counts.get(link.name, 0) + 1
            shares = {
                link.name: link.capacity_mbps / counts[link.name]
                for transfer in transfers.values() for link in transfer.links
            }
            first = min(shares, key=lambda name: (shares[name], name))
            single = counts[first] == len(transfers)
            tally["single-level" if single else "general"] += 1
        return fill(transfers, *args, record=record)

    engine._fill = counted_fill

    def check():
        assert {t.id: t.rate_mbps for t in engine.active_transfers} == (
            oracle_rates(engine._active)
        )
        busy = {
            link.name: link.fill_n for link in engine.links() if link.fill_n
        }
        assert not busy, f"fill state left behind: {busy}"
        peaks = {
            link.name: link.peak_utilisation_mbps for link in engine.links()
        }
        assert peaks == {
            name: expected_peaks.get(name, 0.0) for name in peaks
        }

    queue = sim._queue
    step = queue.step

    def checked_step():
        event = step()
        check()
        return event

    queue.step = checked_step
    return tally


def run_topology(paths, starts, cancels=(), **engine_kw):
    """Start ``(at_s, src, dst, size_mb)`` transfers and cancel
    ``(at_s, index)`` ones on a :class:`PathNetwork`; returns the
    engine, the fill-path tally and the run records."""
    sim = Simulator()
    engine = TransferEngine(sim, PathNetwork(paths), **engine_kw)
    tally = watch(sim, engine)
    runs = []

    def launch(at_s, src, dst, size_mb):
        yield sim.timeout(at_s)
        runs.append(run_transfer(sim, engine, src, dst, size_mb * MB))

    def axe(at_s, index):
        yield sim.timeout(at_s)
        engine.cancel(runs[index]["transfer"], "test")

    for at_s, src, dst, size_mb in starts:
        sim.process(launch(at_s, src, dst, size_mb))
    for at_s, index in cancels:
        sim.process(axe(at_s, index))
    sim.run()
    return engine, tally, runs


def in_every_mode(paths, starts, cancels=()):
    results = {}
    for mode, kw in MODES.items():
        engine, tally, runs = run_topology(paths, starts, cancels, **kw)
        assert not engine.active_transfers
        results[mode] = (engine, tally, runs)
    ends = {
        mode: [run["end"] for run in runs]
        for mode, (_engine, _tally, runs) in results.items()
    }
    # Rates are bit-identical across modes; completion times agree up
    # to the modes' different settling order.
    for mode_ends in ends.values():
        for a, b in zip(ends["full"], mode_ends):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    return results


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
def test_single_level_closure_where_the_bottleneck_carries_everyone():
    """Seven pulls share a 100 Mbit/s trunk slice; each also crosses a
    private channel in its own region.  The trunk carries every member
    of every closure, so each multi-transfer fill has one level — and
    at six and seven occupants, 100/k added k times is
    100.00000000000001, one ulp above ``share * k``."""
    paths = {
        ("hub", f"d{i}"): [
            ("trunk", 100.0, TRUNK),
            (f"chan:{i}", 1000.0, f"region-{i % 3}"),
        ]
        for i in range(7)
    }
    starts = [(0.5 * i, "hub", f"d{i}", 40 + 7 * i) for i in range(7)]
    for mode, (engine, tally, _runs) in in_every_mode(paths, starts).items():
        assert tally["single-level"] > 0, mode
        assert tally["general"] == 0, mode
        assert engine.link("trunk").peak_utilisation_mbps == (
            100.00000000000001
        ), mode


def test_two_level_closure():
    """``x`` and ``y`` are held to 15 each by a 30 Mbit/s link; ``z``
    shares only the 100 Mbit/s link with them and takes the 70 left:
    two bottleneck levels."""
    paths = {
        ("s", "x"): [("narrow", 30.0, "region-0"), ("wide", 100.0, TRUNK)],
        ("s", "y"): [("narrow", 30.0, "region-0"), ("wide", 100.0, TRUNK)],
        ("s", "z"): [("wide", 100.0, TRUNK), ("down:z", 500.0, "region-1")],
    }
    starts = [(0.0, "s", "x", 60), (0.3, "s", "y", 90), (0.6, "s", "z", 200)]
    for mode, (engine, tally, _runs) in in_every_mode(paths, starts).items():
        assert tally["general"] > 0, mode
        assert engine.link("wide").peak_utilisation_mbps == 100.0, mode
        assert engine.link("narrow").peak_utilisation_mbps == 30.0, mode


def test_equal_share_tie_sends_the_solve_to_the_general_path():
    """``a-tie`` (20 Mbit/s, two transfers) and ``b-tie`` (30 Mbit/s,
    all three) both split to exactly 10.  The tie goes to the smaller
    name, which carries only part of the closure, so the solve must
    take the general path even though one link carries everyone."""
    paths = {
        ("s", "x"): [("a-tie", 20.0, "region-0"), ("b-tie", 30.0, TRUNK)],
        ("s", "y"): [("a-tie", 20.0, "region-0"), ("b-tie", 30.0, TRUNK)],
        ("s", "z"): [("b-tie", 30.0, TRUNK), ("down:z", 500.0, "region-1")],
    }
    starts = [(0.0, "s", "x", 30), (0.0, "s", "y", 45), (0.0, "s", "z", 60)]
    for mode, (engine, tally, _runs) in in_every_mode(paths, starts).items():
        assert tally["general"] > 0, mode


def test_closure_reached_from_a_seed_link_with_one_occupant():
    """When ``w`` is cancelled, its links are the seeds.  ``q`` is then
    left with ``v`` alone, and ``v``'s closure (``v``, ``u1``, ``u2`` on
    the shared ``t3``) is reachable only through it: the walk must
    push a one-occupant seed even though it skips one-occupant links it
    reaches through their occupant."""
    paths = {
        ("s", "w"): [("q", 50.0, "region-0"), ("r", 80.0, "region-0")],
        ("s", "v"): [("q", 50.0, "region-0"), ("t3", 90.0, TRUNK)],
        ("s", "u1"): [("t3", 90.0, TRUNK), ("down:u1", 40.0, "region-1")],
        ("s", "u2"): [("t3", 90.0, TRUNK), ("down:u2", 400.0, "region-2")],
    }
    starts = [
        (0.0, "s", "w", 500),
        (0.1, "s", "v", 300),
        (0.2, "s", "u1", 200),
        (0.3, "s", "u2", 250),
    ]
    results = in_every_mode(paths, starts, cancels=[(1.0, 0)])
    for mode, (engine, _tally, runs) in results.items():
        assert runs[0]["ok"] is False, mode
        assert engine.cancellations == 1, mode
        # Before the cancel q held v to 25; after it, t3's even split
        # of 30 is the bottleneck of v's closure.  The per-event oracle
        # check has already caught a walk that missed the closure.
        assert engine.link("q").peak_utilisation_mbps == 50.0, mode


# ----------------------------------------------------------------------
# random traces
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    cancels=cancel_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    mode=st.sampled_from(sorted(MODES)),
)
def test_peaks_are_the_running_max_of_summed_rates(
    specs, cancels, uplink, mode
):
    """The star-network traces of ``test_incremental``: after every
    kernel event the rates match the oracle, the fill state is at rest,
    and every peak is exactly the running max of its summed rates."""
    engine, _runs = _run_trace(
        specs, cancels, uplink, None, setup=watch, **MODES[mode]
    )
    assert not engine.active_transfers
