"""Differential test: the gossip merge path against a frozen oracle.

``GossipDiscovery`` merges per-digest payload groups and skips what the
receiver already holds.  :mod:`_reference_gossip` keeps the flat-payload
merge it replaced.  Both backends are driven through the same random
history — joins, leaves and re-joins, cache adds, evictions and
removes, stale-miss reports, and rounds under both exchange modes, with
and without payload loss, at several view caps — from the same seed,
and must agree exactly on every view and every counter after each step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.units import BYTES_PER_GB
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.discovery import GossipDiscovery

from _reference_gossip import ReferenceGossip

DEVICES = [f"d{i}" for i in range(5)]
DIGESTS = [digest_text(f"gossip-oracle-{i}") for i in range(3)]
OBSERVER = "__management__"

device = st.integers(min_value=0, max_value=len(DEVICES) - 1)
digest = st.integers(min_value=0, max_value=len(DIGESTS) - 1)
# Viewers include the management-plane observer (the last index).
viewer = st.integers(min_value=0, max_value=len(DEVICES))

steps = st.lists(
    st.one_of(
        st.tuples(st.just("join"), device),
        st.tuples(st.just("leave"), device),
        # Sizes differ so a re-add can re-announce; a cache holds two
        # entries, so adds evict.
        st.tuples(st.just("add"), device, digest, st.sampled_from([5, 10])),
        st.tuples(st.just("remove"), device, digest),
        st.tuples(st.just("miss"), viewer, device, digest),
        # Listed twice so rounds are drawn twice as often.
        st.tuples(st.just("round")),
        st.tuples(st.just("round")),
    ),
    max_size=60,
)

#: Each device's cache contents before it first joins.
placements = st.lists(
    st.lists(digest, max_size=2), min_size=len(DEVICES), max_size=len(DEVICES)
)


def snapshot(backend):
    """Views as plain values (empty digests dropped) plus counters."""
    views = {
        name: {
            dg: {h: (r.incarnation, r.seq, r.present) for h, r in recs.items()}
            for dg, recs in view.items()
            if recs
        }
        for name, view in backend._views.items()
    }
    counters = (
        backend.records_sent,
        backend.exchanges,
        backend.payloads_lost,
        backend.stale_misses,
        backend.rounds,
    )
    return views, counters


def apply(backend, caches, online, step):
    kind = step[0]
    if kind == "join":
        name = DEVICES[step[1]]
        if name not in online:
            backend.on_join(name, caches[name], region="r0")
    elif kind == "leave":
        name = DEVICES[step[1]]
        if name in online:
            backend.on_leave(name)
    elif kind == "miss":
        who = OBSERVER if step[1] == len(DEVICES) else DEVICES[step[1]]
        backend.record_miss(who, DEVICES[step[2]], DIGESTS[step[3]])
    elif kind == "round":
        backend.run_round()


@settings(max_examples=200, deadline=None)
@given(
    exchange=st.sampled_from(["push-pull", "digest-summary"]),
    loss_rate=st.sampled_from([0.0, 0.3]),
    view_cap=st.sampled_from([1, 2, 8]),
    fanout=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    placement=placements,
    history=steps,
)
def test_merge_matches_frozen_oracle(
    exchange, loss_rate, view_cap, fanout, seed, placement, history
):
    knobs = dict(
        fanout=fanout, view_cap=view_cap, seed=seed,
        exchange=exchange, loss_rate=loss_rate,
    )
    backend = GossipDiscovery(**knobs)
    oracle = ReferenceGossip(**knobs)
    # One cache per device, shared: each backend subscribes its own
    # listener, so both see every cache event.
    caches = {name: ImageCache(20 / BYTES_PER_GB, name) for name in DEVICES}
    for name, held in zip(DEVICES, placement):
        for index in held:
            caches[name].add(DIGESTS[index], 10)
    # Everyone starts online, so overlapping holders (and with them
    # the view cap) are the common case.
    start = [("join", index) for index in range(len(DEVICES))]
    online = set()
    for step in start + [("round",)] + history:
        kind = step[0]
        if kind in ("add", "remove"):
            cache = caches[DEVICES[step[1]]]
            if kind == "add":
                cache.add(DIGESTS[step[2]], step[3])
            else:
                cache.remove(DIGESTS[step[2]])
        else:
            apply(backend, caches, online, step)
            apply(oracle, caches, online, step)
        if kind == "join":
            online.add(DEVICES[step[1]])
        elif kind == "leave":
            online.discard(DEVICES[step[1]])
        assert snapshot(backend) == snapshot(oracle), step
