"""How fast this host runs a fixed piece of Python right now.

Shared hosts drift: the same deterministic session can take 2 s in one
minute and 3 s in the next, for setup and run alike.  The benchmark
therefore times a fixed reference loop right before and right after
every session and reports seconds scaled to the loop's nominal speed —
the seconds the session would have taken on the host the baseline was
measured on.  A speed of 1.0 is the nominal speed; 0.5 means the host is
running the loop at half that speed.

The simulator is slowed by two things: a slower core (every bytecode
takes longer) and contention for the shared caches and memory (every
load from its scattered object graph takes longer).  The loop feels
both: each iteration does some integer arithmetic in a four-entry dict,
which stays in the first-level cache, and one step along a ring of
:data:`RING_NODES` dicts linked in random order, which does not fit in
the second-level cache.  A cache-resident loop alone misses slowdowns
of the second kind; a pointer chase alone overreacts to them.

The loop runs in the benchmark's own process, never in a session's:
nothing foreign executes inside the measured window, and neither the
loop's code nor its memory depends on the simulator, so no change to
the program can move the scale.  Each set of timings first walks the
ring once untimed, so whatever the session evicted from the caches is
back before the clock starts.
"""

from __future__ import annotations

import functools
import random
from time import perf_counter
from typing import Dict, List

#: Dicts in the pointer-chasing ring (about 30 MB: larger than the
#: second-level cache, far smaller than the host's memory).
RING_NODES = 1 << 17
#: Iterations of one reference timing (about 40 ms).
REFERENCE_ITERATIONS = 100_000
#: Nanoseconds one iteration takes on the baseline host (a 2-vCPU
#: 2.1 GHz Xeon VM, Python 3.11) at a typical moment.
NOMINAL_NS_PER_ITERATION = 350.0


@functools.lru_cache(maxsize=None)
def _ring() -> Dict[str, object]:
    """One node of a ring that visits every node in a random order."""
    order = list(range(RING_NODES))
    random.Random(0).shuffle(order)
    nodes: List[Dict[str, object]] = [{} for _ in range(RING_NODES)]
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a]["next"] = nodes[b]
    return nodes[order[0]]


def reference_speeds(timings: int) -> List[float]:
    """Time the reference loop ``timings`` times; one speed each."""
    node = _ring()
    for _ in range(RING_NODES):
        node = node["next"]
    speeds = []
    for _ in range(timings):
        t0 = perf_counter()
        table = {0: 0, 1: 1, 2: 2, 3: 3}
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            slot = i & 3
            total += table[slot] * i
            table[slot] = total & 1023
            node = node["next"]
        seconds = perf_counter() - t0
        speeds.append(
            REFERENCE_ITERATIONS * NOMINAL_NS_PER_ITERATION / 1e9 / seconds
        )
    return speeds
