"""The benchmark's workloads: three resized scenario presets.

Each workload is a preset from :mod:`repro.scenarios` resized with
:func:`dataclasses.replace` — the benchmark reaches the simulator only
through its public API.  The ``--seed`` argument becomes
``ScenarioSpec.seed``; everything the session does (pull schedule,
gossip partners, churn, chunk tie-breaks) derives from it.

Every workload has two sizes: ``full`` is what the benchmark times and
what its outcome gate replays, and ``tiny`` is the cheap copy the
benchmark's tests run.  ``GOLDEN`` pins the outcome digest of each
workload and size at the default seed; a change that moves any simulated result
(makespan, bytes per registry, bytes from peers, ...) fails the gate.
``README.md`` says why each workload was chosen and what it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro import scenarios
from repro.scenarios import ScenarioSpec
from repro.sim.rng import DEFAULT_SEED


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    preset: str
    #: (n_devices, n_regions) per size.
    topology: Dict[str, Tuple[int, int]]
    #: Whether every pull must have drained the transfer engine by the
    #: end of the run (no transfer may still be active).
    drains_engine: bool

    def spec(self, seed: int, size: str = "full") -> ScenarioSpec:
        """The scenario this workload runs at ``seed``."""
        base = scenarios.get(self.preset)
        n_devices, n_regions = self.topology[size]
        return replace(
            base,
            seed=seed,
            topology=replace(
                base.topology, n_devices=n_devices, n_regions=n_regions
            ),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold-wave-sharded",
            preset="p2p-swarm-100k",
            topology={"full": (600, 30), "tiny": (60, 3)},
            drains_engine=True,
        ),
        Workload(
            name="chunked-contended",
            preset="p2p-chunked",
            topology={"full": (36, 2), "tiny": (8, 2)},
            drains_engine=True,
        ),
        Workload(
            name="gossip-churn-zipf",
            preset="p2p-gossip",
            topology={"full": (48, 3), "tiny": (16, 3)},
            drains_engine=False,
        ),
    )
}

#: Outcome digests at DEFAULT_SEED, by (workload, size).
GOLDEN: Dict[Tuple[str, str], str] = {
    ("cold-wave-sharded", "full"):
        "4da894ed7d30886e21dea3aec5fff99ebcaa88425c2bcd50830eb2202814d809",
    ("cold-wave-sharded", "tiny"):
        "05c3f2b4237638a18b069d65f84d4f5c90d26522d0221025bc6563d315057a11",
    ("chunked-contended", "full"):
        "0c49ec5c92fcc4c1b468efa11e7e215400de61b66ea93603d68c5a2bfc06a1b6",
    ("chunked-contended", "tiny"):
        "e366af6420ec1232695e5392adb30bdc3aa91c43bdfa23bc81f21785557a3073",
    ("gossip-churn-zipf", "full"):
        "ea69647cb86e07236cf58801b37c2f13f6ac0b931d5bb9baee6bd9d678994d72",
    ("gossip-churn-zipf", "tiny"):
        "d575a2ac8b1904817c7af3fe76122d91e2d5bffa0d12ae65e413d76212dc2762",
}
