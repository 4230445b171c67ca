"""Tests for the benchmark itself, mostly at the workloads' tiny size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import SimulationSession
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine

from swarmbench import run as bench
from swarmbench.child import check_invariants, run_session
from swarmbench.tracing import LAYER_METRICS
from swarmbench.workloads import DEFAULT_SEED, GOLDEN, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A seed the golden digests do not cover.
HELD_OUT_SEED = 7


def tiny(workload: str, seed: int = DEFAULT_SEED, **extra) -> dict:
    return run_session({"workload": workload, "seed": seed, "size": "tiny", **extra})


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reproduces_its_golden_digest(workload):
    record = tiny(workload)
    assert record["violations"] == []
    assert record["digest"] == GOLDEN[(workload, "tiny")]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_observation_only(workload, tmp_path):
    trace_out = tmp_path / "trace.json"
    record = tiny(workload, trace=True, trace_out=str(trace_out))
    assert record["digest"] == GOLDEN[(workload, "tiny")]
    for method in (Simulator.run, Simulator.process, TransferEngine.start):
        assert not hasattr(method, "__wrapped__")  # patches undone
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(record["layers"]) == declared - {"telemetry.trace_overhead"}
    events = json.loads(trace_out.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == record["spans"]
    assert {e["tid"] for e in spans} > {0}  # pull tracks beside @sim


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_invariants_hold_on_a_held_out_seed(workload):
    assert tiny(workload, seed=HELD_OUT_SEED)["violations"] == []


def test_invariant_check_catches_a_leftover_reservation():
    workload = WORKLOADS["chunked-contended"]
    session = SimulationSession(workload.spec(DEFAULT_SEED, "tiny"))
    outcome = session.run()
    assert check_invariants(workload, session, outcome) == []
    next(iter(session.caches.values())).reserve("sha256:leftover", 1)
    assert any(
        "reservations" in problem
        for problem in check_invariants(workload, session, outcome)
    )


def test_perturbed_digest_fails_the_gate(tmp_path, monkeypatch):
    golden = GOLDEN[("chunked-contended", "tiny")]
    perturbed = ("0" if golden[0] != "0" else "1") + golden[1:]

    def run_with(seed: int, digest: str) -> bench.Run:
        return bench.Run(
            "chunked-contended", seed, tmp_path, DEFAULT_SEED, digest
        )

    # The gate's replay, at the tiny size to keep the test cheap.
    run_child = bench.run_child
    monkeypatch.setattr(
        bench, "run_child", lambda request: run_child({**request, "size": "tiny"})
    )
    run = run_with(HELD_OUT_SEED, golden)
    run.golden_check()
    assert (run.attempted, run.failed) == (1, 0)
    run = run_with(HELD_OUT_SEED, perturbed)
    run.golden_check()
    assert (run.attempted, run.failed) == (1, 1)

    # The timed sessions, held to the digest at the default seed only.
    run = run_with(DEFAULT_SEED, perturbed)
    run.records = [{"digest": golden}, {"digest": golden}]
    run.check_digests()
    assert run.failed == 2
    run = run_with(HELD_OUT_SEED, perturbed)
    run.records = [{"digest": golden}, {"digest": golden}]
    run.check_digests()
    assert run.failed == 0
    run = run_with(DEFAULT_SEED, golden)
    run.records = [{"digest": golden}, {"digest": perturbed}]
    run.check_digests()
    assert run.failed == 1


def command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "swarmbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# At the held-out seed the gate replays the default seed first; at the
# default seed the timed sessions are held to the committed digest.
@pytest.mark.parametrize(
    "trace, seed", [("0", HELD_OUT_SEED), ("1", DEFAULT_SEED)]
)
def test_command_emits_every_declared_metric(trace, seed, tmp_path):
    proc = command(
        "--workload", "cold-wave-sharded", "--seed", str(seed),
        "--seconds", "0.1", "--trace", trace, "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] == 2
    record = json.loads((tmp_path / "records.jsonl").read_text())
    for key in ("commit", "nproc", "python", "numpy", "workload", "seed"):
        assert key in record


def test_command_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "swarmbench", tmp_path / "swarmbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = command(
        "--workload", "cold-wave-sharded", "--seed", "1", "--seconds", "1",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

