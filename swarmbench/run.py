"""Swarm-simulator benchmark: one command, every metric, an outcome gate.

Run from the repository root::

    python3 swarmbench/run.py --workload cold-wave-sharded --seed 1 \\
        --seconds 30 --trace 0

The workload's scenario is built from ``--seed`` and run over and over
until ``--seconds`` seconds have passed (the outcome gate included),
each session in a fresh single-threaded process
(:mod:`swarmbench.child`).  ``--trace 0`` reports the end-to-end
metrics as medians over the sessions: ``run_s`` (seconds in
``SimulationSession.run()``), ``setup_s`` (seconds to construct
``SimulationSession(spec)``; each session builds the scenario several
times) and ``peak_rss_mb`` (peak resident memory of the session's
process).  Both times are host seconds scaled to a reference host speed
that this process measures right before and right after each session
(:mod:`swarmbench.hostspeed`).  ``--trace 1`` alternates untraced and
traced sessions and reports the per-layer metrics of
:data:`swarmbench.tracing.LAYER_METRICS`, including the tracing
overhead; the spans of the first traced session are exported to
``swarmbench/out/trace-<workload>-seed<seed>.json``.

Before anything is timed, the workload runs once at the default seed
and must reproduce its committed outcome digest (when ``--seed`` is the
default seed, the timed sessions themselves are held to it instead).
Every session must pass the conservation checks, and all sessions of
one run — traced or not — must agree on the outcome digest.  A session
that raises or fails a check counts as failed; the last line of
standard output is the JSON result (``correct``, ``attempted``,
``failed``, ``metrics``), and the exit code is 1 when anything failed.
Each result is also appended, with the commit, host and library
versions, to ``swarmbench/out/records.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: A session that takes longer than this is killed and counts as failed
#: (full-size sessions take a few seconds; three hung sessions still
#: end a run within three minutes).
CHILD_TIMEOUT_S = 45.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Reference timings taken right before and right after each session.
REFERENCE_TIMINGS = 3


class SessionFailed(Exception):
    """A session raised, timed out, or broke a correctness check."""


def run_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one session in a fresh process and return its record."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "swarmbench.child", json.dumps(request)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SessionFailed(
            f"session timed out after {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise SessionFailed(f"session exited {proc.returncode}: {tail[0]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["violations"]:
        raise SessionFailed("; ".join(record["violations"]))
    return record


class Run:
    """One benchmark invocation: sessions attempted, failures, samples."""

    def __init__(
        self,
        workload: str,
        seed: int,
        out_dir: Path,
        default_seed: int,
        golden: str,
    ):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        #: The committed outcome digest of ``workload`` at ``default_seed``.
        self.default_seed = default_seed
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.records: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []

    def fail(self, message: str, sessions: int = 1) -> None:
        self.failed += sessions
        self.errors.append(message)

    def attempt(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        self.attempted += 1
        try:
            return run_child(request)
        except SessionFailed as exc:
            self.fail(str(exc))
            return None

    def expect_golden(self, digest: str, sessions: int = 1) -> None:
        if digest != self.golden:
            self.fail(
                f"{self.workload} at seed {self.default_seed}: outcome "
                f"digest {digest[:12]} != committed {self.golden[:12]}",
                sessions,
            )

    def golden_check(self) -> None:
        """Replay the workload at the default seed against its digest."""
        if self.seed == self.default_seed:
            return  # check_digests holds the timed sessions to it
        record = self.attempt(
            {"workload": self.workload, "seed": self.default_seed}
        )
        if record is not None:
            self.expect_golden(record["digest"])

    def measure(self, deadline: float, trace: bool) -> None:
        """Sessions until the next one would end after ``deadline``.

        At least one session of each kind runs, however late it is.
        """
        from swarmbench.hostspeed import reference_speeds

        kinds = [False, True] if trace else [False]
        walls: Dict[bool, List[float]] = {kind: [] for kind in kinds}
        for step in itertools.count():
            traced = kinds[step % len(kinds)]
            if all(walls.values()) and (
                time.monotonic() + walls[traced][-1] > deadline
            ):
                break
            request = {
                "workload": self.workload,
                "seed": self.seed,
                "trace": traced,
            }
            if traced and not self.traced:
                request["trace_out"] = str(
                    self.out_dir
                    / f"trace-{self.workload}-seed{self.seed}.json"
                )
            t0 = time.monotonic()
            speeds = reference_speeds(REFERENCE_TIMINGS)
            record = self.attempt(request)
            speeds += reference_speeds(REFERENCE_TIMINGS)
            walls[traced].append(time.monotonic() - t0)
            if record is not None:
                record["speeds"] = speeds
                record["speed"] = statistics.median(speeds)
                (self.traced if traced else self.records).append(record)

    def check_digests(self) -> None:
        """Every session must reproduce the first one's outcome."""
        sessions = self.records + self.traced
        if not sessions:
            return
        reference = sessions[0]["digest"]
        diverged = [r for r in sessions if r["digest"] != reference]
        if diverged:
            self.fail(
                f"{len(diverged)} of {len(sessions)} sessions diverged from "
                f"outcome digest {reference[:12]}",
                len(diverged),
            )
        if self.seed == self.default_seed:
            self.expect_golden(reference, len(sessions) - len(diverged))

    # -- metrics --------------------------------------------------------
    # Times are host seconds scaled by the host speed measured beside
    # their session (see swarmbench.hostspeed).
    def end_to_end(self) -> Dict[str, float]:
        if not self.records:
            return {}
        return {
            "run_s": statistics.median(
                r["host_run_s"] * r["speed"] for r in self.records
            ),
            "setup_s": statistics.median(
                s * r["speed"] for r in self.records for s in r["host_setup_s"]
            ),
            "peak_rss_mb": statistics.median(
                r["rss_mb"] for r in self.records
            ),
        }

    def per_layer(self, units: Dict[str, str]) -> Dict[str, float]:
        """Medians of the traced sessions' layer times; counts must agree."""
        if not self.traced or not self.records:
            return {}
        metrics: Dict[str, float] = {}
        for name, unit in units.items():
            if name == "telemetry.trace_overhead":
                continue
            values = [
                r["layers"][name] * (r["speed"] if unit == "s" else 1)
                for r in self.traced
            ]
            if unit == "count" and len(set(values)) > 1:
                self.fail(f"traced sessions disagree on {name}: {values}")
            metrics[name] = statistics.median(values)
        metrics["telemetry.trace_overhead"] = statistics.median(
            r["host_run_s"] * r["speed"] for r in self.traced
        ) / self.end_to_end()["run_s"]
        return metrics


def source_digest() -> str:
    """SHA-256 over the simulator's source files (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=BENCH_DIR / "out",
        help="directory for records.jsonl and span exports",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"swarmbench: simulator source not found under {SRC}",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy

    from swarmbench.tracing import LAYER_METRICS
    from swarmbench.workloads import DEFAULT_SEED, GOLDEN, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"swarmbench: unknown workload {args.workload!r}; expected one "
            f"of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    deadline = time.monotonic() + args.seconds
    run = Run(
        args.workload,
        args.seed,
        args.out,
        DEFAULT_SEED,
        GOLDEN[(args.workload, "full")],
    )
    run.golden_check()
    run.measure(deadline, trace=bool(args.trace))
    run.check_digests()
    if args.trace:
        units = LAYER_METRICS
        values = run.per_layer(units)
    else:
        units = END_TO_END_UNITS
        values = run.end_to_end()
    if not values and not run.failed:
        run.fail("no session completed")

    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units
        if name in values
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sessions": len(run.records) + len(run.traced),
        "error_rate": run.failed / max(1, run.attempted),
        "errors": run.errors,
        "samples": {
            key: [r[key] for r in run.records]
            for key in ("host_run_s", "host_setup_s", "speeds")
        },
        **result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for message in run.errors:
        print(f"swarmbench: {message}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
