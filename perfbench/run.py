"""Benchmark for bosonlearn: wall-clock and protocol cost of learning runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload multimode_shots --seed 11 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

- ``multimode_shots``: one op is one hierarchical and one simultaneous
  two-mode learn on shot data, each on a fresh device.
- ``firstq_search``: one op is a first-quantization frame search plus the
  final learn, on a fresh device.
- ``cli_multi_noiseless``: one op is ``bosonlearn.cli.run`` of the
  ``learn-multi`` experiment on the exact-probability channel.

The load is a closed loop: one client in one worker process issues each op
only after the previous one returned, until ``--seconds`` have passed (at
least one op). The worker's BLAS runs one thread. Each op's outputs
are checked against the hidden truth; an op that raises or fails its check is
counted in ``failed`` and the run goes on.

``--trace 0`` prints the end-to-end metrics. Set-up runs in several fresh
processes and ``setup_s`` is their median. Every time metric is given at the
nominal host speed of calibration.py: each measured time is scaled by the
calibration burst timed around it, so minutes-long slowdowns of a shared host
cancel out. The raw median op time is printed beside them. ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics of the
traced ones.

Standard output: human-readable lines (environment, output digest, every
metric with its unit), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_S

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
# One BLAS thread, fewer than the CPUs of a 2-core box: on the 49- to 289-dim
# matrices of the request path, OpenBLAS threads spin more than they compute,
# which made multimode ops 35-50% slower and far less repeatable at 2 threads.
BLAS_THREADS = 1
# Every worker of one run must have ended this long after the run started.
RUN_LIMIT_S = 170.0


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(root: Path, args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *([] if args.seed is None else ["--seed", str(args.seed)]),
        *extra,
    ]
    proc = subprocess.run(
        cmd,
        cwd=root,
        env=worker_env(root),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_units(root: Path, kind: str) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares under ``kind``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def at_nominal(seconds: float, ref_s: float) -> float:
    """Wall seconds measured while a calibration burst took ``ref_s``, at nominal speed."""
    return seconds * NOMINAL_S / ref_s


def op_seconds(op: dict) -> float:
    return at_nominal(op["seconds"], op["ref_s"])


def end_to_end(summary: dict, setup_values: list[float]) -> dict:
    done = [op for op in summary["ops"] if not op["failed"]]
    return {
        "setup_s": median(setup_values),
        "learn_s_p50": median([op_seconds(op) for op in done]),
        "learns_per_s": len(done) / sum(op_seconds(op) for op in summary["ops"]),
        "evolution_time_per_learn": median([op["evolution_time"] for op in done]),
        "shots_per_learn": median([op["shots"] for op in done]),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def print_context(args, summary: dict, root: Path) -> None:
    ops = summary["ops"]
    env = dict(summary["env"], commit=git_commit(root))
    raw = median([op["seconds"] for op in ops])
    speed = NOMINAL_S / median([op["ref_s"] for op in ops])
    print(f"workload {args.workload} seed {summary['seed']}: closed loop, 1 client, "
          f"{len(ops)} ops in {summary['loop_s']:.2f} s, "
          f"{len(summary['burst_s'])} calibration bursts")
    print(f"raw op wall time p50 {raw:.6g} s; host ran at {speed:.3f} of nominal speed")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"digest sha256 {summary['digest_op0']} "
          f"(op 0 estimates, trial seed {summary['first_trial_seed']})")


def report(args, root: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    summary = run_worker(root, args, [], deadline)
    ops = summary["ops"]
    attempted = len(ops)
    failed = sum(op["failed"] for op in ops)
    print_context(args, summary, root)

    if args.trace:
        traced = [op_seconds(op) for op in ops if op["traced"]]
        plain = [op_seconds(op) for op in ops if not op["traced"]]
        metrics = dict(summary["layers"])
        metrics["trace_overhead_share"] = median(traced) / median(plain) - 1.0
        for name in summary["missing_names"]:
            print(f"warning: traced name {name} not found; its metrics read 0")
        print(f"traced ops {len(traced)}, untraced ops {len(plain)}; "
              "per-layer values are per traced op")
        units = declared_units(root, "per_layer")
        for name in units.keys() - metrics.keys():
            print(f"warning: no value for {name}; it reads 0")
        for name, unit in units.items():
            print(f"{name} {metrics.get(name, 0.0):.6g} {unit}")
    else:
        setup_values = [at_nominal(summary["setup_s"], summary["setup_ref_s"])]
        for _ in range(SETUP_RUNS - 1):
            probe = run_worker(root, args, ["--setup-only"], deadline)
            setup_values.append(at_nominal(probe["setup_s"], probe["setup_ref_s"]))
        metrics = end_to_end(summary, setup_values)
        units = declared_units(root, "end_to_end")
        errors = [e for op in ops if not op["failed"] for e in op["abs_errors"]]
        rmse = (sum(e * e for e in errors) / len(errors)) ** 0.5 if errors else float("nan")
        lines = {
            "setup_s": f"median of {len(setup_values)} set-ups",
            "learn_s_p50": f"median over {attempted - failed} ops",
            "evolution_time_per_learn": "median per op; ledger time, or kappa*t0 per exact request",
            "shots_per_learn": "median per op; an exact-probability request counts as one",
        }
        for name, unit in units.items():
            note = f"  ({lines[name]})" if name in lines else ""
            print(f"{name} {metrics.get(name, 0.0):.6g} {unit}{note}")
        times = [op_seconds(op) for op in ops if not op["failed"]]
        if len(times) > 20:
            # The highest percentile above p50 with at least ten samples beyond it.
            q = int(100 * (1 - 10 / len(times)))
            tail = statistics.quantiles(times, n=100)[q - 1]
            print(f"learn_s_p{q} {tail:.6g} s  (not a bounded metric)")
        print(f"coef_rmse {rmse:.6g}  (not a bounded metric; over {len(errors)} coefficients)")
        print(f"failed_share {failed / attempted:.6g}  ({failed}/{attempted} ops)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bosonlearn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bosonlearn" / "__init__.py").is_file():
        print(f"error: {root} holds no src/bosonlearn; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        return report(args, root)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
