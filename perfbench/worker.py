"""One benchmark worker: set up a workload, then run its ops in a closed loop.

run.py starts this file as a fresh process, with ``src/`` on PYTHONPATH and
the BLAS thread count pinned, so that set-up includes ``import bosonlearn``.
One client issues each op only after the previous one returned. The worker
prints one JSON summary on stdout; run.py turns it into metrics.

With ``--setup-only`` it stops once the first op is ready. With ``--trace 1``
even-numbered ops run untraced and odd-numbered ops run under the tracer, so
the run measures the tracing overhead as well as the per-layer metrics.

During the ops, and after set-up, the worker times calibration bursts (see
calibration.py). An op's ``seconds`` leave out the bursts that fell inside it,
and its ``ref_s`` is the mean burst during and around it, the host speed it
ran at; set-up records ``setup_ref_s``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402  (imports bosonlearn, which set-up includes)


# Bursts timed right after set-up, for the host speed set-up ran at.
SETUP_BURSTS = 2


def estimates_digest(estimates: dict) -> str:
    """SHA-256 of the sorted estimates, written bit-exactly as hex floats."""
    items = sorted(
        (label, float(complex(v).real).hex(), float(complex(v).imag).hex())
        for label, v in estimates.items()
    )
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def environment() -> dict:
    import numpy
    import sympy

    import bosonlearn

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "bosonlearn": bosonlearn.__version__,
    }


def run_ops(workload, state: dict, ref: dict, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = []
    digest = None
    sampler = calibration.Sampler()
    sampler.take()
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    index = 0
    sampler.start()
    try:
        while True:
            traced = tracer is not None and index % 2 == 1
            sampler.paused = traced
            if traced:
                tracer.install()
                root = tracer.begin_op(index)
            t0 = time.perf_counter()
            try:
                outcome = workload.op(state, ref, workloads.trial_seed(seed, index))
                problems = outcome.problems
            except Exception:
                outcome = None
                problems = [traceback.format_exc()]
            t1 = time.perf_counter()
            if traced:
                tracer.end_op(root)
                tracer.uninstall()
            sampler.paused = False
            for problem in problems[:3]:
                print(f"op {index} failed: {problem}", file=sys.stderr)
            ops.append(
                {
                    "window": (t0, t1),
                    "traced": traced,
                    "failed": bool(problems),
                    "evolution_time": None if outcome is None else outcome.evolution_time,
                    "shots": None if outcome is None else outcome.shots,
                    "abs_errors": [] if outcome is None else outcome.abs_errors,
                }
            )
            if index == 0 and outcome is not None:
                digest = estimates_digest(outcome.estimates)
            index += 1
            if time.perf_counter() >= deadline and (tracer is None or index >= 2):
                break
    finally:
        sampler.stop()
    sampler.take()
    for op in ops:
        t0, t1 = op.pop("window")
        paused, op["ref_s"] = sampler.around(t0, t1)
        op["seconds"] = t1 - t0 - paused
    summary = {
        "ops": ops,
        "loop_s": time.perf_counter() - loop_start,
        "burst_s": sampler.seconds,
        "digest_op0": digest,
    }
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics()
        summary["missing_names"] = tracer.missing
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    state = workload.setup(seed)
    setup_s = time.perf_counter() - _START
    setup_ref_s = sum(calibration.burst() for _ in range(SETUP_BURSTS)) / SETUP_BURSTS
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "seed": seed,
        "first_trial_seed": workloads.trial_seed(seed, 0),
    }
    if not args.setup_only:
        ref = workload.reference(state)
        result.update(run_ops(workload, state, ref, seed, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
