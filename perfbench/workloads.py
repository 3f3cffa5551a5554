"""The benchmark's workloads: set-up, one op, and the op's correctness check.

A workload turns the benchmark seed into its inputs in ``setup`` (timed as
set-up) and ``reference`` (the ground truth the check needs, not timed). Op
``i`` of a run uses trial seed ``1000 * seed + i``. The learner receives only
the generated inputs: a device built around the hidden spec, or a CLI config.

Every call into the package goes through the ``bosonlearn`` namespace at call
time, so the tracer's patches are seen.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import bosonlearn as bl
from bosonlearn import cli


@dataclass
class Outcome:
    """What one op produced, as the benchmark scores it."""

    estimates: dict[str, complex]
    abs_errors: list[float]
    evolution_time: float
    shots: int
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup: Callable[[int], dict]
    reference: Callable[[dict], dict]
    op: Callable[[dict, dict, int], Outcome]


def trial_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


# Largest error, in reported standard errors, an estimate may show.
Z_LIMIT = 5.0


def _key_label(key) -> str:
    return f"m{key.modes}p{key.p}q{key.q}"


def _check_within_se(outcome: Outcome, label: str, value: complex, truth: complex, se: float) -> None:
    error = abs(value - truth)
    outcome.abs_errors.append(error)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        outcome.problems.append(f"{label}: estimate {value} is not finite")
    elif not error <= Z_LIMIT * se:
        outcome.problems.append(
            f"{label}: error {error:.3g} exceeds {Z_LIMIT} standard errors ({se:.3g})"
        )


# ---------------------------------------------------------------------------
# multimode_shots: the hierarchical-vs-simultaneous acceptance trial.
# The spec is acceptance test 6's at every workload seed; the workload seed
# sets the trial seeds. derive_config's prior bound c_bound counts one mode's
# terms only, and some two-mode specs exceed it: random_spec(2, 2, seed=1,
# sparsity=0.8) reaches |C| = 5.34 on the grid against c_bound = 5.0, so the
# first RPE round wraps and 8 of 21 learns missed the truth by up to 17
# standard errors. Seed 11 peaks at |C| = 3.66.
MULTIMODE_SPEC_SEED = 11


def _multimode_setup(seed: int) -> dict:
    spec = bl.random_spec(2, 2, seed=MULTIMODE_SPEC_SEED, sparsity=0.8)
    return {
        "spec": spec,
        "cutoff": bl.adaptive_cutoff(spec, 1.0),
        "cfg": bl.derive_config(2, k_max=3, shots=50, l_steps=None),
    }


def _multimode_op(state: dict, ref: dict, seed: int) -> Outcome:
    spec = state["spec"]
    outcome = Outcome({}, [], 0.0, 0)
    learners = (
        ("h", bl.learn_multimode_hierarchical),
        ("s", bl.learn_multimode_simultaneous),
    )
    for tag, learner in learners:
        device = bl.SimulatedDevice(spec, state["cutoff"], master_seed=seed)
        learned = learner(device, 2, 2, state["cfg"], token=f"c6{tag}")
        ledger = device.ledger()
        outcome.evolution_time += ledger.total_evolution_time
        outcome.shots += ledger.shot_count
        for key, value in learned.estimates.items():
            label = f"{tag}:{_key_label(key)}"
            outcome.estimates[label] = value
            truth = spec.terms.get(key, 0.0)
            _check_within_se(outcome, label, value, truth, learned.stderr[key])
    return outcome


# ---------------------------------------------------------------------------
# firstq_search: acceptance test 8 at its tightest precision.

FIRSTQ_GPRIME = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
FIRSTQ_RATIO = 1.3
FIRSTQ_D = 4
FIRSTQ_EPS_G = 2e-3
R_LIMIT = 3.0


def _firstq_setup(seed: int) -> dict:
    spec = bl.HamiltonianSpec(
        1, FIRSTQ_D, {bl.single_key(p, q): v for (p, q), v in FIRSTQ_GPRIME.items()}
    )
    frame = bl.frame_from_ratio(1.0, 1.0 / FIRSTQ_RATIO)
    return {
        "spec": spec,
        "cutoff": bl.FockCutoff(48, 1),
        "frame_z": (complex(-frame.signed_r),),
        "r_true": frame.signed_r,
    }


def _firstq_reference(state: dict) -> dict:
    t = bl.build_T(FIRSTQ_D, mass_omega=1.0 / FIRSTQ_RATIO)
    return {"g_physical": t.transform({(0, 0): 0.0, **FIRSTQ_GPRIME})}


def _firstq_op(state: dict, ref: dict, seed: int) -> Outcome:
    device = bl.SimulatedDevice(
        state["spec"], state["cutoff"], master_seed=seed, true_frame_z=state["frame_z"]
    )
    result = bl.learn_firstq(
        device, FIRSTQ_D, eps_g=FIRSTQ_EPS_G, bracket=(-0.3, 0.3), shots=200, k_cap=18
    )
    ledger = device.ledger()
    outcome = Outcome(
        {"r_hat": complex(result.r_hat)}, [], ledger.total_evolution_time, ledger.shot_count
    )
    eps_r = result.bisection.eps_r
    if not abs(result.r_hat - state["r_true"]) <= R_LIMIT * eps_r:
        outcome.problems.append(
            f"r_hat {result.r_hat:.6f} is more than {R_LIMIT} eps_r ({eps_r:.3g}) "
            f"from {state['r_true']:.6f}"
        )
    for jk, value in result.g_physical.items():
        label = f"G{jk}"
        outcome.estimates[label] = value
        truth = ref["g_physical"].get(jk, 0.0)
        _check_within_se(outcome, label, value, truth, result.stderr[jk])
    return outcome


# ---------------------------------------------------------------------------
# cli_multi_noiseless: the CLI learn-multi experiment on the exact channel.

CLI_ABS_TOL = 1e-8
# The op's cost grows with the spec's term count, which the generator's
# sparsity draw sets: 10 to 22 terms over generator seeds 1-20, about a 2x
# range in op time. So the spec stays at generator seed 7 (16 terms) and the
# trial seed of each op sets the CLI run's own seed. The exact channel draws
# no random numbers, so every op repeats the same work.
CLI_GENERATOR_SEED = 7


class ExactRequests:
    """Counts exact-probability requests and their evolution time kappa * t0.

    The exact channel stands in for infinitely many shots and charges the
    ledger nothing, so on the noiseless workload each request counts as one
    shot of its evolution time.
    """

    def __init__(self, device_cls) -> None:
        self.requests = 0
        self.evolution_time = 0.0
        original = device_cls.probability

        @functools.wraps(original)
        def probability(device, request):
            self.requests += 1
            self.evolution_time += request.evolution_time
            return original(device, request)

        device_cls.probability = probability


def _cli_setup(seed: int) -> dict:
    config = {
        "experiment": "learn-multi",
        "workers": 1,
        "noiseless": True,
        "generator": {
            "modes": 2,
            "d": 3,
            "seed": CLI_GENERATOR_SEED,
            "include_couplings": True,
            "sparsity": 0.5,
        },
        "grid": {"d": 3, "r_min": 0.2, "r_max": 1.0},
        "rpe": {"K": 10},
    }
    return {"config": config, "exact": ExactRequests(bl.SimulatedDevice)}


def _cli_op(state: dict, ref: dict, seed: int) -> Outcome:
    exact = state["exact"]
    requests, evolution_time = exact.requests, exact.evolution_time
    report = cli.run(dict(copy.deepcopy(state["config"]), seed=seed))
    result = report["result"]
    outcome = Outcome({}, [], exact.evolution_time - evolution_time, exact.requests - requests)
    for row in result["coefficients"]:
        label = f"m{row['modes']}p{row['p']}q{row['q']}"
        outcome.estimates[label] = complex(row["re"], row["im"])
        outcome.abs_errors.append(row["abs_error"])
        if not row["abs_error"] < CLI_ABS_TOL:
            outcome.problems.append(f"{label}: abs_error {row['abs_error']:.3g} >= {CLI_ABS_TOL}")
    if not result["coefficients"]:
        outcome.problems.append("report has no coefficients")
    return outcome


def _no_reference(state: dict) -> dict:
    return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("multimode_shots", 11, _multimode_setup, _no_reference, _multimode_op),
        Workload("firstq_search", 5, _firstq_setup, _firstq_reference, _firstq_op),
        Workload("cli_multi_noiseless", 7, _cli_setup, _no_reference, _cli_op),
    )
}
