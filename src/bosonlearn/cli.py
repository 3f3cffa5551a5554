"""Command-line harness: configures devices and learners, runs the toolkit's
experiments end to end, and writes machine-readable reports.  Each config is
parsed once (_plan): validate reports that parse, and each runner reads only
the plan it made.

Exit codes: 0 success, 1 runtime failure, 2 config schema violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import numbers
import operator
import sys

import numpy as np

from . import __version__
from .bogoliubov import (
    R_FEASIBLE_MAX,
    FeasibilityError,
    frame_from_ratio,
    learn_firstq,
    overlap_feasible,
)
from .device import NoiseModel, SimulatedDevice
from .fockspace import CUTOFF_CEILING, DIM_BUDGET, FockCutoff, adaptive_cutoff
from .hamiltonian import (
    HamiltonianSpec,
    admissible_keys,
    load_spec,
    random_spec,
    single_key,
    validate_hermitian,
)
from .protocol import (
    RpeConfig,
    derive_config,
    joint_grid,
    learn_displacement_biased,
    learn_multimode_hierarchical,
    learn_multimode_simultaneous,
    learn_single_mode,
    rpe_estimates,
)
from .recovery import (
    angular_angles,
    covariance_compare,
    lipschitz_bound,
    real_design_matrix,
    real_parameters,
    single_mode_pipeline,
    spam_bound,
)


class ConfigError(ValueError):
    """Configuration fails schema or sanity checks (exit code 2)."""


def _index(value, name: str) -> int:
    """A config integer through operator.index, as RpeConfig takes its own: a
    fractional, boolean or non-numeric value is a ConfigError, not truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _number(value, name: str) -> float:
    """A finite config real number: a boolean, string, null, NaN or
    infinity is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _flag(value, name: str) -> bool:
    """A config boolean: the string "false" is a ConfigError, not true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _text(value, name: str) -> str:
    """A config string, such as a path: an integer is a ConfigError, not a
    file descriptor."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    """A JSON object: the config document and each of its blocks."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def _list(value, name: str, read) -> list:
    """A config list, read entry by entry."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [read(x, name) for x in value]


def _pair(value, name: str) -> tuple[float, float]:
    """A config [a, b] of two numbers; another length is a ValueError."""
    a, b = _list(value, name, _number)
    return a, b


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _load_config(args: argparse.Namespace) -> dict:
    """The config file under the command line's options; validate checks the
    file's experiment, or --experiment-kind when the file names none."""
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = _object(json.load(fh), "config file")
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if args.experiment != "validate":
        config["experiment"] = args.experiment
    elif not config.get("experiment"):
        config["experiment"] = args.kind
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    if args.noiseless:
        config["noiseless"] = True
    config.setdefault("seed", 0)
    config.setdefault("noiseless", False)
    return config


def _spec(config: dict, seed: int) -> HamiltonianSpec:
    """The hidden spec: the file at spec_path, or the generator block's."""
    if "spec_path" in config:
        path = _text(config["spec_path"], "spec_path")
        try:
            return validate_hermitian(load_spec(path))
        except FileNotFoundError as exc:
            raise ConfigError(f"spec file not found: {path}") from exc
        except KeyError as exc:
            raise ConfigError(f"spec file {path} has no {exc} field") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad spec file {path}: {exc}") from exc
    if config.get("generator") is None:
        raise ConfigError("config needs either spec_path or generator")
    try:
        gen = _object(config["generator"], "generator")
        return random_spec(
            modes=_index(gen.get("modes", 1), "generator.modes"),
            d=_index(gen.get("d", 2), "generator.d"),
            g_max=_number(gen.get("g_max", 1.0), "generator.g_max"),
            sparsity=_number(gen.get("sparsity", 1.0), "generator.sparsity"),
            seed=_index(gen.get("seed", seed), "generator.seed"),
            include_couplings=_flag(gen.get("include_couplings", True), "generator.include_couplings"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator block: {exc}") from exc


def _rpe_config(config: dict, d: int, r_max: float, spec: HamiltonianSpec, noiseless: bool) -> RpeConfig:
    """The rpe block's schedule: K, with M and L on the shot channel only; a
    t0 that is set replaces the derived one."""
    try:
        rpe = _object(config.get("rpe", {}), "rpe")
        if noiseless:
            kwargs = {"l_steps": None, "shots": None}
        else:
            kwargs = {"shots": _index(rpe.get("M", 200), "rpe.M")}
            if "L" in rpe:
                kwargs["l_steps"] = rpe["L"] if rpe["L"] in (None, "auto") else _index(rpe["L"], "rpe.L")
        k_max = _index(rpe.get("K", 8), "rpe.K")
        cfg = derive_config(d, r_max=r_max, g_max=spec.g_max, k_max=k_max, modes=spec.modes, **kwargs)
        if rpe.get("t0") is not None:
            cfg = dataclasses.replace(cfg, t0=_number(rpe["t0"], "rpe.t0"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rpe block: {exc}") from exc
    return cfg


def _noise(config: dict, modes: int) -> NoiseModel:
    """The noise block: one [re, im] displacement bias per mode at most, and
    the ancilla preparation infidelity."""
    try:
        noise = _object(config.get("noise", {}), "noise")
        pairs = _list(noise.get("delta_beta", []), "noise.delta_beta", _pair)
        delta_beta = tuple(complex(re, im) for re, im in pairs)
        if len(delta_beta) > modes:
            raise ValueError(f"delta_beta has {len(delta_beta)} entries but the spec has {modes} modes")
        infidelity = _number(noise.get("state_prep_infidelity", 0.0), "noise.state_prep_infidelity")
        return NoiseModel(delta_beta=delta_beta, state_prep_infidelity=infidelity)
    except ValueError as exc:
        raise ConfigError(f"bad noise block: {exc}") from exc


def _learn_block(config: dict, experiment: str, seed: int, noiseless: bool) -> dict:
    """Spec, grid order d, RPE schedule and truncation of the two learns and
    of spam-sweep, which runs its own schedule on the exact channel, whatever
    the config's rpe block says, over displacements up to 1.1 (the unit grid
    plus its bias)."""
    spec = _spec(config, seed)
    if spec.modes != 1 and experiment != "learn-multi":
        raise ConfigError(f"{experiment} needs a single-mode spec")
    grid = _object(config.get("grid", {}), "grid")
    spam = experiment == "spam-sweep"
    d = _index(grid.get("d", 2 if spam else spec.max_order), "grid.d")
    r_max = 1.1 if spam else _number(grid.get("r_max", 1.0), "grid.r_max")
    if d < 1 or r_max <= 0:
        raise ConfigError(f"grid needs d >= 1 and r_max > 0, got {d} and {r_max}")
    # adaptive_cutoff's floor, 4 (r_max^2 + order) levels, must fit its ceiling
    r_limit = math.sqrt(max(CUTOFF_CEILING / 4 - spec.max_order, 0.0))
    if r_max > r_limit:
        raise ConfigError(
            f"grid.r_max must be <= {r_limit:.6g}, the largest displacement a {CUTOFF_CEILING}-level "
            f"cutoff holds at order {spec.max_order}, got {r_max}"
        )
    if spam:
        cfg = derive_config(d, g_max=spec.g_max, shots=None, l_steps=None, k_max=10)
        sweep = _object(config.get("sweep", {}), "sweep")
        scales = _list(sweep.get("delta_norms", (1e-3, 1e-2)), "sweep.delta_norms", _number)
        return {"spec": spec, "d": d, "cfg": cfg, "cutoff": adaptive_cutoff(spec, r_max), "scales": scales}
    r_min = _number(grid.get("r_min", 0.2), "grid.r_min")
    if not 0 <= r_min < r_max:
        raise ConfigError(f"grid needs 0 <= r_min < r_max, got r_min {r_min} and r_max {r_max}")
    cfg, cutoff = _rpe_config(config, d, r_max, spec, noiseless), adaptive_cutoff(spec, r_max)
    if cfg.l_steps is not None and cutoff.dim > DIM_BUDGET:
        raise ConfigError(
            f"finite rpe.L needs the {cutoff.dim}-dim joint space (n_max {cutoff.n_max}, "
            f"{spec.modes} modes), above the budget of {DIM_BUDGET} dims"
        )
    plan = {
        "spec": spec,
        "d": d,
        "cfg": cfg,
        "cutoff": cutoff,
        "r_min": r_min,
        "r_max": r_max,
        "noise": _noise(config, spec.modes),
    }
    if experiment == "learn-multi":
        plan["strategy"] = config.get("strategy", "hierarchical")
        if plan["strategy"] not in ("hierarchical", "simultaneous"):
            raise ConfigError(f"unknown strategy {plan['strategy']!r}")
    return plan


def _firstq_block(config: dict, noiseless: bool) -> dict:
    """The firstq block: the one-mode spec its gprime (keyed "p,q") gives, the
    true frame, the search bracket, eps_g and the n_max truncation, with the
    shots per basis (rpe.M, None on the exact channel)."""
    shots = None
    if not noiseless:
        shots = _index(_object(config.get("rpe", {}), "rpe").get("M", 200), "rpe.M")
        try:
            # the search derives its schedules at run time, from these shots
            derive_config(2, shots=shots, l_steps=None)
        except ValueError as exc:
            raise ConfigError(f"bad rpe block: {exc}") from exc
    if config.get("firstq") is None:
        raise ConfigError("learn-firstq needs a firstq block")
    fq = _object(config["firstq"], "firstq")
    if "gprime" not in fq:
        raise ConfigError("firstq block needs gprime")
    try:
        gprime = {
            tuple(int(x) for x in key.split(",")): _number(v, "firstq.gprime")
            for key, v in _object(fq["gprime"], "firstq.gprime").items()
        }
        terms = {single_key(p, q): complex(v) for (p, q), v in gprime.items() if p + q > 0}
        spec = HamiltonianSpec(1, max(map(sum, gprime)), terms, identity_offset=gprime.get((0, 0), 0.0))
        bracket = _pair(fq.get("bracket", (-0.3, 0.3)), "firstq.bracket")
        eps_g = _number(fq.get("eps_g", 5e-3), "firstq.eps_g")
        n_max = _index(fq.get("n_max", 48), "firstq.n_max")
        if not bracket[0] < bracket[1]:
            raise ValueError(f"firstq.bracket must satisfy lo < hi, got {list(bracket)}")
        if not (math.isfinite(eps_g) and eps_g > 0):
            raise ValueError(f"firstq.eps_g must be finite and > 0, got {eps_g}")
        if spec.max_order < 2:
            raise ValueError(f"firstq.gprime needs order >= 2 for the B†^2 frame signal, got {spec.max_order}")
        if n_max < spec.max_order:
            raise ValueError(f"firstq.n_max must be >= the spec's order {spec.max_order}, got {n_max}")
        if n_max + 1 > DIM_BUDGET:
            raise ValueError(f"firstq.n_max must be below the budget of {DIM_BUDGET} dims, got {n_max}")
        return {
            "spec": validate_hermitian(spec),
            "frame": frame_from_ratio(1.0, 1.0 / _number(fq.get("ratio", 1.0), "firstq.ratio")),
            "bracket": bracket,
            "eps_g": eps_g,
            "cutoff": FockCutoff(n_max, 1),
            "shots": shots,
        }
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad firstq block: {exc}") from exc


def _sweep_block(config: dict) -> dict:
    """The sweep-heisenberg plan: one shot-channel schedule at rpe.M shots per
    depth K in sweep.k_values, the seed count, c_true and its beta."""
    sweep = _object(config.get("sweep", {}), "sweep")
    k_values = _list(sweep.get("k_values", tuple(range(4, 11))), "sweep.k_values", _index)
    n_seeds = _index(sweep.get("seeds", 20), "sweep.seeds")
    shots = _index(_object(config.get("rpe", {}), "rpe").get("M", 200), "rpe.M")
    c_true = _number(sweep.get("c_true", 0.64), "sweep.c_true")
    try:
        if n_seeds < 1:
            raise ValueError(f"sweep.seeds must be >= 1, got {n_seeds}")
        schedules = [derive_config(2, k_max=k, shots=shots, l_steps=None) for k in k_values]
        beta = math.sqrt(c_true)
    except ValueError as exc:
        raise ConfigError(f"bad sweep block: {exc}") from exc
    return {"schedules": schedules, "n_seeds": n_seeds, "c_true": c_true, "beta": beta}


# compare-covariance builds its design densely, one row per joint grid point
# and one column per real parameter: 16.2 M entries (5 modes, d = 2) peak at
# about 0.3 GB.
DESIGN_BUDGET = 2 * 10**7


def _check_design_size(modes: int, d: int) -> None:
    """Raise ConfigError when compare-covariance's design, len(joint_grid)
    rows by one column per real parameter, has more than DESIGN_BUDGET
    entries; counted without building either.

    A mode's grid crosses the d + 1 radial nodes with the distinct canonical
    angles of orders 1..d, at least the d + 1 of order d, so (d + 1)^(2 modes)
    bounds the rows from below; it is compared in logs, so no power of a huge
    modes is formed.  A Hermitian pair of keys has two real parameters and a
    self-conjugate key one, so there are as many as keys, C(2 modes + d, d) - 1.
    """
    if 2 * modes * math.log(d + 1) > math.log(DESIGN_BUDGET):
        raise ConfigError(
            f"compare-covariance's design has at least (d+1)^(2 modes) = {d + 1}^{2 * modes} "
            f"grid points, above the budget of {DESIGN_BUDGET} entries"
        )
    angles = len({f for l in range(1, d + 1) for f in angular_angles(l)})
    points, params = (angles * (d + 1)) ** modes, math.comb(2 * modes + d, d) - 1
    if points * params > DESIGN_BUDGET:
        raise ConfigError(
            f"compare-covariance's design of {points} grid points x {params} real parameters "
            f"= {points * params} entries is above the budget of {DESIGN_BUDGET}"
        )


def _plan(config: dict) -> tuple[dict, dict]:
    """Parse a config once: the plan its experiment's runner executes, and
    the diagnostics validate reports.  Raises ConfigError on a missing,
    mistyped or out-of-range field the experiment reads."""
    experiment = config.get("experiment")
    if not isinstance(experiment, str) or experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    seed = _index(config.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    noiseless = _flag(config.get("noiseless", False), "noiseless")
    out = config.get("out")
    plan: dict = {"experiment": experiment, "seed": seed, "token": f"cli{seed}"}
    plan["out"] = None if out is None else _text(out, "out")
    diagnostics: dict = {"experiment": experiment}
    if experiment == "learn-firstq":
        plan.update(_firstq_block(config, noiseless))
        frame, edge = plan["frame"], max(abs(b) for b in plan["bracket"])
        if not edge < R_FEASIBLE_MAX:
            raise ConfigError(
                f"overlap infeasible: bracket edge {edge} gives u = cosh({edge}) >= 1/(4 - 2*sqrt(3)) ~= 1.866"
            )
        u_edge = math.cosh(edge)
        feasible = overlap_feasible(u_edge) and overlap_feasible(frame.u)
        diagnostics.update({"u_bracket_edge": u_edge, "u_true": frame.u, "feasible": feasible})
        if not feasible:
            raise ConfigError(
                f"overlap infeasible: u = {max(u_edge, frame.u):.4f} >= 1/(4 - 2*sqrt(3)) ~= 1.866"
            )
    elif experiment == "sweep-heisenberg":
        plan.update(_sweep_block(config))
    elif experiment == "compare-covariance":
        grid = _object(config.get("grid", {}), "grid")
        plan.update(d=_index(grid.get("d", 2), "grid.d"), modes=_index(grid.get("modes", 2), "grid.modes"))
        # the compared coupling block needs two modes and order 2
        if plan["d"] < 2 or plan["modes"] < 2:
            raise ConfigError(f"grid needs d >= 2 and modes >= 2, got {plan['d']} and {plan['modes']}")
        _check_design_size(plan["modes"], plan["d"])
    else:
        plan.update(_learn_block(config, experiment, seed, noiseless))
        cfg = plan["cfg"]
        diagnostics.update(hermitian=True, derived_t0=cfg.t0, c_bound=cfg.c_bound)
        diagnostics.update(t0_times_c_bound=cfg.t0 * cfg.c_bound, cutoff_n_max=plan["cutoff"].n_max)
    return plan, diagnostics


def _coeff_rows(learned, spec: HamiltonianSpec) -> list[dict]:
    rows = []
    for key, val in sorted(learned.estimates.items(), key=lambda kv: (kv[0].modes, kv[0].p, kv[0].q)):
        truth = spec.terms.get(key, 0.0)
        rows.append(
            {
                "modes": list(key.modes),
                "p": list(key.p),
                "q": list(key.q),
                "re": val.real,
                "im": val.imag,
                "stderr": learned.stderr.get(key, 0.0),
                "truth_re": complex(truth).real,
                "truth_im": complex(truth).imag,
                "abs_error": abs(val - truth),
            }
        )
    return rows


def _ledger(device: SimulatedDevice) -> dict:
    ledger = device.ledger()
    return {"total_evolution_time": ledger.total_evolution_time, "shot_count": ledger.shot_count}


def _run_learn(plan: dict) -> dict:
    """learn-single, or learn-multi with its strategy's learner."""
    spec, cfg, d = plan["spec"], plan["cfg"], plan["d"]
    device = SimulatedDevice(spec, plan["cutoff"], master_seed=plan["seed"], noise=plan["noise"])
    kwargs = {"r_min": plan["r_min"], "r_max": plan["r_max"], "token": plan["token"]}
    if plan["experiment"] == "learn-single":
        learned = learn_single_mode(device, d, cfg, **kwargs)
        report = {"coefficients": _coeff_rows(learned, spec), "diagnostics": learned.diagnostics}
        report["eps_c_predicted"] = learned.eps_c
    else:
        strategy = plan["strategy"]
        learner = learn_multimode_hierarchical if strategy == "hierarchical" else learn_multimode_simultaneous
        learned = learner(device, spec.modes, d, cfg, **kwargs)
        diagnostics = {k: v for k, v in learned.diagnostics.items() if v is not None}
        report = {"strategy": strategy, "coefficients": _coeff_rows(learned, spec), "diagnostics": diagnostics}
    return {
        **report,
        "ledger": _ledger(device),
        "derived_t0": cfg.t0,
        "cutoff_n_max": device.cutoff.n_max,
        "edge_population": device.edge_population,
        "clipped_probabilities": device.clipped_probabilities,
    }


def _run_learn_firstq(plan: dict) -> dict:
    spec, frame = plan["spec"], plan["frame"]
    z_true = (complex(-frame.signed_r),)
    device = SimulatedDevice(spec, plan["cutoff"], master_seed=plan["seed"], true_frame_z=z_true)
    res = learn_firstq(
        device, spec.max_order, plan["eps_g"], plan["bracket"], shots=plan["shots"], token=plan["token"]
    )
    # the device is fresh, so its ledger is the run's: the search, then the final learn
    ledger = _ledger(device)
    return {
        "r_hat": res.r_hat,
        "r_true": frame.signed_r,
        "mw_hat": res.mw_hat,
        "bisection": {
            "iterations": res.bisection.iterations,
            "evaluations": res.bisection.evaluations,
            "width": res.bisection.width,
            "k_hat": res.bisection.k_hat,
            "eps_r": res.bisection.eps_r,
            "evolution_time": res.bisection.time_cost,
            "shot_count": res.bisection.shot_count,
        },
        "final_learn": {
            "evolution_time": ledger["total_evolution_time"] - res.bisection.time_cost,
            "shot_count": ledger["shot_count"] - res.bisection.shot_count,
            "k_max": res.gprime.diagnostics["k_max"],
            "shots": res.gprime.diagnostics["shots"],
            "predicted_eps": res.gprime.diagnostics["predicted_eps"],
            "k_capped": res.gprime.diagnostics["k_capped"],
        },
        "g_physical": [
            {"j": j, "k": k, "re": v.real, "im": v.imag, "stderr": res.stderr.get((j, k), 0.0)}
            for (j, k), v in sorted(res.g_physical.items())
        ],
        "ledger": ledger,
        "edge_population": device.edge_population,
        "clipped_probabilities": device.clipped_probabilities,
    }


def _run_sweep_heisenberg(plan: dict) -> dict:
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    beta, seed = plan["beta"], plan["seed"]
    cutoff = adaptive_cutoff(spec, beta)

    def one_point(cfg: RpeConfig) -> dict:
        """One RPE run per seed, each on a fresh device, whose ledger total is
        the run's evolution time."""
        errs, times = [], []
        for s in range(seed, seed + plan["n_seeds"]):
            device = SimulatedDevice(spec, cutoff, master_seed=s)
            c_hat, _ = rpe_estimates(device, [beta], cfg, None, [f"hs{s}"])
            errs.append(c_hat[0] - plan["c_true"])
            times.append(device.ledger().total_evolution_time)
        rmse = float(np.sqrt(np.mean(np.array(errs) ** 2)))
        shots = 2 * cfg.shots * (cfg.k_max + 1)
        return {"k": cfg.k_max, "total_time": float(np.mean(times)), "rmse": rmse, "shots": shots}

    rows = [one_point(cfg) for cfg in plan["schedules"]]
    slope = None
    if len(rows) >= 2:
        logt = np.log([r["total_time"] for r in rows])
        logr = np.log([r["rmse"] for r in rows])
        slope = float(np.polyfit(logt, logr, 1)[0])
    return {"rows": rows, "loglog_slope": slope}


def _run_compare_covariance(plan: dict) -> dict:
    grid = joint_grid(plan["modes"], plan["d"])
    keys = admissible_keys(plan["modes"], plan["d"])
    m1 = real_design_matrix(grid, real_parameters([k for k in keys if not k.is_coupling]))
    m2 = real_design_matrix(grid, real_parameters([k for k in keys if k.is_coupling]))
    report = covariance_compare(m1, m2)
    return {
        "min_eig_single_block": report.min_eig_single,
        "min_eig_coupling_block": report.min_eig_coupling,
        "woodbury_residual": report.woodbury_residual,
        "ordered": bool(report.ordered),
        "design_points": len(grid),
    }


def _run_spam_sweep(plan: dict) -> dict:
    spec, d, cfg, seed = plan["spec"], plan["d"], plan["cfg"], plan["seed"]
    pipe = single_mode_pipeline(d)
    l_c = lipschitz_bound(d, 1.0, {(k.p[0], k.q[0]): v for k, v in spec.terms.items()})
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=len(pipe.points)) + 1j * rng.normal(size=len(pipe.points))
    direction /= np.linalg.norm(direction)

    def learn(delta) -> dict:
        device = SimulatedDevice(spec, plan["cutoff"], master_seed=seed)
        return learn_displacement_biased(device, d, cfg, delta)

    clean = learn(None)
    rows = []
    for norm in plan["scales"]:
        delta = norm * direction
        biased = learn(delta)
        observed = math.sqrt(
            sum(abs(biased.get(k, 0) - clean.get(k, 0)) ** 2 for k in set(clean) | set(biased))
        )
        report = spam_bound(pipe, l_c, delta, observed=observed)
        rows.append(
            {
                "delta_norm": norm,
                "observed": observed,
                "bound": report.bound,
                "within_bound": bool(observed <= report.bound),
            }
        )
    return {"lipschitz": l_c, "sigma_min": pipe.sigma_min, "rows": rows}


_RUNNERS = {
    "learn-single": _run_learn,
    "learn-multi": _run_learn,
    "learn-firstq": _run_learn_firstq,
    "sweep-heisenberg": _run_sweep_heisenberg,
    "compare-covariance": _run_compare_covariance,
    "spam-sweep": _run_spam_sweep,
}


def validate(config: dict) -> dict:
    """Dry-run checks: the diagnostics of the config's parse; raises
    ConfigError on schema violations."""
    return _plan(config)[1]


def run(config: dict) -> dict:
    plan, diagnostics = _plan(config)
    result = _RUNNERS[plan["experiment"]](plan)
    report = {
        "experiment": plan["experiment"],
        "toolkit_version": __version__,
        "seed": plan["seed"],
        "config": config,
        "config_hash": _config_hash(config),
        "validate": diagnostics,
        "result": result,
    }
    out = plan["out"]
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        if plan["experiment"] == "sweep-heisenberg":
            csv_path = str(out).rsplit(".", 1)[0] + ".csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "total_time", "rmse", "shots"])
                for row in result["rows"]:
                    writer.writerow([row["k"], row["total_time"], row["rmse"], row["shots"]])
            report["csv"] = csv_path
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosonlearn",
        description="Shot-based learning of bosonic Hamiltonian coefficients on a simulated device",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in (*_RUNNERS, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--noiseless", action="store_true", help="exact-probability mode")
        if name == "validate":
            p.add_argument("--experiment-kind", default="learn-single", dest="kind")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        report = validate(config) if args.experiment == "validate" else run(config)
        print(json.dumps(report, indent=2, default=float))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FeasibilityError, ValueError, np.linalg.LinAlgError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
