"""Command-line harness: configures devices and learners, runs the toolkit's
experiments end to end, and writes machine-readable reports.

Exit codes: 0 success, 1 runtime failure, 2 config schema violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .bogoliubov import (
    FeasibilityError,
    frame_from_ratio,
    learn_firstq,
    overlap_feasible,
)
from .device import NoiseModel, SimulatedDevice
from .fockspace import FockCutoff, adaptive_cutoff
from .hamiltonian import (
    HamiltonianSpec,
    load_spec,
    random_spec,
    single_key,
    spec_to_dict,
    validate_hermitian,
)
from .protocol import (
    derive_config,
    learn_multimode_hierarchical,
    learn_multimode_simultaneous,
    learn_single_mode,
    rpe_estimate,
)
from .recovery import (
    coefficient_order_sums,
    covariance_compare,
    lipschitz_bound,
    real_design_matrix,
    real_parameters,
    single_mode_pipeline,
    spam_bound,
)

EXPERIMENTS = (
    "learn-single",
    "learn-multi",
    "learn-firstq",
    "sweep-heisenberg",
    "compare-covariance",
    "spam-sweep",
)


class ConfigError(ValueError):
    """Configuration fails schema or sanity checks (exit code 2)."""


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _load_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    config["experiment"] = args.experiment
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    if args.workers is not None:
        config["workers"] = args.workers
    if args.noiseless:
        config["noiseless"] = True
    config.setdefault("seed", 0)
    config.setdefault("workers", 1)
    config.setdefault("noiseless", False)
    return config


def _build_spec(config: dict) -> tuple[HamiltonianSpec, bool]:
    """Spec plus a flag telling whether the ground truth is known to us."""
    if "spec_path" in config:
        try:
            spec = load_spec(config["spec_path"])
        except FileNotFoundError as exc:
            raise ConfigError(f"spec file not found: {config['spec_path']}") from exc
        return validate_hermitian(spec, check_matrix=False), True
    gen = config.get("generator")
    if gen is None:
        raise ConfigError("config needs either spec_path or generator")
    try:
        spec = random_spec(
            modes=int(gen.get("modes", 1)),
            d=int(gen.get("d", 2)),
            g_max=float(gen.get("g_max", 1.0)),
            sparsity=float(gen.get("sparsity", 1.0)),
            seed=int(gen.get("seed", config["seed"])),
            include_couplings=bool(gen.get("include_couplings", True)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator block: {exc}") from exc
    return spec, True


def _build_device(config: dict, spec: HamiltonianSpec, checked: dict) -> SimulatedDevice:
    """Device at the truncation that validate chose for this config."""
    noise_cfg = config.get("noise", {})
    noise = NoiseModel(
        delta_beta=tuple(complex(x[0], x[1]) for x in noise_cfg.get("delta_beta", [])),
        state_prep_infidelity=float(noise_cfg.get("state_prep_infidelity", 0.0)),
    )
    cutoff = FockCutoff(n_max=checked["cutoff_n_max"], modes=spec.modes)
    return SimulatedDevice(spec, cutoff, master_seed=int(config["seed"]), noise=noise)


def _rpe_config(config: dict, d: int, r_max: float, g_max: float):
    rpe = config.get("rpe", {})
    kwargs = {}
    if config["noiseless"]:
        kwargs = {"noiseless": True, "l_steps": None, "shots": 20}
    else:
        kwargs = {"shots": int(rpe.get("M", 200))}
        if "L" in rpe:
            kwargs["l_steps"] = rpe["L"]
    cfg = derive_config(d, r_max=r_max, g_max=g_max, k_max=int(rpe.get("K", 8)), **kwargs)
    if rpe.get("t0"):
        cfg = dataclasses.replace(cfg, t0=float(rpe["t0"]))
    return cfg


def _coeff_rows(learned, spec: HamiltonianSpec | None) -> list[dict]:
    rows = []
    for key, val in sorted(learned.estimates.items(), key=lambda kv: (kv[0].modes, kv[0].p, kv[0].q)):
        row = {
            "modes": list(key.modes),
            "p": list(key.p),
            "q": list(key.q),
            "re": val.real,
            "im": val.imag,
            "stderr": learned.stderr.get(key, 0.0),
        }
        if spec is not None:
            truth = spec.terms.get(key, 0.0)
            row["truth_re"] = complex(truth).real
            row["truth_im"] = complex(truth).imag
            row["abs_error"] = abs(val - truth)
        rows.append(row)
    return rows


def _run_learn_single(config: dict, checked: dict) -> dict:
    spec, have_truth = _build_spec(config)
    if spec.modes != 1:
        raise ConfigError("learn-single needs a single-mode spec")
    grid = config.get("grid", {})
    d = int(grid.get("d", spec.max_order))
    r_min, r_max = float(grid.get("r_min", 0.2)), float(grid.get("r_max", 1.0))
    device = _build_device(config, spec, checked)
    cfg = _rpe_config(config, d, r_max, spec.g_max)
    learned = learn_single_mode(
        device, d, cfg, r_min=r_min, r_max=r_max, token=f"cli{config['seed']}"
    )
    ledger = device.ledger()
    return {
        "coefficients": _coeff_rows(learned, spec if have_truth else None),
        "eps_c_predicted": learned.eps_c,
        "ledger": {
            "total_evolution_time": ledger.total_evolution_time,
            "shot_count": ledger.shot_count,
        },
        "derived_t0": cfg.t0,
        "cutoff_n_max": device.cutoff.n_max,
        "edge_population": device.edge_population,
    }


def _run_learn_multi(config: dict, checked: dict) -> dict:
    spec, have_truth = _build_spec(config)
    grid = config.get("grid", {})
    d = int(grid.get("d", spec.max_order))
    r_min, r_max = float(grid.get("r_min", 0.2)), float(grid.get("r_max", 1.0))
    device = _build_device(config, spec, checked)
    cfg = _rpe_config(config, d, r_max, spec.g_max)
    strategy = config.get("strategy", "hierarchical")
    if strategy == "hierarchical":
        learned = learn_multimode_hierarchical(
            device, spec.modes, d, cfg, r_min=r_min, r_max=r_max, token=f"cli{config['seed']}"
        )
    elif strategy == "simultaneous":
        learned = learn_multimode_simultaneous(
            device, spec.modes, d, cfg, r_min=r_min, r_max=r_max, token=f"cli{config['seed']}"
        )
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    ledger = device.ledger()
    return {
        "strategy": strategy,
        "coefficients": _coeff_rows(learned, spec if have_truth else None),
        "diagnostics": {k: v for k, v in learned.diagnostics.items() if v is not None},
        "ledger": {
            "total_evolution_time": ledger.total_evolution_time,
            "shot_count": ledger.shot_count,
        },
        "derived_t0": cfg.t0,
        "cutoff_n_max": device.cutoff.n_max,
        "edge_population": device.edge_population,
    }


def _firstq_device(config: dict) -> tuple[SimulatedDevice, dict, float, int]:
    fq = config.get("firstq")
    if fq is None:
        raise ConfigError("learn-firstq needs a firstq block")
    gprime = {tuple(int(x) for x in key.split(",")): float(v) for key, v in fq["gprime"].items()}
    ratio = float(fq.get("ratio", 1.0))
    d = max(p + q for p, q in gprime)
    terms = {single_key(p, q): complex(v) for (p, q), v in gprime.items() if p + q > 0}
    spec = HamiltonianSpec(1, d, terms, identity_offset=gprime.get((0, 0), 0.0))
    frame = frame_from_ratio(1.0, 1.0 / ratio)
    n_max = int(fq.get("n_max", 48))
    device = SimulatedDevice(
        spec,
        FockCutoff(n_max, 1),
        master_seed=int(config["seed"]),
        true_frame_z=(complex(-frame.signed_r),),
    )
    return device, gprime, frame.signed_r, d


def _run_learn_firstq(config: dict, _checked: dict) -> dict:
    fq = config["firstq"]
    device, gprime, signed_r_true, d = _firstq_device(config)
    res = learn_firstq(
        device,
        d,
        eps_g=float(fq.get("eps_g", 5e-3)),
        bracket=tuple(float(x) for x in fq.get("bracket", (-0.3, 0.3))),
        shots=int(config.get("rpe", {}).get("M", 200)),
        noiseless=bool(config["noiseless"]),
        token=f"cli{config['seed']}",
    )
    ledger = device.ledger()
    return {
        "r_hat": res.r_hat,
        "r_true": signed_r_true,
        "mw_hat": res.mw_hat,
        "bisection": {
            "iterations": res.bisection.iterations,
            "evaluations": res.bisection.evaluations,
            "fallback_used": res.bisection.fallback_used,
            "k_hat": res.bisection.k_hat,
            "eps_r": res.bisection.eps_r,
        },
        "g_physical": [
            {"j": j, "k": k, "re": v.real, "im": v.imag, "stderr": res.stderr.get((j, k), 0.0)}
            for (j, k), v in sorted(res.g_physical.items())
        ],
        "ledger": {
            "total_evolution_time": ledger.total_evolution_time,
            "shot_count": ledger.shot_count,
        },
    }


def _run_sweep_heisenberg(config: dict, _checked: dict) -> dict:
    sweep = config.get("sweep", {})
    k_values = list(sweep.get("k_values", range(4, 11)))
    n_seeds = int(sweep.get("seeds", 20))
    shots = int(config.get("rpe", {}).get("M", 200))
    c_true = float(sweep.get("c_true", 0.64))
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    beta = math.sqrt(c_true)
    cutoff = adaptive_cutoff(spec, beta)

    def one_point(k: int) -> tuple[float, float, int]:
        def trial(seed: int) -> tuple[float, float]:
            device = SimulatedDevice(spec, cutoff, master_seed=seed)
            cfg = derive_config(2, k_max=k, shots=shots, l_steps=None)
            est = rpe_estimate(device, [beta], cfg, token=f"hs{seed}")
            return est.c_hat, est.time_cost

        with ThreadPoolExecutor(max_workers=int(config["workers"])) as pool:
            results = list(pool.map(trial, range(int(config["seed"]), int(config["seed"]) + n_seeds)))
        errs = np.array([r[0] - c_true for r in results])
        rmse = float(np.sqrt(np.mean(errs**2)))
        time_per = float(np.mean([r[1] for r in results]))
        return time_per, rmse, 2 * shots * (k + 1)

    rows = []
    for k in k_values:
        total_time, rmse, shot_count = one_point(int(k))
        rows.append({"k": int(k), "total_time": total_time, "rmse": rmse, "shots": shot_count})
    slope = None
    if len(rows) >= 2:
        logt = np.log([r["total_time"] for r in rows])
        logr = np.log([r["rmse"] for r in rows])
        slope = float(np.polyfit(logt, logr, 1)[0])
    return {"rows": rows, "loglog_slope": slope}


def _run_compare_covariance(config: dict, _checked: dict) -> dict:
    grid_cfg = config.get("grid", {})
    d = int(grid_cfg.get("d", 2))
    modes = int(grid_cfg.get("modes", 2))
    from .protocol import _coupling_keys, _single_keys, joint_grid

    grid = joint_grid(modes, d)
    singles = [k for m in range(modes) for k in _single_keys(d, m)]
    couplings = _coupling_keys(modes, d)
    m1 = real_design_matrix(grid, real_parameters(singles))
    m2 = real_design_matrix(grid, real_parameters(couplings))
    report = covariance_compare(m1, m2)
    return {
        "min_eig_single_block": report.min_eig_single,
        "min_eig_coupling_block": report.min_eig_coupling,
        "woodbury_residual": report.woodbury_residual,
        "ordered": bool(report.ordered),
        "design_points": len(grid),
    }


def _run_spam_sweep(config: dict, _checked: dict) -> dict:
    sweep = config.get("sweep", {})
    scales = [float(s) for s in sweep.get("delta_norms", (1e-3, 1e-2))]
    grid_cfg = config.get("grid", {})
    d = int(grid_cfg.get("d", 2))
    spec, _ = _build_spec(config)
    if spec.modes != 1:
        raise ConfigError("spam-sweep needs a single-mode spec")
    pipe = single_mode_pipeline(d)
    sums, weighted = coefficient_order_sums(
        {(k.p[0], k.q[0]): v for k, v in spec.terms.items()}
    )
    l_c = lipschitz_bound(d, 1.0, sums, weighted)
    cfg = derive_config(d, g_max=spec.g_max, noiseless=True, shots=20, l_steps=None, k_max=10)
    cutoff = adaptive_cutoff(spec, 1.1)
    rng = np.random.default_rng(int(config["seed"]))
    direction = rng.normal(size=len(pipe.points)) + 1j * rng.normal(size=len(pipe.points))
    direction /= np.linalg.norm(direction)

    def learn(delta) -> dict:
        """Noiseless recovery with an optional per-point displacement bias."""
        device = SimulatedDevice(spec, cutoff, master_seed=int(config["seed"]))
        c_values = np.empty(len(pipe.points))
        for i, (r, theta) in enumerate(pipe.points):
            beta = r * np.exp(1j * theta)
            if delta is not None:
                device.set_noise(NoiseModel(delta_beta=(complex(delta[i]),)))
            est = rpe_estimate(device, [beta], cfg, token=f"spam{i}")
            device.clear_noise()
            c_values[i] = est.c_hat
        return pipe.solve(c_values)

    clean = learn(None)
    rows = []
    for norm in scales:
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
    "learn-single": _run_learn_single,
    "learn-multi": _run_learn_multi,
    "learn-firstq": _run_learn_firstq,
    "sweep-heisenberg": _run_sweep_heisenberg,
    "compare-covariance": _run_compare_covariance,
    "spam-sweep": _run_spam_sweep,
}


def validate(config: dict) -> dict:
    """Dry-run checks; raises ConfigError on schema violations."""
    diagnostics: dict = {"experiment": config["experiment"]}
    if config["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config['experiment']!r}")
    if config["experiment"] in ("learn-single", "learn-multi", "spam-sweep"):
        spec, _ = _build_spec(config)
        grid = config.get("grid", {})
        d = int(grid.get("d", spec.max_order))
        r_max = float(grid.get("r_max", 1.0))
        cfg = _rpe_config(config, d, r_max, spec.g_max)
        cutoff = adaptive_cutoff(spec, r_max)
        diagnostics.update(
            {
                "hermitian": True,
                "derived_t0": cfg.t0,
                "c_bound": cfg.c_bound,
                "t0_times_c_bound": cfg.t0 * cfg.c_bound,
                "cutoff_n_max": cutoff.n_max,
            }
        )
    if config["experiment"] == "learn-firstq":
        fq = config.get("firstq")
        if fq is None:
            raise ConfigError("learn-firstq needs a firstq block")
        bracket = tuple(float(x) for x in fq.get("bracket", (-0.3, 0.3)))
        ratio = float(fq.get("ratio", 1.0))
        frame = frame_from_ratio(1.0, 1.0 / ratio)
        u_edge = math.cosh(max(abs(bracket[0]), abs(bracket[1])))
        feasible = overlap_feasible(u_edge) and overlap_feasible(frame.u)
        diagnostics.update({"u_bracket_edge": u_edge, "u_true": frame.u, "feasible": feasible})
        if not feasible:
            raise ConfigError(
                f"overlap infeasible: u = {max(u_edge, frame.u):.4f} >= 1/(4 - 2*sqrt(3)) ~= 1.866"
            )
    return diagnostics


def run(config: dict) -> dict:
    diagnostics = validate(config)
    result = _RUNNERS[config["experiment"]](config, diagnostics)
    report = {
        "experiment": config["experiment"],
        "toolkit_version": __version__,
        "seed": config["seed"],
        "config": config,
        "config_hash": _config_hash(config),
        "validate": diagnostics,
        "result": result,
    }
    out = config.get("out")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        if config["experiment"] == "sweep-heisenberg":
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
    for name in EXPERIMENTS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--noiseless", action="store_true", help="exact-probability mode")
        if name == "validate":
            p.add_argument("--experiment-kind", default="learn-single", dest="kind")
    args = parser.parse_args(argv)
    try:
        if args.experiment == "validate":
            args.experiment = args.kind
            config = _load_config(args)
            if args.config:
                with open(args.config) as fh:
                    file_kind = json.load(fh).get("experiment")
                if file_kind:
                    config["experiment"] = file_kind
            diagnostics = validate(config)
            print(json.dumps(diagnostics, indent=2, default=float))
            return 0
        config = _load_config(args)
        report = run(config)
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
