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
import operator
import sys

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


def _index(value, name: str) -> int:
    """A config integer through operator.index, as RpeConfig takes its own: a
    fractional or non-numeric value is a ConfigError, not truncated."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


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
    if args.noiseless:
        config["noiseless"] = True
    config.setdefault("seed", 0)
    config.setdefault("noiseless", False)
    return config


def _build_spec(config: dict) -> HamiltonianSpec:
    if "spec_path" in config:
        path = config["spec_path"]
        try:
            spec = load_spec(path)
        except FileNotFoundError as exc:
            raise ConfigError(f"spec file not found: {path}") from exc
        except KeyError as exc:
            raise ConfigError(f"spec file {path} has no {exc} field") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad spec file {path}: {exc}") from exc
        try:
            return validate_hermitian(spec)
        except ValueError as exc:
            raise ConfigError(f"bad spec file {path}: {exc}") from exc
    gen = config.get("generator")
    if gen is None:
        raise ConfigError("config needs either spec_path or generator")
    try:
        spec = random_spec(
            modes=operator.index(gen.get("modes", 1)),
            d=operator.index(gen.get("d", 2)),
            g_max=float(gen.get("g_max", 1.0)),
            sparsity=float(gen.get("sparsity", 1.0)),
            seed=operator.index(gen.get("seed", config["seed"])),
            include_couplings=bool(gen.get("include_couplings", True)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator block: {exc}") from exc
    return spec


def _build_device(config: dict, spec: HamiltonianSpec, checked: dict) -> SimulatedDevice:
    """Device at the truncation that validate chose for this config."""
    noise_cfg = config.get("noise", {})
    noise = NoiseModel(
        delta_beta=tuple(complex(x[0], x[1]) for x in noise_cfg.get("delta_beta", [])),
        state_prep_infidelity=float(noise_cfg.get("state_prep_infidelity", 0.0)),
    )
    cutoff = FockCutoff(n_max=checked["cutoff_n_max"], modes=spec.modes)
    return SimulatedDevice(spec, cutoff, master_seed=int(config["seed"]), noise=noise)


def _rpe_config(config: dict, d: int, r_max: float, g_max: float, modes: int):
    rpe = config.get("rpe", {})
    try:
        # a fractional K or M is rejected, as RpeConfig rejects it, not truncated
        if config["noiseless"]:
            kwargs = {"l_steps": None, "shots": None}
        else:
            kwargs = {"shots": operator.index(rpe.get("M", 200))}
            if "L" in rpe:
                kwargs["l_steps"] = rpe["L"]
        k_max = operator.index(rpe.get("K", 8))
        cfg = derive_config(d, r_max=r_max, g_max=g_max, k_max=k_max, modes=modes, **kwargs)
        if rpe.get("t0") is not None:
            cfg = dataclasses.replace(cfg, t0=float(rpe["t0"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rpe block: {exc}") from exc
    return cfg


def _schedule(config: dict, spec: HamiltonianSpec) -> tuple[int, RpeConfig, float]:
    """The grid order, RPE schedule and largest displacement an experiment runs.

    The SPAM sweep runs its own schedule on the exact channel, whatever the
    config's rpe block says, over displacements up to 1.1 (the unit grid plus
    its bias).
    """
    grid = config.get("grid", {})
    if config["experiment"] == "spam-sweep":
        if spec.modes != 1:
            raise ConfigError("spam-sweep needs a single-mode spec")
        d = _index(grid.get("d", 2), "grid.d")
        cfg = derive_config(d, g_max=spec.g_max, shots=None, l_steps=None, k_max=10)
        return d, cfg, 1.1
    d = _index(grid.get("d", spec.max_order), "grid.d")
    r_max = float(grid.get("r_max", 1.0))
    return d, _rpe_config(config, d, r_max, spec.g_max, spec.modes), r_max


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


def _device_report(device: SimulatedDevice, cfg: RpeConfig) -> dict:
    """The device block of a learn-single / learn-multi report."""
    ledger = device.ledger()
    return {
        "ledger": {
            "total_evolution_time": ledger.total_evolution_time,
            "shot_count": ledger.shot_count,
        },
        "derived_t0": cfg.t0,
        "cutoff_n_max": device.cutoff.n_max,
        "edge_population": device.edge_population,
        "clipped_probabilities": device.clipped_probabilities,
    }


def _run_learn_single(config: dict, checked: dict) -> dict:
    spec = _build_spec(config)
    if spec.modes != 1:
        raise ConfigError("learn-single needs a single-mode spec")
    d, cfg, r_max = _schedule(config, spec)
    r_min = float(config.get("grid", {}).get("r_min", 0.2))
    device = _build_device(config, spec, checked)
    learned = learn_single_mode(
        device, d, cfg, r_min=r_min, r_max=r_max, token=f"cli{config['seed']}"
    )
    return {
        "coefficients": _coeff_rows(learned, spec),
        "diagnostics": learned.diagnostics,
        "eps_c_predicted": learned.eps_c,
        **_device_report(device, cfg),
    }


def _run_learn_multi(config: dict, checked: dict) -> dict:
    spec = _build_spec(config)
    d, cfg, r_max = _schedule(config, spec)
    r_min = float(config.get("grid", {}).get("r_min", 0.2))
    device = _build_device(config, spec, checked)
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
    return {
        "strategy": strategy,
        "coefficients": _coeff_rows(learned, spec),
        "diagnostics": {k: v for k, v in learned.diagnostics.items() if v is not None},
        **_device_report(device, cfg),
    }


def _firstq_block(config: dict) -> dict:
    """The parsed firstq block: gprime keyed by (p, q), its order d, the true
    frame, the search bracket, eps_g and n_max, with the shots per basis
    (rpe.M, None on the exact channel).  validate and the runner both read the
    block through here."""
    shots = None if config["noiseless"] else _index(config.get("rpe", {}).get("M", 200), "rpe.M")
    fq = config.get("firstq")
    if fq is None:
        raise ConfigError("learn-firstq needs a firstq block")
    if "gprime" not in fq:
        raise ConfigError("firstq block needs gprime")
    try:
        gprime = {tuple(int(x) for x in key.split(",")): float(v) for key, v in fq["gprime"].items()}
        lo, hi = (float(x) for x in fq.get("bracket", (-0.3, 0.3)))
        return {
            "gprime": gprime,
            "d": max(p + q for p, q in gprime),
            "frame": frame_from_ratio(1.0, 1.0 / float(fq.get("ratio", 1.0))),
            "bracket": (lo, hi),
            "eps_g": float(fq.get("eps_g", 5e-3)),
            "n_max": operator.index(fq.get("n_max", 48)),
            "shots": shots,
        }
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad firstq block: {exc}") from exc


def _run_learn_firstq(config: dict, _checked: dict) -> dict:
    fq = _firstq_block(config)
    gprime, d, frame = fq["gprime"], fq["d"], fq["frame"]
    terms = {single_key(p, q): complex(v) for (p, q), v in gprime.items() if p + q > 0}
    device = SimulatedDevice(
        HamiltonianSpec(1, d, terms, identity_offset=gprime.get((0, 0), 0.0)),
        FockCutoff(fq["n_max"], 1),
        master_seed=int(config["seed"]),
        true_frame_z=(complex(-frame.signed_r),),
    )
    res = learn_firstq(
        device,
        d,
        eps_g=fq["eps_g"],
        bracket=fq["bracket"],
        shots=fq["shots"],
        token=f"cli{config['seed']}",
    )
    ledger = device.ledger()
    return {
        "r_hat": res.r_hat,
        "r_true": frame.signed_r,
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


def _sweep_block(config: dict) -> tuple[list[int], int, int, float]:
    """The parsed sweep-heisenberg config: its depths K, seed count, rpe.M and
    c_true.  validate and the runner both read it through here."""
    sweep = config.get("sweep", {})
    k_values = [_index(k, "sweep.k_values") for k in sweep.get("k_values", range(4, 11))]
    n_seeds = _index(sweep.get("seeds", 20), "sweep.seeds")
    shots = _index(config.get("rpe", {}).get("M", 200), "rpe.M")
    return k_values, n_seeds, shots, float(sweep.get("c_true", 0.64))


def _run_sweep_heisenberg(config: dict, _checked: dict) -> dict:
    k_values, n_seeds, shots, c_true = _sweep_block(config)
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    beta = math.sqrt(c_true)
    cutoff = adaptive_cutoff(spec, beta)

    def one_point(k: int) -> tuple[float, float, int]:
        """One RPE run per seed, each on a fresh device, whose ledger total is
        the run's evolution time."""
        cfg = derive_config(2, k_max=k, shots=shots, l_steps=None)
        errs, times = [], []
        for seed in range(int(config["seed"]), int(config["seed"]) + n_seeds):
            device = SimulatedDevice(spec, cutoff, master_seed=seed)
            c_hat, _ = rpe_estimates(device, [beta], cfg, None, [f"hs{seed}"])
            errs.append(c_hat[0] - c_true)
            times.append(device.ledger().total_evolution_time)
        rmse = float(np.sqrt(np.mean(np.array(errs) ** 2)))
        return float(np.mean(times)), rmse, 2 * shots * (k + 1)

    rows = []
    for k in k_values:
        total_time, rmse, shot_count = one_point(k)
        rows.append({"k": k, "total_time": total_time, "rmse": rmse, "shots": shot_count})
    slope = None
    if len(rows) >= 2:
        logt = np.log([r["total_time"] for r in rows])
        logr = np.log([r["rmse"] for r in rows])
        slope = float(np.polyfit(logt, logr, 1)[0])
    return {"rows": rows, "loglog_slope": slope}


def _run_compare_covariance(config: dict, _checked: dict) -> dict:
    grid_cfg = config.get("grid", {})
    d = _index(grid_cfg.get("d", 2), "grid.d")
    modes = _index(grid_cfg.get("modes", 2), "grid.modes")
    grid = joint_grid(modes, d)
    keys = admissible_keys(modes, d)
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


def _run_spam_sweep(config: dict, checked: dict) -> dict:
    sweep = config.get("sweep", {})
    scales = [float(s) for s in sweep.get("delta_norms", (1e-3, 1e-2))]
    spec = _build_spec(config)
    d, cfg, _ = _schedule(config, spec)
    cutoff = FockCutoff(n_max=checked["cutoff_n_max"], modes=1)
    pipe = single_mode_pipeline(d)
    l_c = lipschitz_bound(d, 1.0, {(k.p[0], k.q[0]): v for k, v in spec.terms.items()})
    rng = np.random.default_rng(int(config["seed"]))
    direction = rng.normal(size=len(pipe.points)) + 1j * rng.normal(size=len(pipe.points))
    direction /= np.linalg.norm(direction)

    def learn(delta) -> dict:
        device = SimulatedDevice(spec, cutoff, master_seed=int(config["seed"]))
        return learn_displacement_biased(device, d, cfg, delta)

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
    _index(config["seed"], "seed")  # so the runners' int() never truncates it
    if config["experiment"] in ("learn-single", "learn-multi", "spam-sweep"):
        spec = _build_spec(config)
        _, cfg, beta_max = _schedule(config, spec)
        cutoff = adaptive_cutoff(spec, beta_max)
        diagnostics.update(
            {
                "hermitian": True,
                "derived_t0": cfg.t0,
                "c_bound": cfg.c_bound,
                "t0_times_c_bound": cfg.t0 * cfg.c_bound,
                "cutoff_n_max": cutoff.n_max,
            }
        )
    if config["experiment"] == "sweep-heisenberg":
        _sweep_block(config)
    if config["experiment"] == "learn-firstq":
        fq = _firstq_block(config)
        frame = fq["frame"]
        u_edge = math.cosh(max(abs(b) for b in fq["bracket"]))
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
