"""The learner: robust phase estimation of the displaced constant term and
the single-mode / multi-mode coefficient-learning drivers.

Everything here talks to the device exclusively through shot requests (or the
exact-probability channel in noiseless mode) and the time ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .device import ShotRequest, SimulatedDevice
from .hamiltonian import TermKey, single_key
from .recovery import (
    MultidimFit,
    multidim_fit,
    real_design_matrix,
    real_parameters,
    single_mode_pipeline,
)


@dataclass(frozen=True)
class RpeConfig:
    """Phase-estimation schedule: powers kappa = 2^0 .. 2^K, M shots per basis.

    l_steps: Trotter steps per shot; "auto" applies the kappa-proportional
    policy, None requests the ideal infinite-step limit.  noiseless switches
    every measurement to the exact-probability channel (M -> infinity).
    """

    k_max: int
    shots: int
    t0: float
    c_bound: float
    l_steps: int | str | None = "auto"
    noiseless: bool = False
    h_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if not self.noiseless and self.shots < 20:
            raise ValueError("shots per basis must be >= 20")
        if self.c_bound * self.t0 >= math.pi:
            raise ValueError("c_bound * t0 must be < pi for first-round unambiguity")

    def steps_for(self, kappa: int) -> int | None:
        if self.l_steps == "auto":
            return max(64, math.ceil(32 * kappa * self.t0 * self.h_scale))
        return self.l_steps

    @property
    def predicted_eps_c(self) -> float:
        """RMSE scale of one estimate, alpha/(2^K t0 sqrt(M)) with alpha = 1."""
        if self.noiseless:
            return 0.0
        return 1.0 / (2**self.k_max * self.t0 * math.sqrt(self.shots))


def derive_config(
    d: int,
    r_max: float = 1.0,
    g_max: float = 1.0,
    k_max: int = 8,
    shots: int = 200,
    **kwargs,
) -> RpeConfig:
    """Config with the prior bound c_bound = sum_l (l+1) g_max r_max^l and
    t0 = 0.9 pi / c_bound, guaranteeing first-round unambiguity."""
    c_bound = sum((l + 1) * g_max * r_max**l for l in range(1, d + 1))
    t0 = 0.9 * math.pi / c_bound
    h_scale = g_max * (1.0 + r_max) ** d * d**2
    return RpeConfig(
        k_max=k_max, shots=shots, t0=t0, c_bound=c_bound, h_scale=h_scale, **kwargs
    )


@dataclass(slots=True)
class RpeRound:
    kappa: int
    p_x: float
    p_y: float
    estimate: float
    consistent: bool


@dataclass(slots=True)
class PhaseEstimate:
    c_hat: float
    rounds: list[RpeRound]
    time_cost: float
    inconsistent_rounds: list[int]


def _run_requests(
    beta: tuple[complex, ...], cfg: RpeConfig, frame_z, token: str
) -> list[ShotRequest]:
    """The 2(K+1) requests of one RPE run: an X and a Y request per round."""
    requests = []
    for j in range(cfg.k_max + 1):
        kappa = 2**j
        l_steps = cfg.steps_for(kappa)
        for basis in ("X", "Y"):
            requests.append(
                ShotRequest(
                    kappa=kappa,
                    t0=cfg.t0,
                    beta=beta,
                    basis=basis,
                    l_steps=l_steps,
                    frame_z=frame_z,
                    rng_token=f"{token}:k{kappa}:{basis}",
                )
            )
    return requests


def _unwrap(p0: list[float], cfg: RpeConfig, time_cost: float) -> PhaseEstimate:
    """Iterative phase unwrapping of one run's outcome-0 frequencies (X, Y per round).

    Round j measures the phase of the kappa = 2^j amplitude modulo 2 pi and
    picks, among the unwrapping candidates, the one closest to the previous
    round's estimate.  Rounds that jump by more than pi/(3 kappa t0) are
    flagged as inconsistent but the run proceeds.
    """
    rounds: list[RpeRound] = []
    inconsistent: list[int] = []
    estimate = 0.0
    for j in range(cfg.k_max + 1):
        kappa = 2**j
        p_x, p_y = p0[2 * j], p0[2 * j + 1]
        phi = math.atan2(1.0 - 2.0 * p_y, 2.0 * p_x - 1.0)
        base = phi / (kappa * cfg.t0)
        period = 2.0 * math.pi / (kappa * cfg.t0)
        candidate = base + period * round((estimate - base) / period)
        ok = j == 0 or abs(candidate - estimate) <= math.pi / (3.0 * kappa * cfg.t0)
        if not ok:
            inconsistent.append(j)
        rounds.append(RpeRound(kappa, p_x, p_y, candidate, ok))
        estimate = candidate
    return PhaseEstimate(
        c_hat=estimate, rounds=rounds, time_cost=time_cost, inconsistent_rounds=inconsistent
    )


def rpe_estimates(
    device: SimulatedDevice,
    betas,
    cfg: RpeConfig,
    frame_z,
    tokens: list[str],
) -> list[PhaseEstimate]:
    """Estimate the constant term at each beta, one RPE run per beta and token.

    A run's schedule (kappa = 2^j, an X and a Y request per round) is fixed
    before any bit is seen, so on the shot channel every request of every run
    goes to the device in one run_shot_batches call; only the unwrapping is
    sequential.  The exact channel is asked once per request.  Each run's
    time_cost is the ledger's growth over its own requests, which the device
    charges in request order.
    """
    betas = [tuple(complex(b) for b in np.atleast_1d(beta)) for beta in betas]
    tokens = list(tokens)
    if len(tokens) != len(betas):
        raise ValueError(f"need one token per beta: {len(betas)} betas, {len(tokens)} tokens")
    # Built lazily, so the exact channel holds one run's requests at a time.
    runs = (_run_requests(beta, cfg, frame_z, token) for beta, token in zip(betas, tokens))
    if cfg.noiseless:
        return [_unwrap([device.probability(req) for req in run], cfg, 0.0) for run in runs]
    runs = list(runs)
    total = device.ledger().total_evolution_time
    ones = iter(device.run_shot_batches([req for run in runs for req in run], cfg.shots))
    estimates = []
    for run in runs:
        run_start = total
        p0 = []
        for req in run:
            p0.append((cfg.shots - next(ones)) / cfg.shots)
            total += cfg.shots * req.evolution_time
        estimates.append(_unwrap(p0, cfg, total - run_start))
    return estimates


def rpe_estimate(
    device: SimulatedDevice,
    beta,
    cfg: RpeConfig,
    frame_z=None,
    token: str = "rpe",
) -> PhaseEstimate:
    """Estimate the constant term at beta by iterative phase unwrapping: the
    one-run case of rpe_estimates."""
    return rpe_estimates(device, [beta], cfg, frame_z, [token])[0]


@dataclass
class LearnedCoefficients:
    """Estimated coefficients with per-coefficient standard errors."""

    estimates: dict[TermKey, complex]
    stderr: dict[TermKey, float]
    eps_c: float
    time_cost: float
    identity_offset: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def as_pq_dict(self) -> dict[tuple[int, int], complex]:
        """Single-mode view keyed by (p, q)."""
        return {(k.p[0], k.q[0]): v for k, v in self.estimates.items() if not k.is_coupling}


def _embedded_beta(value: complex, mode: int, modes: int) -> tuple[complex, ...]:
    beta = [0j] * modes
    beta[mode] = value
    return tuple(beta)


def _identity_offset(device: SimulatedDevice, cfg: RpeConfig, frame_z, token: str) -> float:
    """C at beta = 0: the identity content of the Hamiltonian in the working
    frame, which subtract_offset removes from every grid value."""
    beta = (0j,) * device.cutoff.modes
    return rpe_estimate(device, beta, cfg, frame_z=frame_z, token=f"{token}:offset").c_hat


def learn_single_mode(
    device: SimulatedDevice,
    d: int,
    cfg: RpeConfig,
    mode: int = 0,
    r_min: float = 0.2,
    r_max: float = 1.0,
    frame_z=None,
    subtract_offset: bool = False,
    token: str = "single",
) -> LearnedCoefficients:
    """Single-mode coefficient learning: phase estimation of C on a Chebyshev
    radius x canonical angle grid, radial least squares, angular inverse DFT.

    subtract_offset additionally measures C at beta = 0 (the identity content
    of the Hamiltonian in the working frame) and removes it from every grid
    value before recovery.
    """
    start = device.ledger().total_evolution_time
    pipe = single_mode_pipeline(d, r_min, r_max)
    modes = device.cutoff.modes
    offset = _identity_offset(device, cfg, frame_z, f"{token}:m{mode}") if subtract_offset else 0.0
    runs = rpe_estimates(
        device,
        [_embedded_beta(r * np.exp(1j * theta), mode, modes) for r, theta in pipe.points],
        cfg,
        frame_z,
        [f"{token}:m{mode}:p{i}" for i in range(len(pipe.points))],
    )
    c_values = np.array([est.c_hat for est in runs]) - offset
    inconsistent = sum(len(est.inconsistent_rounds) for est in runs)
    coeffs = pipe.solve(c_values)
    variances = pipe.coefficient_variances(max(cfg.predicted_eps_c, 0.0))
    if subtract_offset:
        # The beta = 0 estimate is shared by every grid point, so its error is
        # a coherent constant the intercept-free design maps into coefficients.
        shift = pipe.kplus @ np.ones(len(pipe.points))
        for i, key in enumerate(pipe.coeff_keys):
            variances[key] += (cfg.predicted_eps_c * abs(shift[i])) ** 2
    estimates = {single_key(p, q, mode): v for (p, q), v in coeffs.items()}
    stderr = {single_key(p, q, mode): math.sqrt(var) for (p, q), var in variances.items()}
    return LearnedCoefficients(
        estimates=estimates,
        stderr=stderr,
        eps_c=cfg.predicted_eps_c,
        time_cost=device.ledger().total_evolution_time - start,
        identity_offset=offset,
        diagnostics={"inconsistent_rounds": inconsistent, "sigma_min": pipe.sigma_min},
    )


# ---------------------------------------------------------------------------
# Multi-mode strategies.


def _mode_points(d: int, r_min: float, r_max: float) -> list[complex]:
    pipe = single_mode_pipeline(d, r_min, r_max)
    return [r * np.exp(1j * theta) for r, theta in pipe.points]


def joint_grid(modes: int, d: int, r_min: float = 0.2, r_max: float = 1.0) -> np.ndarray:
    """Tensor product of the per-mode single-mode grids; rows are beta vectors."""
    per_mode = [_mode_points(d, r_min, r_max) for _ in range(modes)]
    grids = np.meshgrid(*per_mode, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _coupling_keys(modes: int, d: int) -> list[TermKey]:
    from .hamiltonian import admissible_keys

    return [k for k in admissible_keys(modes, d) if k.is_coupling]


def _single_keys(d: int, mode: int) -> list[TermKey]:
    return [
        single_key(p, q, mode) for p in range(d + 1) for q in range(d + 1 - p) if p + q >= 1
    ]


def _measure_grid(
    device: SimulatedDevice,
    points: np.ndarray,
    cfg: RpeConfig,
    frame_z,
    token: str,
) -> tuple[np.ndarray, int]:
    """C at every grid point from one rpe_estimates call, and the grid's
    inconsistent-round count."""
    tokens = [f"{token}:g{i}" for i in range(len(points))]
    runs = rpe_estimates(device, points, cfg, frame_z, tokens)
    return np.array([est.c_hat for est in runs]), sum(len(est.inconsistent_rounds) for est in runs)


def learn_multimode_hierarchical(
    device: SimulatedDevice,
    modes: int,
    d: int,
    cfg: RpeConfig,
    r_min: float = 0.2,
    r_max: float = 1.0,
    frame_z=None,
    subtract_offset: bool = False,
    token: str = "hier",
) -> LearnedCoefficients:
    """Two-step strategy: singles from mode-isolated displacements, then
    couplings from the joint-grid residual.

    Step 1 measures, for every joint grid point, its per-mode isolated
    projections (all other modes at beta = 0), so coupling terms contribute
    exactly nothing there; singles come from a per-mode least-squares fit.
    Step 2 measures the joint grid once, subtracts the fitted single-mode
    model, and fits the coupling coefficients on the residual, propagating
    the Step-1 uncertainty into the coupling covariance.
    """
    if modes > 3:
        raise ValueError("hierarchical strategy is desk-scale: modes <= 3")
    start = device.ledger().total_evolution_time
    grid = joint_grid(modes, d, r_min, r_max)
    eps_c = max(cfg.predicted_eps_c, 0.0)
    offset = _identity_offset(device, cfg, frame_z, token) if subtract_offset else 0.0

    # Shared beta = 0 subtraction error is a coherent rank-1 measurement
    # covariance across every grid point.
    offset_cov = (eps_c**2 * np.ones((len(grid), len(grid)))) if subtract_offset else None

    estimates: dict[TermKey, complex] = {}
    stderr: dict[TermKey, float] = {}
    single_fits = []
    inconsistent = 0
    for m in range(modes):
        iso = np.zeros_like(grid)
        iso[:, m] = grid[:, m]
        y, bad = _measure_grid(device, iso, cfg, frame_z, f"{token}:s{m}")
        y -= offset
        inconsistent += bad
        fit = multidim_fit(iso, y, _single_keys(d, m), eps_c=eps_c, extra_cov=offset_cov)
        single_fits.append(fit)
        estimates.update(fit.estimates)
        for key, var in fit.coefficient_variances().items():
            stderr[key] = math.sqrt(var)

    coupling_keys = _coupling_keys(modes, d)
    fit2 = None
    if coupling_keys:
        residual, bad = _measure_grid(device, grid, cfg, frame_z, f"{token}:j")
        residual -= offset
        inconsistent += bad
        extra = np.zeros((len(grid), len(grid))) if offset_cov is None else offset_cov.copy()
        for m, fit in enumerate(single_fits):
            params = fit.params
            x = np.array(
                [
                    fit.estimates[key].real if part == "re" else fit.estimates[key].imag
                    for key, part in params
                ]
            )
            phi_joint = real_design_matrix(grid, params)
            residual -= phi_joint @ x
            extra += phi_joint @ fit.covariance @ phi_joint.T
        fit2 = multidim_fit(grid, residual, coupling_keys, eps_c=eps_c, extra_cov=extra)
        estimates.update(fit2.estimates)
        for key, var in fit2.coefficient_variances().items():
            stderr[key] = math.sqrt(var)

    return LearnedCoefficients(
        estimates=estimates,
        stderr=stderr,
        eps_c=eps_c,
        time_cost=device.ledger().total_evolution_time - start,
        identity_offset=offset,
        diagnostics={
            "strategy": "hierarchical",
            "step2_sigma_min": None if fit2 is None else fit2.sigma_min,
            "inconsistent_rounds": inconsistent,
        },
    )


def learn_multimode_simultaneous(
    device: SimulatedDevice,
    modes: int,
    d: int,
    cfg: RpeConfig,
    r_min: float = 0.2,
    r_max: float = 1.0,
    frame_z=None,
    subtract_offset: bool = False,
    token: str = "simul",
) -> LearnedCoefficients:
    """Baseline strategy: one least-squares solve for every coefficient
    (singles and couplings together) on the joint displacement grid."""
    start = device.ledger().total_evolution_time
    grid = joint_grid(modes, d, r_min, r_max)
    eps_c = max(cfg.predicted_eps_c, 0.0)
    offset = _identity_offset(device, cfg, frame_z, token) if subtract_offset else 0.0
    y, inconsistent = _measure_grid(device, grid, cfg, frame_z, f"{token}:j")
    y -= offset
    keys = [k for m in range(modes) for k in _single_keys(d, m)] + _coupling_keys(modes, d)
    offset_cov = (eps_c**2 * np.ones((len(grid), len(grid)))) if subtract_offset else None
    fit = multidim_fit(grid, y, keys, eps_c=eps_c, extra_cov=offset_cov)
    stderr = {key: math.sqrt(var) for key, var in fit.coefficient_variances().items()}
    return LearnedCoefficients(
        estimates=fit.estimates,
        stderr=stderr,
        eps_c=eps_c,
        time_cost=device.ledger().total_evolution_time - start,
        identity_offset=offset,
        diagnostics={
            "strategy": "simultaneous",
            "sigma_min": fit.sigma_min,
            "inconsistent_rounds": inconsistent,
        },
    )
