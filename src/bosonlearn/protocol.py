"""The learner: robust phase estimation of the displaced constant term and
the single-mode / multi-mode coefficient-learning drivers.

Every learner measures through one step, _measure: one rpe_estimates call
per learn, whose runs are the beta = 0 offset when it is subtracted, then
each grid in order, and which returns their estimates and their mask of
inconsistent rounds as columns.  Everything here talks to the device
exclusively through RPE grids (shot counts, or the exact-probability channel
with shots = None) and the time ledger.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .device import SimulatedDevice
from .hamiltonian import TermKey, admissible_keys, single_key
from .recovery import (
    MultidimFit,
    SingleModePipeline,
    StagePlan,
    apply_staged_fit,
    plan_staged_fit,
    single_mode_pipeline,
)


@dataclass(frozen=True)
class RpeConfig:
    """Phase-estimation schedule: powers kappa = 2^0 .. 2^K, M shots per basis.

    shots = None reads every measurement from the exact-probability channel
    (M -> infinity).  l_steps: Trotter steps per shot; "auto" applies the
    kappa-proportional policy, None requests the ideal infinite-step limit.
    """

    k_max: int
    shots: int | None
    t0: float
    c_bound: float
    l_steps: int | str | None = "auto"
    h_scale: float = 1.0

    def __post_init__(self) -> None:
        # a fractional k_max would fail in range(), a fractional l_steps as a power
        if operator.index(self.k_max) < 0:
            raise ValueError("k_max must be >= 0")
        if self.l_steps not in ("auto", None) and operator.index(self.l_steps) < 1:
            raise ValueError("l_steps must be >= 1, 'auto' or None")
        if self.t0 <= 0:
            raise ValueError(f"t0 must be > 0, got {self.t0}")
        # the deepest round resolves c only modulo 2 pi / (2^K t0); below c's
        # float spacing that period means nothing, and 2^K overflows a float
        # soon after.  Logarithms, so that no power of a huge K is evaluated.
        if self.k_max > math.log2(2 * math.pi / self.t0) - math.log2(math.ulp(self.c_bound)):
            raise ValueError(
                f"k_max {self.k_max} puts the deepest round's phase period 2 pi / (2^K t0) "
                f"below the float spacing of c_bound {self.c_bound}"
            )
        # numpy's binomial would truncate a fractional count that the ledger
        # and the estimates still use in full.
        if self.shots is not None and operator.index(self.shots) < 20:
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
        if self.shots is None:
            return 0.0
        return 1.0 / (2**self.k_max * self.t0 * math.sqrt(self.shots))


def derive_config(
    d: int,
    r_max: float = 1.0,
    g_max: float = 1.0,
    k_max: int = 8,
    shots: int = 200,
    modes: int = 1,
    **kwargs,
) -> RpeConfig:
    """Config with the prior bound c_bound = sum_l n_l g_max r_max^l and
    t0 = 0.9 pi / c_bound, guaranteeing first-round unambiguity.

    n_l counts the admissible keys of order l over `modes` modes (l + 1 on
    one mode), so the bound covers every term a joint grid point can excite.
    """
    n_l = Counter(key.order for key in admissible_keys(modes, d))
    c_bound = sum(n_l[l] * g_max * r_max**l for l in range(1, d + 1))
    t0 = 0.9 * math.pi / c_bound
    h_scale = g_max * (1.0 + r_max) ** d * d**2
    return RpeConfig(
        k_max=k_max, shots=shots, t0=t0, c_bound=c_bound, h_scale=h_scale, **kwargs
    )


def _schedule(cfg: RpeConfig) -> list[tuple[int, str, int | None]]:
    """The 2(K+1) rows (kappa, basis, l_steps) of one RPE run: an X and a Y
    request per round kappa = 2^j."""
    return [
        (2**j, basis, cfg.steps_for(2**j)) for j in range(cfg.k_max + 1) for basis in ("X", "Y")
    ]


def _unwrap(p0: np.ndarray, cfg: RpeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Iterative phase unwrapping of every run of a grid at once.

    p0[i] holds run i's outcome-0 frequencies (X, Y per round).  Round j
    measures the phase of the kappa = 2^j amplitude modulo 2 pi and picks,
    among the unwrapping candidates, the one closest to the previous round's
    estimate; rounds that jump by more than pi/(3 kappa t0) are flagged as
    inconsistent but the run proceeds.  Every round's phase comes from one
    map over the grid, laid out (rounds, runs); then each round is one numpy
    pass over the runs.  Returns each run's final estimate and the (runs,
    rounds) mask of inconsistent rounds.

    Every run is bit-identical to the scalar unwrap of that run alone: the
    phase comes from math.atan2 over the Y and X columns as Python floats
    (np.arctan2 rounds differently, and iterating numpy scalars is slower
    than .tolist()), and every other step is a single rounded operation;
    np.rint rounds half to even, as round() does.
    """
    runs, rounds = len(p0), cfg.k_max + 1
    # one round's floats at a time: a list of the whole grid's would hold
    # about 1.4 MB on a 1,729-run K = 10 grid
    y = itertools.chain.from_iterable(row.tolist() for row in (1.0 - 2.0 * p0[:, 1::2]).T)
    x = itertools.chain.from_iterable(row.tolist() for row in (2.0 * p0[:, 0::2] - 1.0).T)
    phase = np.fromiter(map(math.atan2, y, x), float, rounds * runs).reshape(rounds, runs)
    estimate = np.zeros(runs)
    inconsistent = np.zeros((runs, rounds), dtype=bool)
    for j in range(rounds):
        kappa = 2**j
        base = phase[j] / (kappa * cfg.t0)
        period = 2.0 * math.pi / (kappa * cfg.t0)
        candidate = base + period * np.rint((estimate - base) / period)
        if j > 0:
            inconsistent[:, j] = np.abs(candidate - estimate) > math.pi / (3.0 * kappa * cfg.t0)
        estimate = candidate
    return estimate, inconsistent


def rpe_estimates(
    device: SimulatedDevice, betas, cfg: RpeConfig, frame_z, tokens: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the constant term at each beta, one RPE run per beta and token.

    betas becomes one complex (runs, modes) array, whose rows go to the device
    as tuples; a scalar beta is a one-mode run.  A run's schedule (kappa =
    2^j, an X and a Y request per round) is fixed before any bit is seen, so
    the whole grid of runs goes to the device in one call: run_shot_grid on
    the shot channel, probability_grid on the exact channel, which asks
    device.probability once per request.  Both channels unwrap the whole grid
    together.  Returns the columns (c_hat, inconsistent): each run's estimate
    and the (runs, rounds) mask of its inconsistent rounds.  The runs'
    evolution time is the ledger's growth over the call.
    """
    modes = device.cutoff.modes
    try:
        points = np.array(betas, dtype=complex).reshape(len(betas), modes)
    except ValueError as exc:
        raise ValueError(f"betas need one entry per mode: the device has {modes} modes") from exc
    rows = list(map(tuple, points.tolist()))
    if len(tokens) != len(rows):
        raise ValueError(f"need one token per beta: {len(rows)} betas, {len(tokens)} tokens")
    schedule = _schedule(cfg)
    if cfg.shots is None:
        p0 = device.probability_grid(rows, frame_z, cfg.t0, schedule)
    else:
        ones = device.run_shot_grid(rows, frame_z, cfg.t0, schedule, cfg.shots, tokens)
        p0 = (cfg.shots - ones) / cfg.shots
    return _unwrap(p0, cfg)


def _measure(
    device: SimulatedDevice, cfg: RpeConfig, frame_z, offset_token: str | None, grids: list
) -> tuple[float | None, list[np.ndarray], dict]:
    """Every learner's measurement step, in one rpe_estimates call.

    The runs are C at beta = 0 (the identity content of H in the working
    frame) under offset_token, unless it is None, then each grid (points,
    stem) in order, point i under the token f"{stem}{i}".  RPE's schedule is
    fixed before any bit is seen, so they all go to the device together; the
    call's tokens key its shot stream, so a learn's counts depend only on its
    own tokens and the master seed, and the ledger is charged run by run in
    that order, as one call per grid would charge it.  Returns
    the offset (or None), each grid's C values, and the diagnostics of every
    run, the offset's included: inconsistent_rounds (a count) and
    inconsistent_runs (each inconsistent run's rounds, by token)."""
    blocks, tokens = [], []
    if offset_token is not None:
        blocks.append(np.zeros((1, device.cutoff.modes)))
        tokens.append(offset_token)
    for points, stem in grids:
        blocks.append(points)
        tokens.extend(f"{stem}{i}" for i in range(len(points)))
    c_hat, inconsistent = rpe_estimates(device, np.concatenate(blocks), cfg, frame_z, tokens)
    runs = {
        tokens[i]: np.flatnonzero(inconsistent[i]).tolist()
        for i in np.flatnonzero(inconsistent.any(axis=1)).tolist()
    }
    diagnostics = {"inconsistent_rounds": sum(map(len, runs.values())), "inconsistent_runs": runs}
    values = np.split(c_hat, np.cumsum([len(block) for block in blocks[:-1]]))
    offset = None if offset_token is None else float(values.pop(0)[0])
    return offset, values, diagnostics


@dataclass
class LearnedCoefficients:
    """Estimated coefficients with per-coefficient standard errors."""

    estimates: dict[TermKey, complex]
    stderr: dict[TermKey, float]
    eps_c: float
    time_cost: float
    identity_offset: float = 0.0
    diagnostics: dict = field(default_factory=dict)


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

    The grid displaces `mode` alone, point i under the token
    f"{token}:m{mode}:p{i}".  subtract_offset additionally measures C at
    beta = 0 (the identity content of the Hamiltonian in the working frame),
    under f"{token}:m{mode}:offset", and removes it from every grid value
    before recovery.  The offset run goes to the device first, in the grid's
    call, and its inconsistent rounds are reported with the grid runs'.
    """
    modes = device.cutoff.modes
    if not 0 <= mode < modes:
        raise ValueError(f"mode {mode} is out of range: the device has {modes} modes")
    start = device.ledger().total_evolution_time
    pipe = single_mode_pipeline(d, r_min, r_max)
    points = np.zeros((len(pipe.points), modes), dtype=complex)
    points[:, mode] = _mode_points(pipe)
    offset_token = f"{token}:m{mode}:offset" if subtract_offset else None
    grids = [(points, f"{token}:m{mode}:p")]
    offset, (c_values,), diagnostics = _measure(device, cfg, frame_z, offset_token, grids)
    variances = pipe.coefficient_variances(cfg.predicted_eps_c)
    if subtract_offset:
        c_values = c_values - offset
        # The beta = 0 estimate is shared by every grid point, so its error is
        # a coherent constant the intercept-free design maps into coefficients.
        shift = pipe.kplus @ np.ones(len(pipe.points))
        for i, key in enumerate(pipe.coeff_keys):
            variances[key] += (cfg.predicted_eps_c * abs(shift[i])) ** 2
    estimates = {single_key(p, q, mode): v for (p, q), v in pipe.solve(c_values).items()}
    stderr = {single_key(p, q, mode): math.sqrt(var) for (p, q), var in variances.items()}
    diagnostics.update(sigma_min=pipe.sigma_min, max_residual=pipe.max_residual(c_values))
    return LearnedCoefficients(
        estimates=estimates,
        stderr=stderr,
        eps_c=cfg.predicted_eps_c,
        time_cost=device.ledger().total_evolution_time - start,
        identity_offset=offset if subtract_offset else 0.0,
        diagnostics=diagnostics,
    )


def measure_coefficient(
    device: SimulatedDevice,
    d: int,
    key: tuple[int, int],
    cfg: RpeConfig,
    mode: int = 0,
    frame_z=None,
    token: str = "coeff",
) -> tuple[complex, float, dict]:
    """One single-mode coefficient (p, q) = key of the order-d map, measured
    on its own row of single_mode_pipeline(d) alone.

    Only the grid points where that row is nonzero go to the device, the
    order's canonical angles times the d+1 radial nodes (3(d+1) for order
    2), point i of the support under the token f"{token}:m{mode}:s{i}", in
    one _measure call with no offset run.  Returns the value, which is
    learn_single_mode's linear estimate without subtract_offset, its
    standard error eps_c * ||row|| and the runs' diagnostics.  The row of a
    key with p + q even and p != q, such as B†^2's, sums to zero up to
    rounding, so for it subtracting the beta = 0 offset would not move the
    value either.
    """
    modes = device.cutoff.modes
    if not 0 <= mode < modes:
        raise ValueError(f"mode {mode} is out of range: the device has {modes} modes")
    pipe = single_mode_pipeline(d)
    row = pipe.coefficient_row(key)
    points = np.zeros((len(row.support), modes), dtype=complex)
    points[:, mode] = np.array(_mode_points(pipe))[row.support]
    _, (c_values,), diagnostics = _measure(device, cfg, frame_z, None, [(points, f"{token}:m{mode}:s")])
    return complex(row.weights @ c_values), cfg.predicted_eps_c * row.norm, diagnostics


def learn_displacement_biased(
    device: SimulatedDevice, d: int, cfg: RpeConfig, delta: np.ndarray | None
) -> dict[tuple[int, int], complex]:
    """Single-mode coefficients, keyed by (p, q), recovered while point i of
    single_mode_pipeline(d) executes its displacement shifted by delta[i].

    delta = None is the clean learn.  The whole grid is one rpe_estimates
    call over the requested displacements beta_i + delta_i, with token
    f"spam{i}" for point i, so the bias differs per point as in a SPAM sweep.
    The device's own noise model applies throughout: delta adds to its
    displacement bias, if it has one.
    """
    pipe = single_mode_pipeline(d)
    betas = _mode_points(pipe)
    if delta is not None:
        betas = [beta + complex(shift) for beta, shift in zip(betas, delta, strict=True)]
    c_values, _ = rpe_estimates(device, betas, cfg, None, [f"spam{i}" for i in range(len(betas))])
    return pipe.solve(c_values)


# ---------------------------------------------------------------------------
# Multi-mode strategies.


def _mode_points(pipe: SingleModePipeline) -> list[complex]:
    """The pipeline's (r, theta) grid as complex displacements."""
    return [r * np.exp(1j * theta) for r, theta in pipe.points]


def joint_grid(modes: int, d: int, r_min: float = 0.2, r_max: float = 1.0) -> np.ndarray:
    """Tensor product of the per-mode single-mode grids; rows are beta vectors."""
    per_mode = [_mode_points(single_mode_pipeline(d, r_min, r_max))] * modes
    grids = np.meshgrid(*per_mode, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@functools.lru_cache(maxsize=4)
def _strategy_plan(
    strategy: str, modes: int, d: int, r_min: float, r_max: float, subtract_offset: bool
) -> tuple[tuple, tuple[StagePlan, ...]]:
    """A multi-mode strategy's stages (tag, points, keys) and their staged
    fit's plan, none of which depends on a measured value, so both are built
    once per (strategy, modes, d, r_min, r_max, subtract_offset).

    hierarchical stages are each mode's isolated grid with its singles, then
    the joint grid with the couplings (when there are any); simultaneous is
    the joint grid with every key.  Every learn shares them, so the points
    are read-only and the keys tuples.  A 3-mode d = 3 hierarchical plan
    holds about 64 MB, mostly linear maps over its 55,297 values, so the
    memo keeps only a few.
    """
    grid = joint_grid(modes, d, r_min, r_max)
    keys = admissible_keys(modes, d)
    if strategy == "hierarchical":
        stages = []
        for m in range(modes):
            iso = np.zeros_like(grid)
            iso[:, m] = grid[:, m]
            stages.append((f"s{m}", iso, tuple(k for k in keys if k.modes == (m,))))
        coupling_keys = tuple(k for k in keys if k.is_coupling)
        if coupling_keys:
            stages.append(("j", grid, coupling_keys))
    else:
        stages = [("j", grid, tuple(keys))]
    for _, points, _ in stages:
        points.setflags(write=False)
    plan = plan_staged_fit([(points, keys) for _, points, keys in stages], subtract_offset)
    return tuple(stages), plan


def _learn_stages(
    device: SimulatedDevice,
    cfg: RpeConfig,
    strategy: str,
    modes: int,
    d: int,
    r_min: float,
    r_max: float,
    frame_z,
    subtract_offset: bool,
    token: str,
) -> tuple[LearnedCoefficients, list[MultidimFit]]:
    """Measure the beta = 0 offset (when subtracted, under f"{token}:offset")
    and every stage of the strategy's plan (_strategy_plan) with one
    rpe_estimates call, offset first, then the stages in order, and fit the
    stages in order with the plan.

    Point i of a stage tagged tag carries the token f"{token}:{tag}:g{i}".
    Each stage's fit subtracts every earlier one at its own points, and each
    coefficient's stderr counts every measured value, the shared offset
    included, once.  diagnostics["max_residual"] maps each stage's tag to its
    fit's largest residual, which flags a wrapped first RPE round without the
    truth.
    """
    if device.cutoff.modes != modes:
        raise ValueError(
            f"every grid needs one entry per mode: the device has {device.cutoff.modes} modes"
        )
    stages, plan = _strategy_plan(strategy, modes, d, float(r_min), float(r_max), subtract_offset)
    start = device.ledger().total_evolution_time
    offset_token = f"{token}:offset" if subtract_offset else None
    grids = [(points, f"{token}:{tag}:g") for tag, points, _ in stages]
    offset, values, diagnostics = _measure(device, cfg, frame_z, offset_token, grids)
    fits = apply_staged_fit(plan, values, offset)
    eps_c = cfg.predicted_eps_c
    estimates = {k: v for fit in fits for k, v in fit.estimates.items()}
    stderr = {k: math.sqrt(v) for fit in fits for k, v in fit.coefficient_variances(eps_c).items()}
    diagnostics["max_residual"] = {tag: fit.max_residual for (tag, _, _), fit in zip(stages, fits)}
    learned = LearnedCoefficients(
        estimates=estimates,
        stderr=stderr,
        eps_c=eps_c,
        time_cost=device.ledger().total_evolution_time - start,
        identity_offset=0.0 if offset is None else offset,
        diagnostics=diagnostics,
    )
    return learned, fits


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
    exactly nothing there; each mode's singles come from their own fit.
    Step 2 measures the joint grid once and fits the coupling coefficients on
    what the single-mode models leave, with the Step-1 uncertainty carried
    into the coupling stderr.
    """
    if modes > 3:
        raise ValueError("hierarchical strategy is desk-scale: modes <= 3")
    learned, fits = _learn_stages(
        device, cfg, "hierarchical", modes, d, r_min, r_max, frame_z, subtract_offset, token
    )
    learned.diagnostics = {
        "strategy": "hierarchical",
        "step2_sigma_min": fits[-1].sigma_min if len(fits) > modes else None,
        **learned.diagnostics,
    }
    return learned


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
    learned, fits = _learn_stages(
        device, cfg, "simultaneous", modes, d, r_min, r_max, frame_z, subtract_offset, token
    )
    learned.diagnostics = {
        "strategy": "simultaneous",
        "sigma_min": fits[0].sigma_min,
        **learned.diagnostics,
    }
    return learned
