"""Classical linear algebra of the coefficient-recovery pipeline.

The single-mode recovery map (Chebyshev radial least squares composed with
the angular inverse DFT), the Lipschitz/SPAM bound, the staged multi-mode
least-squares fit, and the hierarchical-vs-simultaneous covariance ordering
check.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np


@dataclass
class RadialDesign:
    """Chebyshev radial nodes and the Vandermonde system they induce.

    vandermonde has columns r^l for l = 1..d (no intercept: C(0, theta) = 0).
    """

    degree: int
    r_min: float
    r_max: float
    nodes: np.ndarray
    vandermonde: np.ndarray
    pinv: np.ndarray
    cond: float


def chebyshev_nodes(count: int, r_min: float, r_max: float) -> np.ndarray:
    """First-kind Chebyshev points mapped affinely onto [r_min, r_max], ascending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= r_min < r_max:
        raise ValueError(f"need 0 <= r_min < r_max, got [{r_min}, {r_max}]")
    mu = np.arange(1, count + 1)
    pts = 0.5 * (r_min + r_max) + 0.5 * (r_max - r_min) * np.cos((2 * mu - 1) * np.pi / (2 * count))
    return np.sort(pts)


def radial_design(degree: int, r_min: float = 0.2, r_max: float = 1.0) -> RadialDesign:
    """d+1 Chebyshev nodes and the degree-d Vandermonde least-squares system."""
    nodes = chebyshev_nodes(degree + 1, r_min, r_max)
    vand = nodes[:, None] ** np.arange(1, degree + 1)[None, :]
    return RadialDesign(
        degree=degree,
        r_min=r_min,
        r_max=r_max,
        nodes=nodes,
        vandermonde=vand,
        pinv=np.linalg.pinv(vand),
        cond=float(np.linalg.cond(vand)),
    )


def angular_angles(order: int) -> list[Fraction]:
    """Canonical angles theta_{u,l} = pi*u/(l+1), as exact fractions of pi."""
    return [Fraction(u, order + 1) for u in range(order + 1)]


class CoefficientRow(NamedTuple):
    """Grid indices where a kplus row is nonzero, its entries there, and its
    2-norm: the coefficient's standard error per unit C-noise."""

    support: np.ndarray
    weights: np.ndarray
    norm: float


@dataclass(frozen=True)
class SingleModePipeline:
    """Materialized two-stage recovery map for one mode at max order d.

    points lists the (r, theta) measurement grid; kplus maps the stacked real
    C-measurement vector (ordered as points) to the complex coefficient vector
    (ordered as coeff_keys), including the Hermitian symmetrization.
    """

    degree: int
    design: RadialDesign
    points: tuple[tuple[float, float], ...]
    coeff_keys: tuple[tuple[int, int], ...]
    kplus: np.ndarray
    sigma_min: float
    # (points x points): the measured C values to the fitted model's C at the
    # same points, Re(M kplus) with M[i, k] = conj(beta_i)^p_k beta_i^q_k.
    hat: np.ndarray

    def solve(self, c_values: np.ndarray) -> dict[tuple[int, int], complex]:
        g = self.kplus @ np.asarray(c_values, dtype=float)
        return dict(zip(self.coeff_keys, (complex(x) for x in g)))

    def max_residual(self, c_values: np.ndarray) -> float:
        """max |C - model| over the grid, the model being C(beta) =
        sum g_pq conj(beta)^p beta^q with the coefficients solve() returns.

        About 0 on exact data; a wrapped RPE value is off by a multiple of
        2 pi/t0, which no degree-d model absorbs.  hat is an oblique
        projection (spectral norm 57 at d = 3), so on shot data the residual
        is shot noise amplified, not a multiple of eps_c.
        """
        c = np.asarray(c_values, dtype=float)
        return float(np.max(np.abs(c - self.hat @ c)))

    def coefficient_variances(self, eps_c: float) -> dict[tuple[int, int], float]:
        """Total (real+imag) variance per coefficient under iid C-noise eps_c^2."""
        cov_diag = eps_c**2 * np.sum(np.abs(self.kplus) ** 2, axis=1)
        return dict(zip(self.coeff_keys, cov_diag.astype(float)))

    def coefficient_row(self, key: tuple[int, int]) -> CoefficientRow:
        """The row of kplus that gives coefficient key, on its support.

        An order-l coefficient reads only the l+1 canonical angles of order l
        (times the d+1 radial nodes), so its row is exactly zero on every
        other grid point and the coefficient is weights @ C[support]."""
        row = self.kplus[self.coeff_keys.index(key)]
        support = np.flatnonzero(row)
        return CoefficientRow(support, row[support], float(np.linalg.norm(row)))


def single_mode_pipeline(degree: int, r_min: float = 0.2, r_max: float = 1.0) -> SingleModePipeline:
    """The full linear map from C measurements to coefficients.

    The measurement grid is the union of all canonical angle sets (shared
    across orders l) crossed with the d+1 Chebyshev nodes.  The pipeline is
    built once per (degree, r_min, r_max), however the arguments are passed;
    the cache shares it, so it is frozen and its arrays are read-only.
    """
    return _build_pipeline(degree, float(r_min), float(r_max))


@functools.lru_cache(maxsize=32)
def _build_pipeline(degree: int, r_min: float, r_max: float) -> SingleModePipeline:
    design = radial_design(degree, r_min, r_max)
    fracs = sorted({f for l in range(1, degree + 1) for f in angular_angles(l)})
    frac_index = {f: i for i, f in enumerate(fracs)}
    n_nodes = degree + 1
    n_meas = len(fracs) * n_nodes
    points = [(float(r), float(np.pi * f)) for f in fracs for r in design.nodes]

    # Stage 1: radial fit per angle.  row block a -> g_l(theta_a), l = 1..d.
    radial_map = np.zeros((len(fracs) * degree, n_meas))
    for a in range(len(fracs)):
        radial_map[a * degree : (a + 1) * degree, a * n_nodes : (a + 1) * n_nodes] = design.pinv

    # Stage 2: per-order inverse DFT picking its l+1 canonical angles.
    coeff_keys: list[tuple[int, int]] = []
    rows = []
    for l in range(1, degree + 1):
        u = np.arange(l + 1)
        theta = np.pi * u / (l + 1)
        cols = [frac_index[f] * degree + (l - 1) for f in angular_angles(l)]
        for p in range(l + 1):
            coeff_keys.append((p, l - p))
            w = np.exp(-1j * l * theta) * np.exp(2j * np.pi * p * u / (l + 1)) / (l + 1)
            row = np.zeros(len(fracs) * degree, dtype=complex)
            row[cols] = w
            rows.append(row)
    idft_map = np.vstack(rows)
    kplus = idft_map @ radial_map

    # Hermitian symmetrization: g_{p,q} <- (g_{p,q} + conj(g_{q,p}))/2, real input.
    pair = [coeff_keys.index((q, p)) for (p, q) in coeff_keys]
    kplus = 0.5 * (kplus + np.conj(kplus[pair, :]))

    stacked = np.vstack([kplus.real, kplus.imag])
    sigma_max_plus = float(np.linalg.svd(stacked, compute_uv=False)[0])
    beta = np.array([r * np.exp(1j * theta) for r, theta in points])[:, None]
    p, q = np.array(coeff_keys).T
    hat = ((np.conj(beta) ** p * beta**q) @ kplus).real
    for array in (kplus, hat, design.nodes, design.vandermonde, design.pinv):
        array.setflags(write=False)
    return SingleModePipeline(
        degree=degree,
        design=design,
        points=tuple(points),
        coeff_keys=tuple(coeff_keys),
        kplus=kplus,
        sigma_min=1.0 / sigma_max_plus,
        hat=hat,
    )


def lipschitz_bound(degree: int, r_max: float, coeffs: dict[tuple[int, int], complex]) -> float:
    """Upper bound on sup ||grad C(r, theta)||_2 over the displacement disk,
    for the single-mode coefficients coeffs = {(p, q): g}.

    Radial part: sum_l l r_max^{l-1} (sum_{p+q=l} |g_{p,q}|).  Angular part
    uses sum_{p+q=l} |g_{p,q}| |q-p| with the same l r_max^{l-1} weight (a
    concrete, conservative version of the order-l^2 estimate).  With
    unit-bounded coefficients the radial part reduces to sum l(l+1) r_max^{l-1}.
    """
    sums: dict[int, float] = {}
    weighted: dict[int, float] = {}
    for (p, q), g in coeffs.items():
        l = p + q
        sums[l] = sums.get(l, 0.0) + abs(g)
        weighted[l] = weighted.get(l, 0.0) + abs(g) * abs(q - p)
    radial = sum(l * r_max ** (l - 1) * sums.get(l, 0.0) for l in range(1, degree + 1))
    angular = sum(l * r_max ** (l - 1) * weighted.get(l, 0.0) for l in range(1, degree + 1))
    return float(math.hypot(radial, angular))


@dataclass
class SpamReport:
    lipschitz: float
    sigma_min: float
    delta_beta_norm: float
    bound: float
    observed: float | None = None


def spam_bound(pipeline: SingleModePipeline, lipschitz: float, delta_beta: np.ndarray,
               observed: float | None = None) -> SpamReport:
    """Worst-case coefficient error from displacement deviations delta_beta.

    bound = (L_C / sigma_min(K)) ||delta_beta||_2 with sigma_min taken from
    the materialized two-stage propagation map.
    """
    if pipeline.sigma_min <= 0 or not np.isfinite(pipeline.sigma_min):
        raise np.linalg.LinAlgError("propagation map is rank deficient")
    norm = float(np.linalg.norm(np.asarray(delta_beta)))
    return SpamReport(
        lipschitz=lipschitz,
        sigma_min=pipeline.sigma_min,
        delta_beta_norm=norm,
        bound=float(lipschitz / pipeline.sigma_min * norm),
        observed=observed,
    )


# ---------------------------------------------------------------------------
# Real-parameterized designs for multi-mode fits.


def real_parameters(keys) -> list[tuple]:
    """Real parameterization of a Hermitian-paired coefficient set.

    For each conjugate pair one canonical key contributes a 're' parameter and,
    unless self-conjugate, an 'im' parameter.
    """
    from .hamiltonian import canonical_key

    params = []
    seen = set()
    for key in keys:
        ck = canonical_key(key)
        if ck in seen:
            continue
        seen.add(ck)
        params.append((ck, "re"))
        if not ck.is_self_conjugate:
            params.append((ck, "im"))
    return params


def real_design_matrix(points: np.ndarray, params: list[tuple]) -> np.ndarray:
    """Design matrix of real C contributions for the real parameterization.

    A canonical key k with coefficient c = a + ib contributes
    2 Re(c m_k(beta)) when paired, or a m_k(beta) when self-conjugate, with
    the monomial m_k(beta) = prod over k's modes of conj(beta_m)^p beta_m^q.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    conj = np.conj(points)
    cols = []
    for key, part in params:
        m = np.prod(
            [conj[:, mode] ** p * points[:, mode] ** q for mode, p, q in zip(key.modes, key.p, key.q)],
            axis=0,
        )
        if key.is_self_conjugate:
            col = m.real
        elif part == "re":
            col = 2.0 * m.real
        else:
            col = -2.0 * m.imag
        cols.append(col)
    return np.column_stack(cols)


def params_to_coeffs(params: list[tuple], x: np.ndarray) -> dict:
    """Assemble complex, Hermitian-paired coefficients from real parameters."""
    vals: dict = {}
    for (key, part), v in zip(params, x):
        c = vals.get(key, 0.0 + 0.0j)
        vals[key] = c + (v if part == "re" else 1j * v)
    out = {}
    for key, c in vals.items():
        out[key] = c
        out[key.conjugate] = np.conj(c)
    return out


@dataclass(frozen=True, eq=False)
class StagePlan:
    """The half of one stage of a staged fit that no measured value enters.

    design is the stage's real design at its own points and pinv its
    pseudo-inverse, from one SVD.  prior_designs holds every earlier stage's
    design at this stage's points, whose model the fit subtracts there.
    linear_map maps every measured value of the fit to the parameters, and
    weights holds its rows' squared norms.  The arrays are read-only, so one
    plan serves every fit of the same design.
    """

    params: tuple
    design: np.ndarray
    pinv: np.ndarray
    sigma_min: float
    prior_designs: tuple[np.ndarray, ...]
    linear_map: np.ndarray
    weights: tuple[float, ...]


@dataclass
class MultidimFit:
    """One stage of a staged fit: its plan, the real parameters' estimates
    and the coefficients they make."""

    stage: StagePlan
    x: np.ndarray
    estimates: dict
    # max |y - design x| over the stage's points: about 0 on exact data, and
    # about 2 pi/t0 where a first RPE round wrapped.
    max_residual: float

    @property
    def params(self) -> tuple:
        return self.stage.params

    @property
    def sigma_min(self) -> float:
        return self.stage.sigma_min

    @property
    def linear_map(self) -> np.ndarray:
        return self.stage.linear_map

    def coefficient_variances(self, eps_c: float) -> dict:
        """Total variance per complex coefficient (re + im parameters) under
        iid measurement noise eps_c^2: eps_c^2 times squared map row norms."""
        out: dict = {}
        for (key, _), weight in zip(self.params, self.stage.weights):
            out[key] = out[key.conjugate] = out.get(key, 0.0) + eps_c**2 * weight
        return out


def plan_staged_fit(stages, with_offset: bool) -> tuple[StagePlan, ...]:
    """Everything of staged_fit that the values do not enter, for stages
    (points, keys): per stage its parameters, design, pseudo-inverse and
    linear map, and the earlier stages' designs at its points.

    The map's columns are the offset run (when with_offset), then each
    stage's points in order.  A map is built as (pinv @ prior design) @ prior
    map, so no points x measurements matrix is formed.
    """
    first = 1 if with_offset else 0
    n_values = first + sum(len(points) for points, _ in stages)
    plan: list[StagePlan] = []
    for points, keys in stages:
        params = tuple(real_parameters(keys))
        design = real_design_matrix(points, params)
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        # pinv's cutoff: below it a direction would be dropped silently.
        if not len(s) or s[-1] <= 1e-15 * s[0]:
            raise np.linalg.LinAlgError("fit design matrix is rank deficient")
        pinv = (vt.T / s) @ u.T
        linear_map = np.zeros((len(params), n_values))
        linear_map[:, first : first + len(points)] = pinv
        if with_offset:
            linear_map[:, 0] = -pinv.sum(axis=1)
        prior_designs = tuple(real_design_matrix(points, prior.params) for prior in plan)
        for prior_design, prior in zip(prior_designs, plan):
            linear_map -= (pinv @ prior_design) @ prior.linear_map
        for array in (design, pinv, linear_map, *prior_designs):
            array.setflags(write=False)
        weights = tuple(float(row @ row) for row in linear_map)
        plan.append(StagePlan(params, design, pinv, float(s[-1]), prior_designs, linear_map, weights))
        first += len(points)
    return tuple(plan)


def apply_staged_fit(plan: tuple[StagePlan, ...], values, offset: float | None = None) -> list[MultidimFit]:
    """Fit each stage's values (one array per stage of plan) in order.

    Each stage fits its values minus the offset (the beta = 0 value, given
    exactly when the plan has its column) and minus every earlier stage's
    model at its own points, and records the largest residual of that fit.
    """
    n_points = sum(stage.pinv.shape[1] for stage in plan)
    if (offset is not None) != (plan[0].linear_map.shape[1] > n_points):
        raise ValueError("an offset is needed exactly when the plan was built with its column")
    fits: list[MultidimFit] = []
    for stage, stage_values in zip(plan, values, strict=True):
        y = np.array(stage_values, dtype=float)
        if offset is not None:
            y -= offset
        for prior_design, prior in zip(stage.prior_designs, fits):
            y -= prior_design @ prior.x
        x = stage.pinv @ y
        residual = float(np.max(np.abs(y - stage.design @ x)))
        fits.append(MultidimFit(stage, x, params_to_coeffs(stage.params, x), residual))
    return fits


def staged_fit(stages, offset: float | None = None) -> list[MultidimFit]:
    """Least-squares fits of stages (points, values, keys), one after another.

    Each stage fits its keys, from one SVD of its design, to its values minus
    the offset (the beta = 0 value, when given) and minus every earlier
    stage's model at its own points, and records the largest residual of
    that fit.  Each fit keeps its parameters' linear
    map of every measured value: the offset run (a column only when offset is
    given), then each stage's points in order.  A value that enters several
    stages, the offset or an earlier fit, thus counts once in a variance.
    This is plan_staged_fit, then apply_staged_fit once.
    """
    plan = plan_staged_fit([(points, keys) for points, _, keys in stages], offset is not None)
    return apply_staged_fit(plan, [values for _, values, _ in stages], offset)


@dataclass
class CovarianceOrdering:
    cov_sim_single: np.ndarray
    cov_sim_coupling: np.ndarray
    cov_hier_single: np.ndarray
    cov_hier_coupling: np.ndarray
    min_eig_single: float
    min_eig_coupling: float
    woodbury_residual: float

    @property
    def ordered(self) -> bool:
        return self.min_eig_single >= -1e-10 and self.min_eig_coupling >= -1e-10


def covariance_compare(m_single: np.ndarray, m_coupling: np.ndarray, eps_c: float = 1.0) -> CovarianceOrdering:
    """Hierarchical vs simultaneous covariance ordering on a shared design.

    Builds the block Gram structure A, B, D from [M_1 M_>1], forms both
    strategies' covariance blocks, checks positive semidefiniteness of the
    differences, and verifies the Woodbury identity linking them.
    """
    a = m_single.T.conj() @ m_single
    b = m_single.T.conj() @ m_coupling
    d = m_coupling.T.conj() @ m_coupling
    a_inv = np.linalg.inv(a)
    d_inv = np.linalg.inv(d)
    schur_a = a - b @ d_inv @ b.conj().T
    schur_d = d - b.conj().T @ a_inv @ b
    cov_sim_single = eps_c**2 * np.linalg.inv(schur_a)
    cov_sim_coupling = eps_c**2 * np.linalg.inv(schur_d)
    cov_hier_single = eps_c**2 * a_inv
    cov_hier_coupling = eps_c**2 * (d_inv + d_inv @ b.conj().T @ a_inv @ b @ d_inv)
    woodbury = d_inv + d_inv @ b.conj().T @ np.linalg.inv(schur_a) @ b @ d_inv
    residual = float(np.max(np.abs(np.linalg.inv(schur_d) - woodbury)))
    diff_s = cov_sim_single - cov_hier_single
    diff_c = cov_sim_coupling - cov_hier_coupling
    return CovarianceOrdering(
        cov_sim_single=cov_sim_single,
        cov_sim_coupling=cov_sim_coupling,
        cov_hier_single=cov_hier_single,
        cov_hier_coupling=cov_hier_coupling,
        min_eig_single=float(np.min(np.linalg.eigvalsh(0.5 * (diff_s + diff_s.conj().T)))),
        min_eig_coupling=float(np.min(np.linalg.eigvalsh(0.5 * (diff_c + diff_c.conj().T)))),
        woodbury_residual=residual,
    )
