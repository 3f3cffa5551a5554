"""Classical linear algebra of the coefficient-recovery pipeline.

Chebyshev radial interpolation, angular inverse DFT, covariance prediction,
the Lipschitz/SPAM bound, the multi-mode coupling fit, and the
hierarchical-vs-simultaneous covariance ordering check.  Everything here is a
pure function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

COND_WARN = 1e8


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
    gram: np.ndarray
    pinv: np.ndarray
    cond: float

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gram)


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
    gram = vand.T @ vand
    return RadialDesign(
        degree=degree,
        r_min=r_min,
        r_max=r_max,
        nodes=nodes,
        vandermonde=vand,
        gram=gram,
        pinv=np.linalg.pinv(vand),
        cond=float(np.linalg.cond(vand)),
    )


def radial_fit(design: RadialDesign, c_values: np.ndarray) -> np.ndarray:
    """Least-squares solution g_l, l = 1..d, from C values at the design nodes.

    c_values may be (d+1,) or (d+1, batch).
    """
    c_values = np.asarray(c_values)
    if c_values.shape[0] != design.degree + 1:
        raise ValueError("c_values not aligned with design nodes")
    if design.cond > COND_WARN:
        import warnings

        warnings.warn(f"radial Vandermonde condition number {design.cond:.2e}", stacklevel=2)
    return design.pinv @ c_values


def angular_angles(order: int) -> list[Fraction]:
    """Canonical angles theta_{u,l} = pi*u/(l+1), as exact fractions of pi."""
    return [Fraction(u, order + 1) for u in range(order + 1)]


def angular_idft(values: np.ndarray, order: int, symmetrize: bool = True) -> dict[tuple[int, int], complex]:
    """Invert g_l(theta_u) -> {g_{p, l-p}} at the canonical l+1 angles.

    Applies g_{p,l-p} = (1/(l+1)) sum_u e^{-i l theta_u} g_l(theta_u) e^{2 pi i p u/(l+1)},
    then restores exact Hermitian pairing by averaging each coefficient with
    the conjugate of its partner.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (order + 1,):
        raise ValueError(f"need exactly {order + 1} values for order {order}")
    l = order
    u = np.arange(l + 1)
    theta = np.pi * u / (l + 1)
    out: dict[tuple[int, int], complex] = {}
    for p in range(l + 1):
        out[(p, l - p)] = complex(
            np.sum(np.exp(-1j * l * theta) * values * np.exp(2j * np.pi * p * u / (l + 1))) / (l + 1)
        )
    if symmetrize:
        sym = {}
        for (p, q), v in out.items():
            sym[(p, q)] = 0.5 * (v + np.conj(out[(q, p)]))
        out = sym
    return out


@dataclass(frozen=True)
class SingleModePipeline:
    """Materialized two-stage recovery map for one mode at max order d.

    points lists the (r, theta) measurement grid; kplus maps the stacked real
    C-measurement vector (ordered as points) to the complex coefficient vector
    (ordered as coeff_keys), including the Hermitian symmetrization.
    """

    degree: int
    design: RadialDesign
    angle_fracs: tuple[Fraction, ...]
    points: tuple[tuple[float, float], ...]
    coeff_keys: tuple[tuple[int, int], ...]
    kplus: np.ndarray
    sigma_min: float

    def solve(self, c_values: np.ndarray) -> dict[tuple[int, int], complex]:
        g = self.kplus @ np.asarray(c_values, dtype=float)
        return dict(zip(self.coeff_keys, (complex(x) for x in g)))

    def coefficient_variances(self, eps_c: float) -> dict[tuple[int, int], float]:
        """Total (real+imag) variance per coefficient under iid C-noise eps_c^2."""
        cov_diag = eps_c**2 * np.sum(np.abs(self.kplus) ** 2, axis=1)
        return dict(zip(self.coeff_keys, cov_diag.astype(float)))


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
    for array in (kplus, design.nodes, design.vandermonde, design.gram, design.pinv):
        array.setflags(write=False)
    return SingleModePipeline(
        degree=degree,
        design=design,
        angle_fracs=tuple(fracs),
        points=tuple(points),
        coeff_keys=tuple(coeff_keys),
        kplus=kplus,
        sigma_min=1.0 / sigma_max_plus,
    )


@dataclass
class CovarianceReport:
    eps_c: float
    radial_cov: np.ndarray
    idft_cov: dict[int, np.ndarray]
    order_mse: dict[int, float]
    gram_eigenvalues: np.ndarray
    inverse_eigenvalue_sum: float


def predict_covariance(design: RadialDesign, eps_c: float) -> CovarianceReport:
    """Propagate iid C-noise through both recovery stages.

    radial_cov = eps_c^2 (L†L)^-1; per order l the inverse DFT gives
    Cov(g_{p,l-p}) = F_l^-1 Cov(g_l) F_l^-† and the trace identity
    tr Cov = (1/(l+1)) sum_u Var(g_l(theta_u)).
    """
    gram_inv = np.linalg.inv(design.gram)
    radial_cov = eps_c**2 * gram_inv
    lam = np.linalg.eigvalsh(design.gram)
    if np.min(lam) <= 0:
        raise np.linalg.LinAlgError("Gram matrix is singular")
    idft_cov: dict[int, np.ndarray] = {}
    order_mse: dict[int, float] = {}
    for l in range(1, design.degree + 1):
        var_l = radial_cov[l - 1, l - 1]
        u = np.arange(l + 1)
        theta = np.pi * u / (l + 1)
        finv = np.array(
            [
                np.exp(-1j * l * theta) * np.exp(2j * np.pi * p * u / (l + 1)) / (l + 1)
                for p in range(l + 1)
            ]
        )
        cov = finv @ (var_l * np.eye(l + 1)) @ finv.conj().T
        idft_cov[l] = cov
        order_mse[l] = float(np.real(np.trace(cov)))
    return CovarianceReport(
        eps_c=eps_c,
        radial_cov=radial_cov,
        idft_cov=idft_cov,
        order_mse=order_mse,
        gram_eigenvalues=lam,
        inverse_eigenvalue_sum=float(np.sum(1.0 / lam)),
    )


def lipschitz_bound(degree: int, r_max: float, order_sums: dict[int, float] | None = None,
                    order_weighted_sums: dict[int, float] | None = None) -> float:
    """Upper bound on sup ||grad C(r, theta)||_2 over the displacement disk.

    Radial part: sum_l l r_max^{l-1} (sum_{p+q=l} |g_{p,q}|).  Angular part
    uses sum_{p+q=l} |g_{p,q}| |q-p| with the same l r_max^{l-1} weight (a
    concrete, conservative version of the order-l^2 estimate).  With
    unit-bounded coefficients the radial part reduces to sum l(l+1) r_max^{l-1}.
    """
    if order_sums is None:
        order_sums = {l: float(l + 1) for l in range(1, degree + 1)}
    if order_weighted_sums is None:
        # |q-p| <= l; unit coefficients give sum |g||q-p| <= sum over p of |l-2p|
        order_weighted_sums = {
            l: float(sum(abs(l - 2 * p) for p in range(l + 1))) for l in range(1, degree + 1)
        }
    radial = sum(l * r_max ** (l - 1) * order_sums.get(l, 0.0) for l in range(1, degree + 1))
    angular = sum(
        l * r_max ** (l - 1) * order_weighted_sums.get(l, 0.0) for l in range(1, degree + 1)
    )
    return float(math.hypot(radial, angular))


def coefficient_order_sums(coeffs: dict[tuple[int, int], complex]) -> tuple[dict[int, float], dict[int, float]]:
    """Per-order sums of |g| and |g||q-p| for lipschitz_bound."""
    sums: dict[int, float] = {}
    weighted: dict[int, float] = {}
    for (p, q), g in coeffs.items():
        l = p + q
        sums[l] = sums.get(l, 0.0) + abs(g)
        weighted[l] = weighted.get(l, 0.0) + abs(g) * abs(q - p)
    return sums, weighted


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


def _monomial(key, beta: np.ndarray) -> complex:
    val = 1.0 + 0.0j
    for mode, p, q in zip(key.modes, key.p, key.q):
        val *= np.conj(beta[mode]) ** p * beta[mode] ** q
    return val


def real_design_matrix(points: np.ndarray, params: list[tuple]) -> np.ndarray:
    """Design matrix of real C contributions for the real parameterization.

    A canonical key k with coefficient c = a + ib contributes
    2 Re(c m_k(beta)) when paired, or a m_k(beta) when self-conjugate.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    cols = []
    for key, part in params:
        m = np.array([_monomial(key, b) for b in points])
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


@dataclass
class MultidimFit:
    params: list[tuple]
    estimates: dict
    design: np.ndarray
    sigma_min: float
    covariance: np.ndarray

    def coefficient_variances(self) -> dict:
        """Total variance per complex coefficient (re + im parameters)."""
        out: dict = {}
        for i, (key, _) in enumerate(self.params):
            out[key] = out.get(key, 0.0) + float(self.covariance[i, i])
        full = {}
        for key, v in out.items():
            full[key] = v
            full[key.conjugate] = v
        return full


def multidim_fit(points: np.ndarray, residuals: np.ndarray, keys, eps_c: float = 0.0,
                 extra_cov: np.ndarray | None = None) -> MultidimFit:
    """Least-squares fit of coupling coefficients on single-mode-subtracted data.

    extra_cov, if given, is added to the eps_c^2 I measurement covariance
    (e.g. the propagated stage-1 subtraction noise).
    """
    params = real_parameters(keys)
    phi = real_design_matrix(points, params)
    sv = np.linalg.svd(phi, compute_uv=False)
    sigma_min = float(sv[-1]) if len(sv) else 0.0
    if sigma_min <= 0:
        raise np.linalg.LinAlgError("coupling design matrix is rank deficient")
    x, *_ = np.linalg.lstsq(phi, np.asarray(residuals, dtype=float), rcond=None)
    pinv = np.linalg.pinv(phi)
    meas_cov = eps_c**2 * np.eye(phi.shape[0])
    if extra_cov is not None:
        meas_cov = meas_cov + extra_cov
    cov = pinv @ meas_cov @ pinv.T
    return MultidimFit(
        params=params,
        estimates=params_to_coeffs(params, x),
        design=phi,
        sigma_min=sigma_min,
        covariance=cov,
    )


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
