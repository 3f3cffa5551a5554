"""First-quantization extension: Bogoliubov frames, exact operator algebra
between normal-ordered mode monomials and symmetrized quadrature monomials,
the frame-mismatch signal oracle, and the outer bisection search that recovers
the physical frame together with the quadrature-basis coefficients.

The algebra is exact and needs only rationals: with P~ = iP, every entry of
the transformation matrix T is i^k c 2^{-(p+q)/2} (m w)^{(j-k)/2} with c a
Fraction that boson_mul derives, so T carries no numerical drift and its
conditioning is purely a design property.  build_T rounds each entry once to
the nearest double, in exact fractions or 60-digit decimals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .device import SimulatedDevice
from .protocol import LearnedCoefficients, RpeConfig, derive_config, learn_single_mode, measure_coefficient
from .recovery import single_mode_pipeline

U_FEASIBLE_MAX = 1.0 / (4.0 - 2.0 * math.sqrt(3.0))
# cosh(R_FEASIBLE_MAX) = U_FEASIBLE_MAX, so a bracket edge r is feasible iff
# |r| < R_FEASIBLE_MAX: a test that needs no cosh, which overflows past |r| ~ 710
R_FEASIBLE_MAX = math.acosh(U_FEASIBLE_MAX)
# The frame search measures B†^2, whose coefficient vanishes exactly in the
# physical frame, under a coefficient prior |g| <= 2; frames are relative to
# the reference mass-frequency product m0w0 = 1.
SIGNAL_KEY = (2, 0)
G_MAX_PRIOR = 2.0


class FeasibilityError(ValueError):
    """Raised when a frame's vacuum overlap is too small for phase estimation."""


@dataclass(frozen=True)
class BogoliubovFrame:
    """Linear canonical map B = u b + v b† between two mode bases.

    signed_r = (1/2) ln(m0w0 / mw) carries the branch: u = cosh(signed_r),
    v = sinh(signed_r), and phi = pi exactly when the ratio exceeds 1.
    """

    m0w0: float
    mw: float

    def __post_init__(self) -> None:
        if self.m0w0 <= 0 or self.mw <= 0:
            raise ValueError("mass-frequency products must be positive")

    @property
    def ratio(self) -> float:
        return self.m0w0 / self.mw

    @property
    def signed_r(self) -> float:
        return 0.5 * math.log(self.ratio)

    @property
    def phi(self) -> float:
        return math.pi if self.ratio > 1.0 else 0.0

    @property
    def u(self) -> float:
        return math.cosh(self.signed_r)

    @property
    def v(self) -> float:
        return math.sinh(self.signed_r)

    @property
    def squeeze_z(self) -> float:
        """Squeezing parameter realizing B = S(z)† b S(z)."""
        return -self.signed_r


def frame_from_ratio(m0w0: float, mw: float) -> BogoliubovFrame:
    return BogoliubovFrame(m0w0=m0w0, mw=mw)


def frame_from_signed_r(signed_r: float) -> BogoliubovFrame:
    return BogoliubovFrame(m0w0=1.0, mw=math.exp(-2.0 * signed_r))


def overlap_feasible(u: float) -> bool:
    """True iff the vacuum overlap 1/u stays above the phase-estimation floor."""
    return u < U_FEASIBLE_MAX


# ---------------------------------------------------------------------------
# Exact ordered algebra.  A polynomial is a dict keyed by (n, m) for L^n R^m,
# with every L left of every R and [R, L] = c: (p, q) for B†^p B^q with
# [B, B†] = 1, and (j, k) for X^j P~^k with P~ = iP and [P~, X] = 1.


def boson_mul(a: dict, b: dict, c=1) -> dict:
    """Product of two ordered polynomials, reordered with
    R^m L^n = sum_s C(m,s) C(n,s) s! c^s L^(n-s) R^(m-s)."""
    out: dict = {}
    for (n1, m1), c1 in a.items():
        for (n2, m2), c2 in b.items():
            for s in range(min(m1, n2) + 1):
                coeff = c1 * c2 * math.comb(m1, s) * math.comb(n2, s) * math.factorial(s) * c**s
                key = (n1 + n2 - s, m1 + m2 - s)
                out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v != 0}


def _ordered_product(factors: list[dict], c=1) -> dict:
    """Left-to-right product of factors under boson_mul, from the identity."""
    return functools.reduce(lambda acc, f: boson_mul(acc, f, c), factors, {(0, 0): 1})


def _xp_to_symmetrized(normal: dict) -> dict:
    """Rewrite an X P~ normal-form polynomial, P~ = iP and [P~, X] = 1, over
    symmetrized monomials {X^j P~^k}_S = (X^j P~^k + P~^k X^j)/2, in exact
    rationals."""
    work = {key: Fraction(v) for key, v in normal.items()}
    sym: dict = {}
    while work:
        j, k = max(work, key=lambda t: (t[0] + t[1], t))
        # the expansion below only reaches lower degrees, so each key is popped once
        c = sym[(j, k)] = work.pop((j, k))
        for key, a_s in boson_mul({(0, k): 1}, {(j, 0): 1}).items():
            if key != (j, k):
                work[key] = work.get(key, 0) - c * a_s / 2
    return {key: v for key, v in sym.items() if v != 0}


# ---------------------------------------------------------------------------
# Transformation matrix between measured normal-ordered coefficients and
# physical symmetrized-quadrature coefficients.


def _degree_keys(d: int) -> list[tuple[int, int]]:
    """Index pairs (p, q) with p + q <= d, by total degree, then by p."""
    return [(p, l - p) for l in range(d + 1) for p in range(l + 1)]


@dataclass
class TransformT:
    """Exact map G_{j,k} = sum_{p,q} g'_{p,q} T_{(p,q),(j,k)}, rows and columns
    both indexed by keys, at a mass-frequency product for the quadrature rescaling."""

    degree: int
    mass_omega: float
    keys: list[tuple[int, int]]
    matrix: np.ndarray
    sigma_min: float

    def transform(self, gprime: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
        vec = np.array([gprime.get(k, 0.0) for k in self.keys], dtype=complex)
        out = vec @ self.matrix
        return dict(zip(self.keys, (complex(x) for x in out)))


@functools.lru_cache(maxsize=8)
def _exact_entries(d: int) -> tuple[tuple[int, int, Fraction, int, int], ...]:
    """The nonzero entries (row, col, c, j, k) of build_T before its
    quadrature rescaling: entry (row (p, q), column (j, k)) is
    i^k c 2^{-(p+q)/2} with c rational.  Only the rescaling depends on the
    frame, so the algebra runs once per degree; the entries are a tuple of
    immutable values, so no caller can change what a later build_T reads.

    With P~ = iP, B† = (X - P~)/sqrt(2) and B = (X + P~)/sqrt(2), so
    (B†)^p B^q is 2^{-(p+q)/2} times a polynomial in X and P~ with integer
    coefficients, and {X^j P~^k}_S = i^k {X^j P^k}_S.
    """
    keys = _degree_keys(d)
    col_index = {key: i for i, key in enumerate(keys)}
    bdag, b = {(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1}
    return tuple(
        (i, col_index[(j, k)], c, j, k)
        for i, (p, q) in enumerate(keys)
        for (j, k), c in _xp_to_symmetrized(_ordered_product([bdag] * p + [b] * q)).items()
    )


def _rounded(c: Fraction, radicand: Fraction) -> float:
    """The double nearest c sqrt(radicand), ties to even.

    A rational value (radicand a square of rationals) is rounded once from
    its exact Fraction: a product such as -3/4 mw can fall exactly halfway
    between two doubles.  The rest are irrational, never ties, and a 60-digit
    Decimal is far closer to them than half a double's step, so float() of it
    rounds correctly too.
    """
    num, den = math.isqrt(radicand.numerator), math.isqrt(radicand.denominator)
    if num * num == radicand.numerator and den * den == radicand.denominator:
        return float(c * Fraction(num, den))
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(radicand.numerator) / radicand.denominator).sqrt()
        return float(Decimal(c.numerator) / c.denominator * root)


def build_T(d: int, mass_omega: float = 1.0) -> TransformT:
    """The normal-to-symmetrized map for 0 <= p+q <= d, with the quadrature
    rescaling {X^j P^k}_S = (m w)^{(j-k)/2} {x^j p^k}_S.

    Entry ((p, q), (j, k)) is i^k c sqrt(2^{-(p+q)} (m w)^{j-k}), c the
    rational of _exact_entries: real for even k and imaginary for odd k, with
    sign (-1)^floor(k/2).  Each is rounded once to the nearest double
    (_rounded), so the matrix is the correctly rounded one: bit for bit what
    a symbolic evaluation of oracles.normal_to_symmetrized gives.
    """
    keys = _degree_keys(d)
    mw = Fraction(mass_omega)
    mat = np.zeros((len(keys), len(keys)), dtype=complex)
    for i, col, c, j, k in _exact_entries(d):
        value = _rounded(-c if k % 4 > 1 else c, mw ** (j - k) / 2 ** sum(keys[i]))
        mat[i, col] = complex(0.0, value) if k % 2 else value
    sigma_min = float(np.linalg.svd(mat, compute_uv=False)[-1])
    if sigma_min <= 1e-12:
        raise np.linalg.LinAlgError("transformation matrix is rank deficient")
    return TransformT(degree=d, mass_omega=mass_omega, keys=keys, matrix=mat, sigma_min=sigma_min)


def _per_axis(tensor: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """Contract axis m of tensor with the rows of mats[m], for every m."""
    for m, mat in enumerate(mats):
        tensor = np.moveaxis(np.tensordot(tensor, mat, ([m], [0])), -1, m)
    return tensor


def tensor_transform(
    learned: LearnedCoefficients,
    transforms: tuple[TransformT, ...],
    identity_var: float,
    frame_eps: tuple[float, ...] = (),
) -> tuple[dict, dict]:
    """Physical coefficients and standard errors over len(transforms) modes.

    The learned coefficients fill a tensor indexed by each mode's normal keys
    (p, q): the identity offset at the origin, a single at (0, 0) on every
    other mode, a coupling at its own per-mode keys.  Mode m's exact
    transform acts on axis m, and variances go through |T|^2 the same way.
    Keys are tuples of per-mode (j, k), one per entry that some learned
    coefficient reaches through nonzero transform entries.  frame_eps gives
    each mode's residual frame uncertainty, propagated into the standard
    errors through the quadrature rescaling (mw)^{(j-k)/2} and the exact
    mixing derivative under a small leftover mismatch.
    """
    index = [{key: i for i, key in enumerate(t.keys)} for t in transforms]
    shape = tuple(len(t.keys) for t in transforms)
    g = np.zeros(shape, dtype=complex)
    var = np.zeros(shape)
    support = np.zeros(shape)
    origin = tuple(idx[(0, 0)] for idx in index)
    g[origin], var[origin], support[origin] = learned.identity_offset, identity_var, 1.0
    for key, value in learned.estimates.items():
        pq = [(0, 0)] * len(transforms)
        for m, p, q in zip(key.modes, key.p, key.q):
            pq[m] = (p, q)
        at = tuple(idx[k] for idx, k in zip(index, pq))
        g[at], var[at], support[at] = value, learned.stderr.get(key, 0.0) ** 2, 1.0

    mats = [t.matrix for t in transforms]
    g_phys = _per_axis(g, mats)
    var_phys = _per_axis(var, [np.abs(mat) ** 2 for mat in mats])
    reached = _per_axis(support, [(mat != 0).astype(float) for mat in mats]) > 0
    for m, eps in enumerate(frame_eps):
        if not eps:
            continue
        t = transforms[m]
        deriv = np.zeros((len(t.keys),) * 2)
        for row, key in enumerate(t.keys):
            for out_key, c in mismatch_derivative({key: 1.0}).items():
                deriv[row, index[m][out_key]] = c
        mix = _per_axis(g, mats[:m] + [deriv @ t.matrix] + mats[m + 1 :])
        along_m = [len(t.keys) if a == m else 1 for a in range(len(transforms))]
        rescale = np.array([abs(j - k) for j, k in t.keys]).reshape(along_m)
        var_phys += (eps * (rescale * np.abs(g_phys) + np.abs(mix))) ** 2

    out: dict = {}
    stderr: dict = {}
    for at in zip(*np.nonzero(reached)):
        key = tuple(t.keys[i] for t, i in zip(transforms, at))
        out[key] = complex(g_phys[at])
        stderr[key] = math.sqrt(var_phys[at])
    return out, stderr


# ---------------------------------------------------------------------------
# Signal function and the outer search.


def _frame_vector(modes: int, mode: int, r_prime: float, others: dict[int, float] | None):
    z = [0j] * modes
    z[mode] = complex(-r_prime)
    if others:
        for m, r in others.items():
            if m != mode:
                z[m] = complex(-r)
    return tuple(z)


def signal_measure(
    device: SimulatedDevice,
    r_prime: float,
    cfg: RpeConfig,
    d: int = 2,
    mode: int = 0,
    other_frames: dict[int, float] | None = None,
    token: str = "signal",
) -> tuple[float, float, dict]:
    """The frame signal at r_prime: the real part of the B†^2 coefficient,
    which vanishes in the physical frame, with its standard error and the
    measurement diagnostics.

    The coefficient is read from its own row of the order-d recovery map
    (protocol.measure_coefficient): only the 3(d+1) grid points of the
    order-2 canonical angles go to the device, and no offset run.
    """
    frame_z = _frame_vector(device.cutoff.modes, mode, r_prime, other_frames)
    value, stderr, diagnostics = measure_coefficient(
        device, d, SIGNAL_KEY, cfg, mode=mode, frame_z=frame_z, token=token
    )
    return value.real, stderr, diagnostics


@dataclass
class BisectionResult:
    """The search's frame estimate, its steps, its final window width (above
    eps_r only if k_cap ended it), and its own ledger cost: time_cost and
    shot_count are the evolution time and shots it charged."""

    r_hat: float
    iterations: int
    evaluations: int
    history: list[tuple[float, float, float]]
    width: float
    k_hat: float
    eps_r: float
    time_cost: float
    shot_count: int


def mismatch_derivative(
    terms: dict[tuple[int, int], complex],
) -> dict[tuple[int, int], complex]:
    """d/d(delta_r) of oracles.conjugate_spec_by_mismatch at delta_r = 0, exactly.

    At delta_r = 0, dB/d(delta_r) = B† and dB†/d(delta_r) = B; substituting
    one factor at a time and normal ordering gives
    d(p,q) = p (p-1,q+1) + C(p,2) (p-2,q) + q (p+1,q-1) + C(q,2) (p,q-2).
    Used to propagate residual frame uncertainty into standard errors.
    """
    out: dict[tuple[int, int], complex] = {}
    for (p, q), g in terms.items():
        for key, n in (
            ((p - 1, q + 1), p),
            ((p - 2, q), math.comb(p, 2)),
            ((p + 1, q - 1), q),
            ((p, q - 2), math.comb(q, 2)),
        ):
            if n:
                out[key] = out.get(key, 0.0) + n * g
    return out


def _noiseless_config(d: int, modes: int) -> RpeConfig:
    """Exact-channel schedule for every search stage and final learn on `modes` modes."""
    return derive_config(d, g_max=G_MAX_PRIOR, k_max=10, shots=None, l_steps=None, modes=modes)


@functools.lru_cache(maxsize=32, typed=True)
def _shot_config(d: int, shots: int) -> RpeConfig:
    """The shot-channel schedule every search stage re-validates at its own
    depth; RpeConfig is frozen, so one derivation serves every evaluation."""
    return derive_config(d, g_max=G_MAX_PRIOR, k_max=4, shots=shots, l_steps=None)


def _cfg_for_precision(
    eps_coeff: float,
    row_norm: float,
    d: int,
    shots: int | None,
    k_cap: int,
) -> RpeConfig:
    """Smallest RPE depth whose predicted coefficient error meets eps_coeff;
    with shots = None, the exact-channel schedule.  t0, c_bound and h_scale
    do not depend on the depth, so one derived config is re-validated at it."""
    if shots is None:
        return _noiseless_config(d, 1)
    base = _shot_config(d, shots)
    eps_c_target = eps_coeff / row_norm
    k = math.ceil(math.log2(1.0 / (eps_c_target * base.t0 * math.sqrt(shots))))
    return replace(base, k_max=min(max(k, 4), k_cap))


def _plan_final_learn(
    eps_coeff: float,
    row_norm: float,
    d: int,
    shots: int | None,
    k_cap: int,
) -> RpeConfig:
    """The final learn's (K, M): K is _cfg_for_precision's depth at the
    caller's shots, and M the fewest shots, at least 20, whose predicted
    error 1/(2^K t0 sqrt(M)) meets eps_coeff at that depth.

    A run costs about 2 M (2^(K+1) - 1) t0, so below k_cap, where the
    caller's shots already meet the target, M is no more than them and the
    run no dearer; at K = k_cap M rises above them, so the learn meets its
    target instead of missing it.
    """
    cfg = _cfg_for_precision(eps_coeff, row_norm, d, shots, k_cap)
    if shots is None:
        return cfg
    m = math.ceil((row_norm / (eps_coeff * 2**cfg.k_max * cfg.t0)) ** 2)
    return replace(cfg, shots=max(20, m))


def _check_eps_r(eps_r: float, lo: float, hi: float) -> None:
    """A search down to width eps_r ends only if eps_r is finite and wider than
    a few float steps at the bracket edges: at zero, a negative width or one
    below that spacing it never ends, and at NaN it ends before searching."""
    if not (math.isfinite(eps_r) and eps_r > 8 * math.ulp(max(abs(lo), abs(hi)))):
        raise ValueError(f"eps_r must be finite and above the bracket's float spacing, got {eps_r}")


def bisection_search(
    device: SimulatedDevice,
    bracket: tuple[float, float],
    eps_r: float | None = None,
    eps_g: float | None = None,
    d: int = 2,
    mode: int = 0,
    other_frames: dict[int, float] | None = None,
    shots: int | None = 200,
    k_cap: int = 12,
    token: str = "bisect",
) -> BisectionResult:
    """Bisection over the signed frame parameter driven by the signal sign.

    The bracket endpoints must give opposite, significant signal signs; their
    secant slope k_hat converts eps_g into eps_r and sets each step's target
    standard error, se = |k_hat| (hi - lo) / 12.  A step whose midpoint signal
    f has |f| > 3 se keeps the half its sign points to; otherwise it keeps the
    window's overlap with mid - f / k_hat +- 3 se / |k_hat|.  Either way the
    window at least halves, until it is no wider than eps_r or a step whose
    depth k_cap capped misses its target; r_hat is the window's centre.  Each
    evaluation is one signal_measure: 3(d+1) RPE runs at the depth its target
    needs.  shots = None reads the exact channel, where se = 0 and only an
    exact zero is ambiguous.  The result carries the search's own evolution
    time and shots, the growth of the device ledger over the call.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    for edge in (lo, hi):
        if not abs(edge) < R_FEASIBLE_MAX:
            raise FeasibilityError(
                f"bracket edge {edge} gives u = cosh({edge}) >= {U_FEASIBLE_MAX:.4f}"
            )
    if d < 2:
        raise ValueError(f"the frame signal is the B†^2 coefficient, so d must be >= 2, got {d}")
    if eps_r is None and eps_g is None:
        raise ValueError("provide eps_r or eps_g")
    if eps_g is not None and not (math.isfinite(eps_g) and eps_g > 0):
        raise ValueError(f"eps_g must be finite and > 0, got {eps_g}")
    if eps_r is not None:
        _check_eps_r(eps_r, lo, hi)
    row_norm = single_mode_pipeline(d).coefficient_row(SIGNAL_KEY).norm
    start = device.ledger()
    history: list[tuple[float, float, float]] = []
    evaluations = 0

    def measure(r_prime: float, eps_target: float) -> tuple[float, float, bool]:
        nonlocal evaluations
        cfg = _cfg_for_precision(eps_target, row_norm, d, shots, k_cap)
        evaluations += 1
        f, se, _ = signal_measure(
            device,
            r_prime,
            cfg,
            d=d,
            mode=mode,
            other_frames=other_frames,
            token=f"{token}:e{evaluations}",
        )
        history.append((r_prime, f, se))
        # below k_cap se meets its target, but for a rounding either way
        return f, se, cfg.k_max == k_cap and se > eps_target

    width = hi - lo
    coarse = max(width / 6.0, eps_r or 0.0, (eps_g or 0.0))
    f_lo, se_lo, _ = measure(lo, coarse)
    f_hi, se_hi, _ = measure(hi, coarse)
    if abs(f_lo) <= 3 * se_lo:
        f_lo, se_lo, _ = measure(lo, max(abs(f_lo), se_lo) / 6.0)
    if abs(f_hi) <= 3 * se_hi:
        f_hi, se_hi, _ = measure(hi, max(abs(f_hi), se_hi) / 6.0)
    if f_lo * f_hi >= 0:
        raise ValueError("bracket endpoints must give opposite signal signs")
    if abs(f_lo) <= 3 * se_lo or abs(f_hi) <= 3 * se_hi:
        raise ValueError("endpoint signals are not significant at 3 standard errors")
    k_hat = (f_hi - f_lo) / (hi - lo)
    if eps_r is None:
        eps_r = eps_g / max(abs(k_hat), 1e-6)
        _check_eps_r(eps_r, lo, hi)

    iterations = 0
    while hi - lo > eps_r:
        mid = 0.5 * (lo + hi)
        eps_target = abs(k_hat) * (hi - lo) / 12.0
        f_mid, se_mid, capped = measure(mid, eps_target)
        if abs(f_mid) > 3 * se_mid:
            if math.copysign(1.0, f_mid) == math.copysign(1.0, k_hat):
                hi = mid
            else:
                lo = mid
        else:
            root, reach = mid - f_mid / k_hat, 3 * se_mid / abs(k_hat)
            lo, hi = max(lo, root - reach), min(hi, root + reach)
        iterations += 1
        if capped:  # so would every later, finer step: the window stops halving
            break
    r_hat = 0.5 * (lo + hi)
    end = device.ledger()
    return BisectionResult(
        r_hat=r_hat,
        iterations=iterations,
        evaluations=evaluations,
        history=history,
        width=hi - lo,
        k_hat=k_hat,
        eps_r=eps_r,
        time_cost=end.total_evolution_time - start.total_evolution_time,
        shot_count=end.shot_count - start.shot_count,
    )


@dataclass
class FirstQResult:
    r_hat: float
    mw_hat: float
    g_physical: dict[tuple[int, int], complex]
    stderr: dict[tuple[int, int], float]
    gprime: LearnedCoefficients
    bisection: BisectionResult
    time_cost: float


def learn_firstq(
    device: SimulatedDevice,
    d: int,
    eps_g: float,
    bracket: tuple[float, float],
    shots: int | None = 200,
    k_cap: int = 13,
    token: str = "firstq",
) -> FirstQResult:
    """Full first-quantization pipeline: feasibility gate, bisection over the
    frame parameter, final coefficient learn in the converged frame, and the
    exact transform to symmetrized-quadrature coefficients.  shots = None runs
    every stage on the exact channel.

    The search measures every evaluation with the caller's shots.  The final
    learn plans its depth K and its shots M together (_plan_final_learn): K
    as the search would plan it, then the fewest shots that meet the target
    eps_g sigma_min(T) at that depth.  Below k_cap M is at most the caller's
    shots, and at K = k_cap it may be more.  gprime.diagnostics gives the
    planned k_max and shots, the predicted coefficient error predicted_eps
    (at most the target), and k_capped: K hit k_cap and M went above the
    caller's shots to meet the target.

    Planning the search's M the same way saved only 8% more evolution time
    on the benchmark's firstq_search config.  It also broke the search:
    2 of 1,500 seeded searches raised "endpoint signals are not significant",
    since the endpoint retry's target max(|f|, se)/6 is too coarse when se
    is near its target.  A finer retry target cost 1.2 more evaluations
    per search, and moved one of twelve seeded ratio-1.3 acceptance test 8
    slopes out of its band.  So the search keeps the caller's shots.

    A planner that minimises the predicted time outright, the deepest
    K <= k_cap with M >= 20, was measured on a prototype too.  Over 200
    seeds of the firstq_search config it cut the search's evolution time
    from 3.18e8 to 2.10e8 and the total from 6.26e8 to 5.18e8.  But test 8's
    slopes read -1.29/-1.36 with both stages so planned, and -1.10/-1.26
    with the search alone: its fine end sits at k_cap 18, where M, and so
    the time, grows as 1/eps^2.  Its one-shot endpoint retry raised
    "endpoint signals are not significant" in 4 of 4,000 ops (0 of 4,000
    once the retry looped)."""
    start = device.ledger().total_evolution_time
    bis = bisection_search(
        device,
        bracket,
        eps_g=eps_g,
        d=d,
        shots=shots,
        k_cap=k_cap,
        token=f"{token}:b",
    )
    mw_hat = math.exp(-2.0 * bis.r_hat)
    t = build_T(d, mass_omega=mw_hat)
    row_norm = single_mode_pipeline(d).coefficient_row(SIGNAL_KEY).norm
    target = eps_g * t.sigma_min
    cfg = _plan_final_learn(target, row_norm, d, shots, k_cap)
    learned = learn_single_mode(
        device,
        d,
        cfg,
        frame_z=_frame_vector(device.cutoff.modes, 0, bis.r_hat, None),
        subtract_offset=True,
        token=f"{token}:f",
    )
    capped = cfg.k_max == k_cap and shots is not None and cfg.shots > shots
    learned.diagnostics.update(
        k_max=cfg.k_max,
        shots=cfg.shots,
        predicted_eps=cfg.predicted_eps_c * row_norm,
        k_capped=capped,
    )
    g_phys, stderr = tensor_transform(learned, (t,), cfg.predicted_eps_c**2, (bis.eps_r,))
    return FirstQResult(
        r_hat=bis.r_hat,
        mw_hat=mw_hat,
        g_physical={jk: v for (jk,), v in g_phys.items()},
        stderr={jk: v for (jk,), v in stderr.items()},
        gprime=learned,
        bisection=bis,
        time_cost=device.ledger().total_evolution_time - start,
    )


# ---------------------------------------------------------------------------
# Two-mode parallel search.


@dataclass
class TwoModeResult:
    r_hats: tuple[float, float]
    g_physical: dict
    stderr: dict
    learned: LearnedCoefficients
    bisections: tuple[BisectionResult, BisectionResult]
    time_cost: float


def parallel_two_mode_search(
    device: SimulatedDevice,
    brackets: tuple[tuple[float, float], tuple[float, float]],
    eps_r: float,
    d: int = 2,
    shots: int | None = 200,
    k_cap: int = 12,
    token: str = "par2",
) -> TwoModeResult:
    """Independent per-mode frame searches under mode isolation, followed by a
    hierarchical coefficient learn in the converged joint frame and the exact
    transform of every single and coupling coefficient."""
    from .protocol import learn_multimode_hierarchical

    start = device.ledger().total_evolution_time
    centers = [0.5 * (b[0] + b[1]) for b in brackets]
    results = []
    for m in (0, 1):
        others = {1 - m: results[0].r_hat if m == 1 else centers[1 - m]}
        results.append(
            bisection_search(
                device,
                brackets[m],
                eps_r=eps_r,
                d=d,
                mode=m,
                other_frames=others,
                shots=shots,
                k_cap=k_cap,
                token=f"{token}:m{m}",
            )
        )
    r_hats = (results[0].r_hat, results[1].r_hat)
    if shots is None:
        cfg = _noiseless_config(d, 2)
    else:
        cfg = derive_config(d, g_max=G_MAX_PRIOR, k_max=k_cap, shots=shots, l_steps=None, modes=2)
    learned = learn_multimode_hierarchical(
        device,
        2,
        d,
        cfg,
        frame_z=(complex(-r_hats[0]), complex(-r_hats[1])),
        subtract_offset=True,
        token=f"{token}:h",
    )
    transforms = (
        build_T(d, mass_omega=math.exp(-2.0 * r_hats[0])),
        build_T(d, mass_omega=math.exp(-2.0 * r_hats[1])),
    )
    g_phys, stderr = tensor_transform(
        learned,
        transforms,
        cfg.predicted_eps_c**2,
        frame_eps=(results[0].eps_r, results[1].eps_r),
    )
    return TwoModeResult(
        r_hats=r_hats,
        g_physical=g_phys,
        stderr=stderr,
        learned=learned,
        bisections=(results[0], results[1]),
        time_cost=device.ledger().total_evolution_time - start,
    )
