"""First-quantization extension: Bogoliubov frames, exact operator algebra
between normal-ordered mode monomials and symmetrized quadrature monomials,
the frame-mismatch signal oracle, and the outer bisection search that recovers
the physical frame together with the quadrature-basis coefficients.

The algebra is exact: coefficients live in the ring generated by rationals,
i, and sqrt(2) (sympy expressions), so the transformation matrix T carries no
numerical drift and its conditioning is purely a design property.  build_T
derives a degree's entries in sympy once, as rationals a + b sqrt(2), and on
each call rescales them by (m w)^{(j-k)/2} in exact fractions or 60-digit
decimals, rounded once to the nearest double: the matrix sympy's own
evaluation gives, with no sympy call after the first per degree.  sympy is
imported inside the exact-algebra functions (normal_to_symmetrized,
_exact_entries and their helpers), so a process that never runs them never
loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .device import SimulatedDevice
from .hamiltonian import single_key
from .protocol import LearnedCoefficients, RpeConfig, derive_config, learn_single_mode
from .recovery import single_mode_pipeline

U_FEASIBLE_MAX = 1.0 / (4.0 - 2.0 * math.sqrt(3.0))
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
# [B, B†] = 1, and (j, k) for X^j P^k with [P, X] = -i.


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
    """Rewrite an XP normal-form polynomial over symmetrized monomials
    {X^j P^k}_S = (X^j P^k + P^k X^j)/2, exactly."""
    import sympy as sp

    work = {k: sp.expand(v) for k, v in normal.items()}
    sym: dict = {}
    while work:
        j, k = max(work, key=lambda t: (t[0] + t[1], t))
        c = work.pop((j, k))
        if c == 0:
            continue
        sym[(j, k)] = sym.get((j, k), sp.S.Zero) + c
        for key, a_s in boson_mul({(0, k): 1}, {(j, 0): 1}, -sp.I).items():
            if key != (j, k):
                work[key] = sp.expand(work.get(key, sp.S.Zero) - c * a_s / 2)
    return {k: sp.expand(v) for k, v in sym.items() if sp.expand(v) != 0}


def normal_to_symmetrized(p: int, q: int) -> dict[tuple[int, int], sp.Expr]:
    """(B†)^p B^q as an exact symmetrized-XP polynomial (identity included),
    with B = (X + iP)/sqrt(2)."""
    import sympy as sp

    root2 = sp.sqrt(2)
    bdag = {(1, 0): 1 / root2, (0, 1): -sp.I / root2}
    b = {(1, 0): 1 / root2, (0, 1): sp.I / root2}
    return _xp_to_symmetrized(_ordered_product([bdag] * p + [b] * q, -sp.I))


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
def _exact_entries(d: int) -> tuple[tuple[int, int, tuple, tuple, int], ...]:
    """The nonzero entries (row, col, re, im, n) of build_T before its
    quadrature rescaling by mw^(n/2), n = j - k.

    Entry (row (p, q), column (j, k)) is the exact normal_to_symmetrized
    coefficient, whose real and imaginary parts each lie in Q(sqrt(2)): re and
    im are the rational pairs (a, b) of a + b sqrt(2).  Only the rescaling
    depends on mass_omega, so the sympy algebra runs once per degree; the
    entries are tuples of Fractions, so no caller can change what a later
    build_T reads.
    """
    import sympy as sp

    root2 = sp.sqrt(2)

    def pair(part) -> tuple[Fraction, Fraction]:
        part = sp.expand(part)
        b = part.coeff(root2)
        a = sp.expand(part - b * root2)
        if not (a.is_Rational and b.is_Rational):
            raise ArithmeticError(f"{part} is not in Q(sqrt(2))")
        return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))

    keys = _degree_keys(d)
    col_index = {k: i for i, k in enumerate(keys)}
    return tuple(
        (i, col_index[(j, k)], *map(pair, expr.as_real_imag()), j - k)
        for i, (p, q) in enumerate(keys)
        for (j, k), expr in normal_to_symmetrized(p, q).items()
    )


def _exact_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) when it is rational, else None."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def _rescaled(a: Fraction, b: Fraction, n: int, mw: float) -> float:
    """The double nearest (a + b sqrt(2)) mw^(n/2), ties to even.

    A rational value is rounded once from its exact Fraction: a product such
    as -3/4 mw can fall exactly halfway between two doubles.  The rest are
    irrational, never ties, and a 60-digit Decimal is far closer to them than
    half a double's step, so float() of it rounds correctly too.
    """
    if not (a or b):
        return 0.0
    if not (a and b):
        coeff, radicand = (b, Fraction(2)) if b else (a, Fraction(1))
        if n % 2:
            radicand *= Fraction(mw)
        root = _exact_sqrt(radicand)
        if root is not None:
            return float(coeff * root * Fraction(mw) ** (n // 2))
    with localcontext() as ctx:
        ctx.prec = 60
        root2 = Decimal(2).sqrt()
        exact = Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / b.denominator * root2
        return float(exact * Decimal(mw).sqrt() ** n)


def build_T(d: int, mass_omega: float = 1.0) -> TransformT:
    """Stack normal_to_symmetrized rows for 0 <= p+q <= d and apply the
    quadrature rescaling {X^j P^k}_S = (m w)^{(j-k)/2} {x^j p^k}_S.

    The exact rows come from a per-degree cache (_exact_entries); each entry
    is rescaled in exact rational or 60-digit decimal arithmetic and rounded
    once to the nearest double (_rescaled), so the matrix is the correctly
    rounded one, which sympy's sp.N(expr * mw**e, 25) also gives, bit for
    bit, and no sympy call runs after the first per degree.
    """
    keys = _degree_keys(d)
    mat = np.zeros((len(keys), len(keys)), dtype=complex)
    for i, col, re, im, n in _exact_entries(d):
        mat[i, col] = complex(_rescaled(*re, n, mass_omega), _rescaled(*im, n, mass_omega))
    sv = np.linalg.svd(mat, compute_uv=False)
    sigma_min = float(sv[-1])
    if sigma_min <= 1e-12:
        raise np.linalg.LinAlgError("transformation matrix is rank deficient")
    return TransformT(
        degree=d,
        mass_omega=mass_omega,
        keys=keys,
        matrix=mat,
        sigma_min=sigma_min,
    )


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
) -> tuple[float, float, LearnedCoefficients]:
    """Learn the single-mode coefficients in the frame r_prime and return the
    real part of the designated ideally-zero coefficient with its predicted
    standard error."""
    frame_z = _frame_vector(device.cutoff.modes, mode, r_prime, other_frames)
    learned = learn_single_mode(
        device,
        d,
        cfg,
        mode=mode,
        frame_z=frame_z,
        subtract_offset=True,
        token=token,
    )
    key = single_key(*SIGNAL_KEY, mode)
    return float(learned.estimates[key].real), float(learned.stderr[key]), learned


@dataclass
class BisectionResult:
    r_hat: float
    iterations: int
    evaluations: int
    history: list[tuple[float, float, float]]
    fallback_used: bool
    k_hat: float
    eps_r: float = 0.0


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


def _signal_row_norm(d: int) -> float:
    pipe = single_mode_pipeline(d)
    row = pipe.kplus[pipe.coeff_keys.index(SIGNAL_KEY)]
    return float(np.sqrt(np.sum(np.abs(row) ** 2)))


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


def _golden_minimize(fn, lo: float, hi: float, tol: float) -> tuple[float, int]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d_pt = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d_pt)
    shrinks = 0
    while b - a > tol:
        if fc < fd:
            b, d_pt, fd = d_pt, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d_pt, fd
            d_pt = a + inv_phi * (b - a)
            fd = fn(d_pt)
        shrinks += 1
    return 0.5 * (a + b), shrinks


def _check_eps_r(eps_r: float, lo: float, hi: float) -> None:
    """Bisection and golden-section search down to width eps_r end only if
    eps_r is finite and wider than a few float steps at the bracket edges: at
    zero, a negative width or one below that spacing they never end, and at
    NaN they end before searching."""
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
    secant slope bootstraps the linear-response scale used both to convert
    eps_g into eps_r and to schedule the inner-learner precision per
    iteration.  A sign-ambiguous evaluation is retried once at higher
    precision, then the search falls back to golden-section minimization of
    the signal magnitude.  shots = None reads every signal from the exact
    channel, whose standard error is 0, so only an exact zero is ambiguous.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    for edge in (lo, hi):
        if not overlap_feasible(math.cosh(edge)):
            raise FeasibilityError(
                f"bracket edge {edge} gives u = {math.cosh(edge):.4f} >= {U_FEASIBLE_MAX:.4f}"
            )
    if eps_r is None and eps_g is None:
        raise ValueError("provide eps_r or eps_g")
    if eps_g is not None and not (math.isfinite(eps_g) and eps_g > 0):
        raise ValueError(f"eps_g must be finite and > 0, got {eps_g}")
    if eps_r is not None:
        _check_eps_r(eps_r, lo, hi)
    row_norm = _signal_row_norm(d)
    history: list[tuple[float, float, float]] = []
    evaluations = 0

    def measure(r_prime: float, eps_target: float) -> tuple[float, float]:
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
        return f, se

    width = hi - lo
    coarse = max(width / 6.0, eps_r or 0.0, (eps_g or 0.0))
    f_lo, se_lo = measure(lo, coarse)
    f_hi, se_hi = measure(hi, coarse)
    if abs(f_lo) <= 3 * se_lo:
        f_lo, se_lo = measure(lo, max(abs(f_lo), se_lo) / 6.0)
    if abs(f_hi) <= 3 * se_hi:
        f_hi, se_hi = measure(hi, max(abs(f_hi), se_hi) / 6.0)
    if f_lo * f_hi >= 0:
        raise ValueError("bracket endpoints must give opposite signal signs")
    if abs(f_lo) <= 3 * se_lo or abs(f_hi) <= 3 * se_hi:
        raise ValueError("endpoint signals are not significant at 3 standard errors")
    k_hat = (f_hi - f_lo) / (hi - lo)
    if eps_r is None:
        eps_r = eps_g / max(abs(k_hat), 1e-6)
        _check_eps_r(eps_r, lo, hi)
    sign_hi = math.copysign(1.0, f_hi)

    iterations = 0
    fallback = False
    while hi - lo > eps_r:
        mid = 0.5 * (lo + hi)
        eps_target = abs(k_hat) * (hi - lo) / 9.0
        f_mid, se_mid = measure(mid, eps_target)
        if abs(f_mid) <= 3 * se_mid:
            f_mid, se_mid = measure(mid, eps_target / 4.0)
        if abs(f_mid) <= 3 * se_mid:
            fallback = True
            break
        if math.copysign(1.0, f_mid) == sign_hi:
            hi = mid
        else:
            lo = mid
        iterations += 1

    if fallback:
        eps_target = abs(k_hat) * eps_r

        def objective(r_prime: float) -> float:
            f, _ = measure(r_prime, eps_target)
            return abs(f)

        r_hat, shrinks = _golden_minimize(objective, lo, hi, eps_r)
        iterations += shrinks
    else:
        r_hat = 0.5 * (lo + hi)
    return BisectionResult(
        r_hat=r_hat,
        iterations=iterations,
        evaluations=evaluations,
        history=history,
        fallback_used=fallback,
        k_hat=k_hat,
        eps_r=eps_r,
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
    every stage on the exact channel."""
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
    cfg = _cfg_for_precision(eps_g * t.sigma_min, _signal_row_norm(d), d, shots, k_cap)
    learned = learn_single_mode(
        device,
        d,
        cfg,
        frame_z=_frame_vector(device.cutoff.modes, 0, bis.r_hat, None),
        subtract_offset=True,
        token=f"{token}:f",
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
