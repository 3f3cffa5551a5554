"""Independent reference implementations that the tests compare the runtime to.

Each function computes, by a route of its own, something the learner or the
device also computes: the joint-space ladder, number, displacement and
squeeze matrices (D and S each as one exponential of its full complex
generator, not through the runtime's cached rotated basis), the displaced
phase-averaged Hamiltonian, the recovery stages one at a time, the
quadrature algebra both ways in sympy (normal_to_symmetrized, whose exact
expressions build_T's rationals must reproduce, and symmetrized_to_normal),
the frame mismatch, dense rotations and exponentials, the device's outcome
probabilities on the dense joint space, its literal per-shot path, and the
shot stream of a run_shot_grid call (shot_stream).
The device draws a call's whole grid from one stream, so a call's counts
are a function of the master seed, the call's tokens and schedule, and its
probabilities, and change when its runs are grouped into calls differently.
No other bosonlearn module imports this one, and it is the package's only
sympy import, so the runtime never loads sympy.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .bogoliubov import BogoliubovFrame, _ordered_product, boson_mul
from .device import ShotRequest
from .fockspace import CutoffError, FockCutoff, herm_eig
from .hamiltonian import HamiltonianSpec, build_matrix
from .recovery import RadialDesign


def _check_mode(cutoff: FockCutoff, mode: int) -> None:
    if not 0 <= mode < cutoff.modes:
        raise IndexError(f"mode {mode} out of range for {cutoff.modes} modes")


def embed(op: np.ndarray, cutoff: FockCutoff, mode: int) -> np.ndarray:
    """Tensor a single-mode operator with identities on all other modes.

    Mode 0 is the leftmost (most significant) tensor factor.
    """
    _check_mode(cutoff, mode)
    out = np.ones((1, 1), dtype=complex)
    for m in range(cutoff.modes):
        out = np.kron(out, op if m == mode else np.eye(cutoff.dim_per_mode))
    return out


def annihilation_matrix(cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """Matrix of b on the given mode: <n-1|b|n> = sqrt(n)."""
    n = np.arange(cutoff.dim_per_mode)
    return embed(np.diag(np.sqrt(n[1:]), k=1).astype(complex), cutoff, mode)


def creation_matrix(cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """Matrix of b† on the given mode."""
    return annihilation_matrix(cutoff, mode).conj().T


def number_matrix(cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """Diagonal number operator N = b†b on the given mode."""
    return embed(np.diag(np.arange(cutoff.dim_per_mode, dtype=complex)), cutoff, mode)


def vacuum_state(cutoff: FockCutoff) -> np.ndarray:
    """Joint vacuum |0,...,0>."""
    v = np.zeros(cutoff.dim, dtype=complex)
    v[0] = 1.0
    return v


def rotation_matrix(theta: float, cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """Phase rotation U(theta) = exp(-i theta N), diagonal with entries e^{-i theta n}."""
    return np.diag(np.exp(-1j * theta * np.diag(number_matrix(cutoff, mode)).real))


def rotation_phases(theta: float, cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """Diagonal of rotation_matrix as a vector over the joint basis."""
    _check_mode(cutoff, mode)
    d = cutoff.dim_per_mode
    single = np.exp(-1j * theta * np.arange(d))
    out = np.ones(1, dtype=complex)
    for m in range(cutoff.modes):
        out = np.kron(out, single if m == mode else np.ones(d))
    return out


def herm_expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via its eigendecomposition."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def displacement_matrix(beta: complex, cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """D(beta) = exp(beta b† - beta* b) on the given mode, as one exponential
    of the truncated single-mode generator, embedded."""
    b = annihilation_matrix(FockCutoff(cutoff.n_max))
    generator = beta * b.conj().T - np.conj(beta) * b
    return embed(herm_expm(1j * generator, 1.0), cutoff, mode)


def squeeze_matrix(z: complex, cutoff: FockCutoff, mode: int = 0) -> np.ndarray:
    """S(z) = exp[(z* b^2 - z b†^2)/2] on the given mode, as one exponential
    of the truncated single-mode generator, embedded."""
    b = annihilation_matrix(FockCutoff(cutoff.n_max))
    bdag = b.conj().T
    generator = 0.5 * (np.conj(z) * (b @ b) - z * (bdag @ bdag))
    return embed(herm_expm(1j * generator, 1.0), cutoff, mode)


def _falling_factorial(n: np.ndarray, i: int) -> np.ndarray:
    out = np.ones_like(n, dtype=float)
    for k in range(i):
        out *= n - k
    return out


def effective_diagonal(spec: HamiltonianSpec, beta, cutoff: FockCutoff) -> np.ndarray:
    """Diagonal (joint number basis) of the exactly projected displaced Hamiltonian.

    Conjugates every term by the displacement algebraically and keeps only the
    per-mode number-conserving contributions; this is the infinite-cutoff
    value evaluated on the truncated index set.  Includes identity_offset.
    """
    beta = np.asarray(beta, dtype=complex).ravel()
    d = cutoff.dim_per_mode
    ns = np.arange(d)
    diag = np.full(cutoff.dim, spec.identity_offset, dtype=complex)
    for key, coeff in spec.terms.items():
        per_mode = []
        for m in range(spec.modes):
            if m in key.modes:
                idx = key.modes.index(m)
                p, q, b = key.p[idx], key.q[idx], beta[m]
                vec = np.zeros(d, dtype=complex)
                for i in range(min(p, q) + 1):
                    vec += (
                        math.comb(p, i)
                        * math.comb(q, i)
                        * np.conj(b) ** (p - i)
                        * b ** (q - i)
                        * _falling_factorial(ns, i)
                    )
                per_mode.append(vec)
            else:
                per_mode.append(np.ones(d, dtype=complex))
        joint = per_mode[0]
        for vec in per_mode[1:]:
            joint = np.kron(joint, vec)
        diag += coeff * joint
    return diag


def phase_averaged_matrix(
    spec: HamiltonianSpec, beta, cutoff: FockCutoff, n_angles: int = 720
) -> np.ndarray:
    """Quadrature value: average U†(theta) D† H D U(theta) over a uniform theta grid.

    Averaging is applied per mode with independent grids.  Exact for
    polynomial integrands once n_angles > 2d, so this cross-checks
    effective_diagonal through an entirely different code path.
    """
    beta = np.asarray(beta, dtype=complex).ravel()
    h = build_matrix(spec, cutoff)
    for m in range(spec.modes):
        h = displacement_matrix(beta[m], cutoff, m).conj().T @ h @ displacement_matrix(
            beta[m], cutoff, m
        )
    d = cutoff.dim_per_mode
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    # The average depends only on the index difference i - j: average each of
    # the 2d - 1 differences once, then index it as a Toeplitz matrix.
    diffs = np.arange(-(d - 1), d)
    averaged = np.exp(1j * diffs[:, None] * thetas).mean(axis=-1)
    single = averaged[np.subtract.outer(np.arange(d), np.arange(d)) + (d - 1)]
    for m in range(spec.modes):
        joint = np.ones((1, 1), dtype=complex)
        for mm in range(spec.modes):
            joint = np.kron(joint, single if mm == m else np.ones((d, d)))
        h = h * joint
    return h


COND_WARN = 1e8


def radial_fit(design: RadialDesign, c_values: np.ndarray) -> np.ndarray:
    """Least-squares solution g_l, l = 1..d, from C values at the design nodes.

    c_values may be (d+1,) or (d+1, batch).
    """
    c_values = np.asarray(c_values)
    if c_values.shape[0] != design.degree + 1:
        raise ValueError("c_values not aligned with design nodes")
    if design.cond > COND_WARN:
        warnings.warn(f"radial Vandermonde condition number {design.cond:.2e}", stacklevel=2)
    return design.pinv @ c_values


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
    gram = design.vandermonde.T @ design.vandermonde
    radial_cov = eps_c**2 * np.linalg.inv(gram)
    lam = np.linalg.eigvalsh(gram)
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


def nb_expansion(frame: BogoliubovFrame) -> dict[tuple[int, int], float]:
    """Number operator of the B mode written in the bare basis:
    N_B = (u^2+v^2) N + u v (b^2 + b†^2) + v^2."""
    u, v = frame.u, frame.v
    return {(1, 1): u * u + v * v, (2, 0): u * v, (0, 2): u * v, (0, 0): v * v}


def _xp_to_symmetrized(normal: dict) -> dict:
    """Rewrite an XP normal-form polynomial over symmetrized monomials
    {X^j P^k}_S = (X^j P^k + P^k X^j)/2, exactly."""
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
    root2 = sp.sqrt(2)
    bdag = {(1, 0): 1 / root2, (0, 1): -sp.I / root2}
    b = {(1, 0): 1 / root2, (0, 1): sp.I / root2}
    return _xp_to_symmetrized(_ordered_product([bdag] * p + [b] * q, -sp.I))


def symmetrized_to_normal(j: int, k: int) -> dict[tuple[int, int], sp.Expr]:
    """{X^j P^k}_S as an exact normal-ordered polynomial in B, B†."""
    root2 = sp.sqrt(2)
    x = {(1, 0): 1 / root2, (0, 1): 1 / root2}
    p = {(1, 0): sp.I / root2, (0, 1): -sp.I / root2}
    word_xp = _ordered_product([x] * j + [p] * k)
    word_px = _ordered_product([p] * k + [x] * j)
    out = {}
    for key in set(word_xp) | set(word_px):
        v = sp.expand(sp.Rational(1, 2) * (word_xp.get(key, 0) + word_px.get(key, 0)))
        if v != 0:
            out[key] = v
    return out


def conjugate_spec_by_mismatch(
    terms: dict[tuple[int, int], complex], delta_r: float
) -> dict[tuple[int, int], complex]:
    """Rewrite a normal-ordered single-mode polynomial into the frame that is
    mismatched by delta_r, via B = B' cosh(delta_r) + B'† sinh(delta_r)."""
    c, s = math.cosh(delta_r), math.sinh(delta_r)
    bdag = {(1, 0): c, (0, 1): s}
    b = {(0, 1): c, (1, 0): s}
    out: dict[tuple[int, int], complex] = {}
    for (p, q), g in terms.items():
        poly = _ordered_product([bdag] * p + [b] * q)
        for key, coeff in poly.items():
            out[key] = out.get(key, 0.0) + g * coeff
    return {k: v for k, v in out.items() if abs(v) > 0}


def shot_stream(master_seed: int, tokens, suffixes) -> np.random.Generator:
    """The Philox stream of one run_shot_grid call on a device seeded with
    master_seed: tokens are the call's run tokens and suffixes[j] =
    f":k{kappa_j}:{basis_j}" its schedule, keyed through numpy's own
    SeedSequence by the first 16 bytes of the sha256 of their JSON."""
    encoding = json.dumps([list(tokens), list(suffixes)]).encode()
    entropy = int.from_bytes(hashlib.sha256(encoding).digest()[:16], "big")
    seq = np.random.SeedSequence(entropy=(master_seed, entropy))
    return np.random.Generator(np.random.Philox(seq))


def dense_probability(
    spec: HamiltonianSpec, cutoff: FockCutoff, request: ShotRequest, true_frame_z=None
) -> float:
    """Noiseless outcome-0 probability of request on the dense joint space.

    Builds the hidden matrix, conjugates it into the true frame with embedded
    squeeze matrices, decomposes it, and weighs the eigenbasis by |V† phi|^2,
    with phi = S(z)† D(beta)|vac> built from embedded D and S matrices: the
    ideal amplitude is e^{-i t weights.w}, the L-step one
    (weights . e^{-i w t/L})^L.
    """
    h = build_matrix(spec, cutoff)
    for m, z in enumerate(true_frame_z or ()):
        s = squeeze_matrix(z, cutoff, m)
        h = s.conj().T @ h @ s
    w, v = herm_eig(0.5 * (h + h.conj().T))
    phi = vacuum_state(cutoff)
    for m, b in enumerate(request.beta):
        phi = displacement_matrix(b, cutoff, m) @ phi
    for m, z in enumerate(request.frame_z or ()):
        phi = squeeze_matrix(z, cutoff, m).conj().T @ phi
    weights = np.abs(v.conj().T @ phi) ** 2
    t = request.evolution_time
    if request.l_steps is None:
        amp = np.exp(-1j * t * (weights @ w))
    else:
        amp = (weights @ np.exp(-1j * w * t / request.l_steps)) ** request.l_steps
    p = 0.5 * (1.0 + (amp.real if request.basis == "X" else amp.imag))
    return float(min(max(p, 0.0), 1.0))


def literal_shot(
    h: np.ndarray, cutoff: FockCutoff, request: ShotRequest, rng: np.random.Generator
) -> int:
    """One literal noiseless shot of request against the dense Hamiltonian h.

    Draws a fresh theta per Trotter step and mode from rng, evolves the
    prepared state S(z)† D(beta)|vac> (S = 1 without frame_z) on the joint
    space, and
    returns outcome 1 with the probability set by the final vacuum amplitude.
    That amplitude includes finite-L leakage out of the vacuum exactly.
    """
    if request.l_steps is None:
        raise ValueError("literal_shot needs a concrete l_steps")
    dim = cutoff.dim
    d_op = np.eye(dim, dtype=complex)
    for m, beta in enumerate(request.beta):
        if beta:
            d_op = displacement_matrix(beta, cutoff, m) @ d_op
    if request.frame_z is not None:
        s_op = np.eye(dim, dtype=complex)
        for m, z in enumerate(request.frame_z):
            if z:
                s_op = squeeze_matrix(z, cutoff, m) @ s_op
        d_op = s_op.conj().T @ d_op
    tau = request.evolution_time / request.l_steps
    step_core = d_op.conj().T @ herm_expm(h, tau) @ d_op
    state = vacuum_state(cutoff)
    for _ in range(request.l_steps):
        phases = np.ones(dim, dtype=complex)
        for m in range(cutoff.modes):
            phases = phases * rotation_phases(rng.uniform(0.0, 2.0 * np.pi), cutoff, m)
        state = np.conj(phases) * (step_core @ (phases * state))
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-9:
        raise CutoffError(f"state norm drift {abs(norm - 1.0):.2e}; cutoff inadequate")
    amp = complex(state[0])
    p = 0.5 * (1.0 + (amp.real if request.basis == "X" else amp.imag))
    return int(rng.uniform() >= min(max(p, 0.0), 1.0))
