"""Dense complex linear algebra on truncated single-mode Fock spaces.

Every operator here acts on one mode at (n_max+1) dimension; a multi-mode
state is a Kronecker product of single-mode factors, mode 0 leftmost.  The
joint-space builders the tests compare against live in bosonlearn.oracles.
Generators are truncated before exponentiation, so every unitary produced
here is exactly unitary; truncation accuracy is assessed by the doubling test
in :func:`adaptive_cutoff` rather than a priori bounds.  hbar = 1 throughout.

Displacements and squeezes share one eigendecomposition per cutoff of their
real-parameter generators, i(b† - b) and (i/2)(b^2 - b†^2), cached by
(kind, n_max); a complex parameter is reached by the diagonal phase rotation
R(theta) = e^{i theta N}, so D(r e^{i theta}) = R(theta) D(r) R(theta)† and
S(s e^{i phi}) = R(phi/2) S(s) R(phi/2)†.  Applying either to one
single-mode vector (displace_vector, squeeze_vector) is then two diagonal
scalings and two mat-vecs on the cached basis, with no eigh and no matrix
built; given a matrix, they act on each of its columns.  Given k parameters
and a (k, n) stack of vectors, they transform every row in one pass whose
basis products are stacked mat-vecs, np.matmul(U, X[..., None]): each row
gets the BLAS mat-vec a lone vector gets, so its result is bit-identical to
its own call (one GEMM over the stack rounds differently).  moment_table
takes such a stack too, through one stacked matrix product.

The energy <phi|H|phi> of a product state phi = ⊗_m v_m factorises over
modes into per-mode moment tables (moment_table, product_state_energy, which
takes a batch of states in one pass), so neither it nor the cutoff choice
that rests on it builds a joint-space matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9
UNITARITY_TOL = 1e-6
# adaptive_cutoff's default largest n_max per mode
CUTOFF_CEILING = 256
# The largest joint space a dense matrix is built for: at 4,096 dims the
# complex H, its eigenvectors and eigh's workspace take about 0.8 GB.
DIM_BUDGET = 4096


class CutoffError(ValueError):
    """Raised when a truncation is too small for the requested operation."""


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the bosonic Hilbert space: states |0..n_max> per mode."""

    n_max: int
    modes: int = 1

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")

    @property
    def dim_per_mode(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.modes


def _lowering(n_max: int) -> np.ndarray:
    """Single-mode matrix of b at truncation n_max: <n-1|b|n> = sqrt(n)."""
    b = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    ns = np.arange(1, n_max + 1)
    b[ns - 1, ns] = np.sqrt(ns)
    return b


def normal_ordered_factor(p: int, q: int, n_max: int) -> np.ndarray:
    """Single-mode matrix of b†^p b^q at truncation n_max, of size (n_max+1)^2."""
    b = _lowering(n_max)
    return np.linalg.matrix_power(b.conj().T, p) @ np.linalg.matrix_power(b, q)


@functools.lru_cache(maxsize=16)
def _generator_basis(kind: str, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition (w, U, U†) of a single-mode generator, once per (kind, n_max).

    "displacement" is i(b† - b), so D(r) = U e^{-i r w} U† for real r;
    "squeeze" is (i/2)(b^2 - b†^2), so S(s) = U e^{-i s w} U† for real s.
    U is checked for unitarity once, here, so every product built from it is
    unitary; the arrays are read-only because the cache shares them.
    """
    b = _lowering(n_max)
    bdag = b.conj().T
    g = 1j * (bdag - b) if kind == "displacement" else 0.5j * (b @ b - bdag @ bdag)
    w, u = herm_eig(g)
    _check_unitary(u, f"{kind} generator basis")
    uh = u.conj().T.copy()
    for array in (w, u, uh):
        array.setflags(write=False)
    return w, u, uh


def _rotated_apply(kind: str, r: np.ndarray, theta: np.ndarray, v: np.ndarray, sign: float) -> np.ndarray:
    """R(theta_i) U e^{sign i r_i w} U† R(theta_i)† v_i for each row v_i of a
    (k, n) stack of single-mode vectors, with one (r_i, theta_i) per row.

    sign = -1 applies the unitary D(r e^{i theta}) or S(r e^{2i theta}),
    sign = +1 its adjoint.  The two basis products are stacked mat-vecs,
    np.matmul(U, X[..., None]): each row gets the same BLAS mat-vec as a lone
    vector, so a row's result does not depend on the rest of the stack (one
    GEMM over the stack rounds differently).  A row with theta_i = 0 is
    scaled by e^0 = 1 exactly.
    """
    w, u, uh = _generator_basis(kind, v.shape[-1] - 1)
    rot = np.exp(1j * theta[:, None] * np.arange(v.shape[-1]))
    v = rot.conj() * v
    v = np.exp(sign * 1j * r[:, None] * w) * np.matmul(uh, v[..., None])[..., 0]
    return rot * np.matmul(u, v[..., None])[..., 0]


def _apply(kind: str, params, v: np.ndarray, sign: float) -> np.ndarray:
    """_rotated_apply of one parameter to a vector or to each column of a
    matrix v, or of a 1-D array of k parameters to the rows of a (k, n) v.

    (r, theta) come from cmath.polar per parameter (np.abs and np.angle
    round differently); a squeeze rotates by half the phase.
    """
    params = np.asarray(params, dtype=complex)
    r, phi = np.array([cmath.polar(p) for p in params.ravel().tolist()]).T
    theta = phi if kind == "displacement" else 0.5 * phi
    if params.ndim:
        if params.ndim != 1 or v.shape[:-1] != params.shape:
            raise ValueError(f"{params.shape} parameters need a (k, n) stack, got {v.shape}")
        return _rotated_apply(kind, r, theta, v, sign)
    states = v.T.reshape(-1, v.shape[0])
    out = _rotated_apply(kind, np.repeat(r, len(states)), np.repeat(theta, len(states)), states, sign)
    return out.reshape(v.T.shape).T


def displace_vector(beta, v: np.ndarray) -> np.ndarray:
    """D(beta) v for a single-mode vector v, without building D(beta); given a
    matrix v, D(beta) acts on each of its columns.  Stacked: beta a 1-D array
    of k parameters and v a (k, n) array give D(beta_i) v_i in row i."""
    return _apply("displacement", beta, v, -1.0)


def squeeze_vector(z, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """S(z) v, or S(z)† v with adjoint, for a single-mode vector v, without
    building S(z); a matrix v and a stack of k parameters with a (k, n) v are
    taken as in displace_vector."""
    return _apply("squeeze", z, v, 1.0 if adjoint else -1.0)


def _check_unitary(u: np.ndarray, label: str) -> None:
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > UNITARITY_TOL:
        raise CutoffError(f"{label}: unitarity defect {defect:.2e} exceeds {UNITARITY_TOL}")


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition.


def herm_eig(h: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix; rejects non-Hermitian input."""
    defect = np.max(np.abs(h - h.conj().T))
    scale = max(1.0, np.max(np.abs(h)))
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.2e}")
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return w, v


def moment_table(v: np.ndarray, order: int) -> np.ndarray:
    """T[p, q] = <v|b†^p b^q|v> = <b^p v|b^q v> for p, q <= order, at the
    truncation of v.

    A (k, n) stack of vectors gives the (k, order+1, order+1) tables in one
    stacked product, each bit-identical to its vector's own table.
    """
    n = v.shape[-1]
    lowered = np.zeros(v.shape[:-1] + (order + 1, n), dtype=complex)
    lowered[..., 0, :] = v
    sqrt_n = np.sqrt(np.arange(1, n))
    for k in range(1, order + 1):
        lowered[..., k, :-1] = sqrt_n * lowered[..., k - 1, 1:]
    return lowered.conj() @ np.swapaxes(lowered, -1, -2)


@dataclass(frozen=True)
class TermColumns:
    """A spec's terms laid out for product_state_energy, built once per spec.

    coeffs holds the coefficients in key order.  factors[m] = (cols, p, q)
    lists the terms that touch mode m, in key order, with their powers there.
    """

    offset: float
    coeffs: np.ndarray
    factors: tuple[tuple[list[int], list[int], list[int]], ...]

    @classmethod
    def of(cls, spec) -> "TermColumns":
        factors = tuple(([], [], []) for _ in range(spec.modes))
        for t, key in enumerate(spec.terms):
            for mode, p, q in zip(key.modes, key.p, key.q):
                cols, ps, qs = factors[mode]
                cols.append(t)
                ps.append(p)
                qs.append(q)
        coeffs = np.array([complex(c) for c in spec.terms.values()], dtype=complex)
        return cls(float(spec.identity_offset), coeffs, factors)


def product_state_energy(terms: TermColumns, tables) -> np.ndarray:
    """<phi_s|H|phi_s> for a batch of normalised product states phi_s = ⊗_m v_{s,m}.

    tables[m] stacks the moment_table of mode m's factor of every state, shape
    (states, d+1, d+1).  The value factorises exactly: offset +
    sum_terms g prod_m <v_m|b†^p b^q|v_m> over the modes each term touches
    (an untouched mode contributes <v|v> = 1), so no joint-space matrix or
    vector is built.  All states are computed in one (states x terms) pass.

    Each state's value is bit-identical to the scalar loop
        total = complex(offset); term = complex(g); term *= T_m[p, q]; total += term
    over the terms in key order and their modes in increasing order, and so
    does not depend on the other states of the batch: complex products are
    taken as separate real multiplies and adds (numpy's complex multiply may
    fuse them), and the terms are summed sequentially with a cumulative sum
    (a pairwise reduction rounds differently).
    """
    states = len(tables[0])
    re = np.tile(terms.coeffs.real, (states, 1))
    im = np.tile(terms.coeffs.imag, (states, 1))
    for (cols, p, q), table in zip(terms.factors, tables):
        if not cols:
            continue
        factor = table[:, p, q]
        f_re, f_im = factor.real, factor.imag
        t_re, t_im = re[:, cols], im[:, cols]
        re[:, cols] = t_re * f_re - t_im * f_im
        im[:, cols] = t_re * f_im + t_im * f_re
    offset = np.full((states, 1), terms.offset)
    return np.cumsum(np.hstack([offset, re]), axis=1)[:, -1]


def displaced_vacuum_energy(spec, beta: complex, n_max: int) -> float:
    """<0|D† H D|0> at truncation n_max, with the same displacement beta on every mode.

    The displaced vacuum is a product state: this is product_state_energy of
    v = D(beta)|0> on every mode.
    """
    vacuum = np.zeros(n_max + 1, dtype=complex)
    vacuum[0] = 1.0
    table = moment_table(displace_vector(beta, vacuum), spec.max_order)[None]
    return float(product_state_energy(TermColumns.of(spec), [table] * spec.modes)[0])


def adaptive_cutoff(spec, beta_max: float, tol: float = 1e-8, ceiling: int = CUTOFF_CEILING) -> FockCutoff:
    """Smallest n_max in a doubling sequence adequate for displacements up to beta_max.

    The convergence observable is :func:`displaced_vacuum_energy` at beta_max
    (the vacuum diagonal of the numerically displaced Hamiltonian, i.e. the
    constant term as seen at finite truncation), evaluated per mode in
    factorised form, so choosing a cutoff never builds a joint-space matrix:
    n_max is accepted once this value moves by less than tol when n_max
    doubles.  The floor is ceil(4 (beta_max^2 + d)).
    """
    floor = max(int(math.ceil(4.0 * (beta_max**2 + spec.max_order))), spec.max_order + 1, 2)
    if floor > ceiling:
        raise CutoffError(f"ceiling {ceiling} is below the floor {floor}")
    n = floor
    val = displaced_vacuum_energy(spec, beta_max, n)
    while n <= ceiling:
        n2 = 2 * n
        val2 = displaced_vacuum_energy(spec, beta_max, n2)
        if abs(val2 - val) < tol:
            return FockCutoff(n_max=n, modes=spec.modes)
        n, val = n2, val2
    raise CutoffError(
        f"adaptive_cutoff did not converge below n_max={ceiling} (last change {abs(val2 - val):.2e})"
    )
