import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn import fockspace
from bosonlearn.fockspace import (
    UNITARITY_TOL,
    CutoffError,
    FockCutoff,
    TermColumns,
    adaptive_cutoff,
    displace_vector,
    displaced_vacuum_energy,
    herm_eig,
    moment_table,
    product_state_energy,
    squeeze_vector,
)
from bosonlearn.hamiltonian import HamiltonianSpec, build_matrix, random_spec, single_key
from bosonlearn.oracles import (
    annihilation_matrix,
    creation_matrix,
    displacement_matrix,
    embed,
    herm_expm,
    number_matrix,
    rotation_matrix,
    rotation_phases,
    squeeze_matrix,
    vacuum_state,
)

CUT = FockCutoff(n_max=20)
EYE = np.eye(CUT.dim_per_mode, dtype=complex)


def low_block(m: np.ndarray, k: int = 10) -> np.ndarray:
    return m[:k, :k]


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockCutoff(n_max=0)
    with pytest.raises(ValueError):
        FockCutoff(n_max=4, modes=0)
    assert FockCutoff(n_max=4, modes=2).dim == 25
    assert FockCutoff(n_max=4, modes=2).dim_per_mode == 5
    for mode in (2, -1):
        with pytest.raises(IndexError, match=f"mode {mode} out of range for 2 modes"):
            embed(np.eye(5), FockCutoff(n_max=4, modes=2), mode)


def test_ladder_matrix_elements():
    b = annihilation_matrix(CUT)
    for n in range(1, CUT.n_max + 1):
        assert b[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.allclose(creation_matrix(CUT), b.conj().T)


def test_canonical_commutator_away_from_truncation():
    b = annihilation_matrix(CUT)
    comm = b @ b.conj().T - b.conj().T @ b
    # the truncation corrupts only the highest diagonal entry
    assert np.allclose(low_block(comm, CUT.n_max), np.eye(CUT.n_max), atol=1e-12)
    assert comm[CUT.n_max, CUT.n_max] == pytest.approx(-CUT.n_max)


def test_number_operator_is_bdag_b():
    b = annihilation_matrix(CUT)
    assert np.allclose(number_matrix(CUT), b.conj().T @ b)


def test_vacuum_state():
    v = vacuum_state(FockCutoff(n_max=3, modes=2))
    assert v[0] == 1.0
    assert np.linalg.norm(v) == 1.0


def test_displacement_produces_coherent_state():
    beta = 0.7 - 0.4j
    psi = displace_vector(beta, vacuum_state(CUT))
    for n in range(8):
        expected = math.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n))
        assert psi[n] == pytest.approx(expected, abs=1e-10)


def test_displacement_group_law():
    a, b = 0.3 + 0.2j, -0.4 + 0.5j
    lhs = displace_vector(a, displace_vector(b, EYE))
    phase = np.exp(0.5 * (a * np.conj(b) - np.conj(a) * b))
    rhs = phase * displace_vector(a + b, EYE)
    assert np.max(np.abs(low_block(lhs - rhs))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    re=st.floats(-1.0, 1.0, allow_nan=False),
    im=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_displacement_inverse_property(re, im):
    beta = complex(re, im)
    u = displace_vector(beta, EYE)
    uinv = displace_vector(-beta, EYE)
    assert np.max(np.abs(u @ uinv - np.eye(CUT.dim))) < 1e-9


def test_rotation_conjugates_ladder_operator():
    theta = 0.83
    u = rotation_matrix(theta, CUT)
    b = annihilation_matrix(CUT)
    assert np.allclose(u.conj().T @ b @ u, np.exp(-1j * theta) * b)


def test_rotation_phases_match_matrix_diagonal():
    cut = FockCutoff(n_max=3, modes=2)
    theta = 1.21
    for mode in range(2):
        assert np.allclose(rotation_phases(theta, cut, mode), np.diag(rotation_matrix(theta, cut, mode)))


def test_squeeze_bogoliubov_action():
    r = 0.4
    cut = FockCutoff(n_max=60)
    s = squeeze_vector(r, np.eye(cut.dim_per_mode, dtype=complex))
    b = annihilation_matrix(cut)
    lhs = s.conj().T @ b @ s
    rhs = math.cosh(r) * b - math.sinh(r) * b.conj().T
    assert np.max(np.abs(low_block(lhs - rhs, 10))) < 1e-10


def test_squeeze_vacuum_overlap():
    r = 0.6
    cut = FockCutoff(n_max=40)
    v = squeeze_vector(r, vacuum_state(cut))
    assert abs(v[0]) == pytest.approx(1.0 / math.sqrt(math.cosh(r)), abs=1e-10)


def test_embedded_operators_commute_across_modes():
    cut = FockCutoff(n_max=4, modes=2)
    b0 = annihilation_matrix(cut, 0)
    b1 = annihilation_matrix(cut, 1)
    assert np.allclose(b0 @ b1, b1 @ b0)
    d0 = displacement_matrix(0.5j, cut, 0)
    d1 = displacement_matrix(0.3, cut, 1)
    assert np.allclose(d0 @ d1, d1 @ d0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_herm_expm_against_analytic_two_level():
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    t = 0.9
    expected = math.cos(t) * np.eye(2) - 1j * math.sin(t) * h
    assert np.allclose(herm_expm(h, t), expected, atol=1e-12)


def test_unitaries_are_exactly_unitary():
    for u in (displace_vector(1.2 - 0.7j, EYE), squeeze_vector(0.5 + 0.2j, EYE)):
        assert np.max(np.abs(u.conj().T @ u - np.eye(CUT.dim))) < 1e-9


def _generator_oracle(g: np.ndarray, cut: FockCutoff, mode: int) -> np.ndarray:
    """exp(g) of the full single-mode generator g, embedded, by one dense eigh."""
    return herm_expm(1j * embed(g, cut, mode), 1.0)


@pytest.mark.parametrize("n_max, modes, mode", [(8, 1, 0), (24, 1, 0), (48, 1, 0), (8, 2, 0), (8, 2, 1)])
def test_rotated_generator_basis_matches_direct_exponential(n_max, modes, mode):
    # oracle: the exponential of the full complex-parameter generator on the
    # joint space; the runtime's single-mode unitary is embedded to meet it
    cut = FockCutoff(n_max=n_max, modes=modes)
    b = annihilation_matrix(FockCutoff(n_max=n_max))
    bdag = b.conj().T
    eye = np.eye(cut.dim)
    single = np.eye(n_max + 1, dtype=complex)
    for beta in (0.7 - 0.4j, -1.1 + 0j, 0.9j, -0.5 - 1.3j, 1.5):
        u = embed(displace_vector(beta, single), cut, mode)
        expected = _generator_oracle(beta * bdag - np.conj(beta) * b, cut, mode)
        assert np.max(np.abs(u - expected)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - eye)) < UNITARITY_TOL
    for z in (0.4 + 0j, -0.6 + 0j, 0.5j, -0.3j, -0.3 + 0.2j, 0.2 - 0.45j):
        u = embed(squeeze_vector(z, single), cut, mode)
        expected = _generator_oracle(0.5 * (np.conj(z) * (b @ b) - z * (bdag @ bdag)), cut, mode)
        assert np.max(np.abs(u - expected)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - eye)) < UNITARITY_TOL


def test_adaptive_cutoff_converges_and_respects_floor():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    cut = adaptive_cutoff(spec, 1.0)
    assert cut.n_max >= math.ceil(4 * (1.0 + 2))
    # the accepted truncation reproduces the displaced-vacuum energy |beta|^2
    psi = displacement_matrix(1.0, cut) @ vacuum_state(cut)
    energy = np.real(psi.conj() @ (number_matrix(cut) @ psi))
    assert energy == pytest.approx(1.0, abs=1e-8)


def test_adaptive_cutoff_raises_when_ceiling_too_small():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    with pytest.raises(CutoffError):
        adaptive_cutoff(spec, 0.5, tol=0.0, ceiling=64)
    with pytest.raises(CutoffError):
        adaptive_cutoff(spec, 3.0, ceiling=16)


@pytest.mark.parametrize("modes, d, n_max", [(1, 4, 30), (2, 3, 12), (3, 2, 6)])
def test_displaced_vacuum_energy_matches_dense(modes, d, n_max):
    # oracle: <0|D† H D|0> with the dense joint matrix and embedded displacements
    spec = random_spec(modes, d, seed=13, sparsity=0.8)
    spec.identity_offset = 0.4
    beta = 0.9
    cut = FockCutoff(n_max=n_max, modes=modes)
    psi = vacuum_state(cut)
    for m in range(modes):
        psi = displacement_matrix(beta, cut, m) @ psi
    dense = float(np.real(psi.conj() @ (build_matrix(spec, cut) @ psi)))
    assert displaced_vacuum_energy(spec, beta, n_max) == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("n_max", [6, 24, 48])
def test_vector_unitaries_match_the_matrices(n_max):
    # oracle: D and S each as one exponential of the full complex generator,
    # independent of the runtime's cached rotated basis
    cut = FockCutoff(n_max=n_max)
    v = np.random.default_rng(n_max).normal(size=n_max + 1) + 0j
    v /= np.linalg.norm(v)
    for beta in (0.7 - 0.4j, -1.1 + 0j, 0.9j):
        assert np.max(np.abs(displace_vector(beta, v) - displacement_matrix(beta, cut) @ v)) < 1e-13
    for z in (0.4 + 0j, -0.3j, 0.2 - 0.45j):
        s = squeeze_matrix(z, cut)
        assert np.max(np.abs(squeeze_vector(z, v) - s @ v)) < 1e-13
        assert np.max(np.abs(squeeze_vector(z, v, adjoint=True) - s.conj().T @ v)) < 1e-13


def _one_vector_apply(kind: str, param: complex, v: np.ndarray, sign: float) -> np.ndarray:
    """Reference: D(beta) v (sign -1, squeeze sign -1/+1 for S(z) / S(z)†) as
    one vector's own arithmetic: cmath.polar, the rotation only when theta != 0,
    and two mat-vecs on the cached generator basis."""
    r, theta = cmath.polar(complex(param))
    if kind == "squeeze":
        theta *= 0.5
    w, u, uh = fockspace._generator_basis(kind, len(v) - 1)
    if theta:
        rot = np.exp(1j * theta * np.arange(len(v)))
        v = rot.conj() * v
    out = u @ (np.exp(sign * 1j * r * w) * (uh @ v))
    return rot * out if theta else out


def _one_vector_table(v: np.ndarray, order: int) -> np.ndarray:
    """Reference: moment_table of one vector as a single matrix product."""
    lowered = np.zeros((order + 1, len(v)), dtype=complex)
    lowered[0] = v
    sqrt_n = np.sqrt(np.arange(1, len(v)))
    for k in range(1, order + 1):
        lowered[k, :-1] = sqrt_n * lowered[k - 1, 1:]
    return lowered.conj() @ lowered.T


def test_stacked_calls_equal_per_vector_calls_bit_for_bit():
    # a stacked call gives each row exactly one vector's arithmetic: per-row
    # mat-vecs (one GEMM over the stack rounds differently), (r, theta) from
    # cmath.polar (np.abs and np.angle round differently), and tables from a
    # stacked matrix product (np.einsum sums in another order)
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(6, 49)) + 1j * rng.normal(size=(6, 49))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    # beta = 0, a negative real beta (theta = pi), then real, imaginary and complex
    betas = np.array([0, -0.7, 0.4, 0.9j, -0.5 - 1.3j, 1.2 - 0.3j])
    # z = 0, the true-frame squeeze of the frame ratio 1.3, then others
    zs = np.array([0, -0.5 * math.log(1.3), 0.4, -0.3j, 0.2 - 0.45j, -0.6 + 0.1j])
    stacked = displace_vector(betas, vectors)
    for row, beta, v in zip(stacked, betas, vectors):
        assert np.array_equal(row, displace_vector(beta, v))
        assert np.array_equal(row, _one_vector_apply("displacement", beta, v, -1.0))
    for adjoint in (False, True):
        stacked = squeeze_vector(zs, vectors, adjoint=adjoint)
        for row, z, v in zip(stacked, zs, vectors):
            assert np.array_equal(row, squeeze_vector(z, v, adjoint=adjoint))
            assert np.array_equal(row, _one_vector_apply("squeeze", z, v, 1.0 if adjoint else -1.0))
    tables = moment_table(vectors, 4)
    assert tables.shape == (6, 5, 5)
    for table, v in zip(tables, vectors):
        assert np.array_equal(table, moment_table(v, 4))
        assert np.array_equal(table, _one_vector_table(v, 4))
    with pytest.raises(ValueError, match="parameters need a \\(k, n\\) stack"):
        displace_vector(betas[:3], vectors)


@pytest.mark.parametrize("modes, d, n_max", [(1, 4, 20), (2, 3, 8), (3, 2, 5)])
def test_product_state_energy_matches_dense(modes, d, n_max):
    # oracle: <phi|H|phi> with the dense joint matrix and the Kronecker product
    spec = random_spec(modes, d, seed=21, sparsity=0.9)
    spec.identity_offset = -0.3
    rng = np.random.default_rng(modes)
    vectors = []
    for _ in range(modes):
        v = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        vectors.append(v / np.linalg.norm(v))
    phi = vectors[0]
    for v in vectors[1:]:
        phi = np.kron(phi, v)
    dense = np.vdot(phi, build_matrix(spec, FockCutoff(n_max=n_max, modes=modes)) @ phi).real
    tables = [moment_table(v, d)[None] for v in vectors]
    energy = product_state_energy(TermColumns.of(spec), tables)[0]
    assert energy == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize(
    "spec_args, beta_max, n_max",
    [
        ((2, 2, {"seed": 11, "sparsity": 0.8}), 1.0, 12),
        ((2, 3, {"seed": 7, "sparsity": 0.5}), 1.0, 16),
        ((1, 2, {"seed": 3, "include_couplings": False}), 1.0, 12),
        ((1, 3, {"seed": 2, "include_couplings": False}), 0.8, 15),
        ((3, 2, {"seed": 0}), 1.0, 12),
        ((1, 2, {"seed": 0, "include_couplings": False}), 1.1, 13),
    ],
)
def test_adaptive_cutoff_choices_are_pinned(spec_args, beta_max, n_max):
    # the truncations the benchmark workloads and the learner tests run at
    modes, d, kwargs = spec_args
    assert adaptive_cutoff(random_spec(modes, d, **kwargs), beta_max).n_max == n_max


def test_adaptive_cutoff_builds_no_joint_space_matrix():
    spec = random_spec(3, 2, seed=0)
    tracemalloc.start()
    try:
        cut = adaptive_cutoff(spec, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    joint_matrix_bytes = cut.dim**2 * np.dtype(complex).itemsize
    assert cut.modes == 3
    assert peak < joint_matrix_bytes / 100
