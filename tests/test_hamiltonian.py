import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn.fockspace import FockCutoff
from bosonlearn.hamiltonian import (
    HamiltonianSpec,
    HermiticityError,
    TermKey,
    admissible_keys,
    build_matrix,
    canonical_key,
    constant_term,
    random_spec,
    single_key,
    spec_from_dict,
    spec_to_dict,
    validate_hermitian,
)
from bosonlearn.oracles import (
    creation_matrix,
    displacement_matrix,
    effective_diagonal,
    phase_averaged_matrix,
    vacuum_state,
)


def test_term_key_validation():
    with pytest.raises(ValueError):
        TermKey((0, 0), (1, 1), (0, 0))
    with pytest.raises(ValueError):
        TermKey((1, 0), (1, 1), (0, 0))
    with pytest.raises(ValueError):
        TermKey((0,), (0,), (0,))
    with pytest.raises(ValueError):
        TermKey((0,), (-1,), (2,))


@pytest.mark.parametrize("modes", [(-1,), (-2, 0)])
def test_term_key_rejects_negative_modes(modes):
    # a negative index would silently name a mode counted from the end
    with pytest.raises(ValueError, match="modes must be non-negative"):
        TermKey(modes, (1,) * len(modes), (1,) * len(modes))
    with pytest.raises(ValueError, match="modes must be non-negative"):
        single_key(1, 1, -1)


def test_term_key_properties():
    k = TermKey((0, 2), (2, 0), (1, 1))
    assert k.order == 4
    assert k.conjugate == TermKey((0, 2), (1, 1), (2, 0))
    assert not k.is_self_conjugate
    assert k.is_coupling
    assert single_key(1, 1).is_self_conjugate
    assert not single_key(2, 0, mode=1).is_coupling


def test_validate_hermitian_rejects_unpaired_terms():
    spec = HamiltonianSpec(1, 2, {single_key(2, 0): 0.5 + 0j})
    with pytest.raises(HermiticityError):
        validate_hermitian(spec)


def test_validate_hermitian_rejects_out_of_range_terms():
    with pytest.raises(ValueError):
        validate_hermitian(HamiltonianSpec(1, 1, {single_key(1, 1): 1.0}))
    with pytest.raises(ValueError):
        validate_hermitian(HamiltonianSpec(1, 2, {single_key(1, 1, mode=1): 1.0}))


def test_validate_hermitian_accepts_paired_terms():
    spec = HamiltonianSpec(
        1, 2, {single_key(2, 0): 0.5 + 0.2j, single_key(0, 2): 0.5 - 0.2j}
    )
    assert validate_hermitian(spec) is spec


def test_build_matrix_number_operator():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    cut = FockCutoff(n_max=6)
    assert np.allclose(build_matrix(spec, cut), np.diag(np.arange(7.0)))


def test_build_matrix_includes_identity_offset():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0}, identity_offset=0.25)
    cut = FockCutoff(n_max=4)
    assert np.allclose(np.diag(build_matrix(spec, cut)), np.arange(5.0) + 0.25)


def dense_reference_matrix(spec: HamiltonianSpec, cutoff: FockCutoff) -> np.ndarray:
    """Oracle: each term as a product of embedded joint-space ladder-operator powers."""
    dim = cutoff.dim
    h = np.zeros((dim, dim), dtype=complex)
    bdags = [creation_matrix(cutoff, m) for m in range(spec.modes)]
    for key, coeff in spec.terms.items():
        op = np.eye(dim, dtype=complex)
        for mode, p, q in zip(key.modes, key.p, key.q):
            bd = bdags[mode]
            op = op @ (np.linalg.matrix_power(bd, p) @ np.linalg.matrix_power(bd.conj().T, q))
        h += coeff * op
    return h + spec.identity_offset * np.eye(dim)


@settings(max_examples=25, deadline=None)
@given(
    modes=st.integers(1, 3),
    d=st.integers(1, 3),
    extra=st.integers(0, 1),
    seed=st.integers(0, 2**16),
    offset=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_build_matrix_matches_dense_reference(modes, d, extra, seed, offset):
    d = min(d, 2) if modes == 3 else d
    spec = random_spec(modes, d, seed=seed, sparsity=0.7)
    spec.identity_offset = offset
    cut = FockCutoff(n_max=d + extra, modes=modes)
    assert np.array_equal(build_matrix(spec, cut), dense_reference_matrix(spec, cut))


def test_constant_term_monomial_sum():
    spec = HamiltonianSpec(
        1, 3, {single_key(2, 1): 0.3 - 0.1j, single_key(1, 2): 0.3 + 0.1j}
    )
    beta = 0.8 * np.exp(0.7j)
    expected = 2.0 * np.real((0.3 - 0.1j) * np.conj(beta) ** 2 * beta)
    assert constant_term(spec, [beta]) == pytest.approx(expected, abs=1e-14)


def test_constant_term_matches_displaced_vacuum_energy():
    spec = random_spec(1, 3, seed=17, include_couplings=False)
    cut = FockCutoff(n_max=40)
    h = build_matrix(spec, cut)
    beta = 0.9 - 0.3j
    psi = displacement_matrix(beta, cut) @ vacuum_state(cut)
    assert constant_term(spec, [beta]) == pytest.approx(
        float(np.real(psi.conj() @ (h @ psi))), abs=1e-9
    )


def test_effective_diagonal_number_operator_formula():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    cut = FockCutoff(n_max=8)
    beta = 0.6 + 0.2j
    expected = np.arange(9.0) + abs(beta) ** 2
    assert np.allclose(effective_diagonal(spec, [beta], cut), expected)


def test_effective_exact_matches_quadrature_average():
    spec = random_spec(1, 3, seed=3, include_couplings=False)
    cut = FockCutoff(n_max=30)
    beta = 0.5 + 0.4j
    exact = np.diag(effective_diagonal(spec, [beta], cut))
    quad = phase_averaged_matrix(spec, [beta], cut)
    # compare away from the truncation boundary where the displacement leaks
    assert np.max(np.abs(exact[:12, :12] - quad[:12, :12])) < 1e-8


def test_effective_diagonal_two_mode_coupling():
    key = TermKey((0, 1), (1, 0), (0, 1))
    spec = HamiltonianSpec(2, 2, {key: 0.4, key.conjugate: 0.4})
    cut = FockCutoff(n_max=3, modes=2)
    beta = np.array([0.5 + 0.1j, 0.2 - 0.3j])
    diag = effective_diagonal(spec, beta, cut)
    expected = 2 * 0.4 * np.real(np.conj(beta[0]) * beta[1])
    assert np.allclose(diag, expected)


def test_admissible_key_counts():
    assert len(admissible_keys(1, 2)) == 5
    assert len(admissible_keys(2, 2)) == 14
    assert all(k.order <= 3 for k in admissible_keys(2, 3))


def test_canonical_key_pairs():
    k = single_key(0, 2)
    assert canonical_key(k) == canonical_key(k.conjugate)
    assert canonical_key(single_key(1, 1)) == single_key(1, 1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), modes=st.integers(1, 2), d=st.integers(1, 3))
def test_random_spec_is_hermitian_and_bounded(seed, modes, d):
    spec = random_spec(modes, d, g_max=0.8, seed=seed)
    validate_hermitian(spec)
    assert all(abs(v) <= 0.8 + 1e-12 for v in spec.terms.values())
    assert spec.terms == random_spec(modes, d, g_max=0.8, seed=seed).terms


@pytest.mark.parametrize("modes, d, seed", [(1, 1, 0), (1, 3, 4), (2, 2, 7), (2, 3, 11), (3, 2, 2)])
def test_random_spec_builds_a_hermitian_matrix(modes, d, seed):
    # validate_hermitian checks the pairing only; the dense matrix agrees
    spec = random_spec(modes, d, seed=seed)
    h = build_matrix(spec, FockCutoff(n_max=max(d, 2), modes=modes))
    assert np.max(np.abs(h - h.conj().T)) <= 1e-10


def test_serialization_round_trip():
    spec = random_spec(2, 2, seed=5)
    doc = spec_to_dict(spec)
    back = spec_from_dict(doc)
    assert back.modes == spec.modes
    assert back.max_order == spec.max_order
    assert back.terms == spec.terms
    assert back.identity_offset == spec.identity_offset

