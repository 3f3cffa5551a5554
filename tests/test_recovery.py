import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn.hamiltonian import TermKey, constant_term, random_spec, single_key
from bosonlearn.recovery import (
    angular_angles,
    angular_idft,
    chebyshev_nodes,
    coefficient_order_sums,
    covariance_compare,
    lipschitz_bound,
    multidim_fit,
    params_to_coeffs,
    predict_covariance,
    radial_design,
    radial_fit,
    real_design_matrix,
    real_parameters,
    single_mode_pipeline,
    spam_bound,
)


def random_hermitian_coeffs(d, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for l in range(1, d + 1):
        for p in range(l + 1):
            q = l - p
            if (q, p) in coeffs:
                coeffs[(p, q)] = np.conj(coeffs[(q, p)])
            elif p == q:
                coeffs[(p, q)] = complex(rng.normal())
            else:
                coeffs[(p, q)] = complex(rng.normal(), rng.normal())
    return coeffs


def eval_constant(coeffs, beta):
    return float(
        np.real(sum(g * np.conj(beta) ** p * beta**q for (p, q), g in coeffs.items()))
    )


def test_chebyshev_nodes_analytic_positions():
    nodes = chebyshev_nodes(4, 0.2, 1.0)
    mu = np.arange(1, 5)
    expected = np.sort(0.6 + 0.4 * np.cos((2 * mu - 1) * np.pi / 8))
    assert np.allclose(nodes, expected)
    assert np.all((nodes >= 0.2) & (nodes <= 1.0))
    with pytest.raises(ValueError):
        chebyshev_nodes(3, 0.5, 0.4)


def test_chebyshev_better_conditioned_than_equispaced():
    d = 10
    design = radial_design(d, 0.2, 1.0)
    equi = np.linspace(0.2, 1.0, d + 1)
    vand_equi = equi[:, None] ** np.arange(1, d + 1)[None, :]
    assert design.cond < np.linalg.cond(vand_equi)


def test_radial_fit_exact_on_polynomial_data():
    design = radial_design(3)
    g = np.array([0.4, -1.2, 0.7])
    c = design.vandermonde @ g
    assert np.allclose(radial_fit(design, c), g, atol=1e-12)


def test_radial_fit_shape_check():
    design = radial_design(3)
    with pytest.raises(ValueError):
        radial_fit(design, np.zeros(3))


def test_angular_angles_are_exact_fractions():
    fracs = angular_angles(2)
    assert [float(f) for f in fracs] == [0.0, 1 / 3, 2 / 3]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), order=st.integers(1, 4))
def test_angular_idft_round_trip(seed, order):
    coeffs = {
        k: v for k, v in random_hermitian_coeffs(order, seed).items() if sum(k) == order
    }
    theta = np.pi * np.arange(order + 1) / (order + 1)
    g_l = np.array(
        [sum(g * np.exp(1j * (q - p) * t) for (p, q), g in coeffs.items()) for t in theta]
    )
    out = angular_idft(g_l, order)
    for key, val in coeffs.items():
        assert abs(out[key] - val) < 1e-10


def test_angular_idft_hermitian_symmetrization():
    out = angular_idft(np.array([1.0, 0.5, -0.2]), 2)
    assert out[(2, 0)] == pytest.approx(np.conj(out[(0, 2)]))
    assert abs(out[(1, 1)].imag) < 1e-12


def test_pipeline_exact_recovery():
    for d in (2, 3, 4):
        coeffs = random_hermitian_coeffs(d, 40 + d)
        pipe = single_mode_pipeline(d)
        c = np.array(
            [eval_constant(coeffs, r * np.exp(1j * t)) for r, t in pipe.points]
        )
        out = pipe.solve(c)
        for key, val in coeffs.items():
            assert abs(out[key] - val) < 1e-9


def test_pipeline_is_built_once_and_read_only():
    pipe = single_mode_pipeline(3)
    assert single_mode_pipeline(3) is pipe
    assert single_mode_pipeline(3, r_min=0.2, r_max=1) is pipe
    assert single_mode_pipeline(3, 0.3) is not pipe
    for array in (pipe.kplus, pipe.design.nodes, pipe.design.pinv):
        assert array.flags.writeable is False
    with pytest.raises(ValueError):
        pipe.kplus[0, 0] = 0.0


def test_pipeline_variances_match_monte_carlo():
    d = 3
    pipe = single_mode_pipeline(d)
    eps_c = 0.02
    rng = np.random.default_rng(12)
    noise = eps_c * rng.normal(size=(4000, len(pipe.points)))
    samples = noise @ pipe.kplus.T
    emp = np.mean(np.abs(samples) ** 2, axis=0)
    pred = pipe.coefficient_variances(eps_c)
    for i, key in enumerate(pipe.coeff_keys):
        assert emp[i] == pytest.approx(pred[key], rel=0.12)


def test_predict_covariance_trace_identity():
    design = radial_design(4)
    report = predict_covariance(design, 0.05)
    for l in range(1, 5):
        assert report.order_mse[l] == pytest.approx(report.radial_cov[l - 1, l - 1])
    assert report.inverse_eigenvalue_sum == pytest.approx(
        float(np.sum(1.0 / report.gram_eigenvalues))
    )


def test_lipschitz_bound_dominates_numeric_gradient():
    d = 3
    coeffs = random_hermitian_coeffs(d, 77)
    sums, weighted = coefficient_order_sums(coeffs)
    bound = lipschitz_bound(d, 1.0, sums, weighted)
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(200):
        r = rng.uniform(0.05, 1.0 - 1e-3)
        t = rng.uniform(0, 2 * np.pi)
        dr = (
            eval_constant(coeffs, (r + h) * np.exp(1j * t))
            - eval_constant(coeffs, (r - h) * np.exp(1j * t))
        ) / (2 * h)
        dt = (
            eval_constant(coeffs, r * np.exp(1j * (t + h)))
            - eval_constant(coeffs, r * np.exp(1j * (t - h)))
        ) / (2 * h * r)
        assert math.hypot(dr, dt) <= bound + 1e-6


def test_lipschitz_bound_unit_coefficient_reduction():
    d = 4
    bound = lipschitz_bound(d, 1.0)
    radial = sum(l * (l + 1) for l in range(1, d + 1))
    assert bound >= radial


def test_spam_bound_fields():
    pipe = single_mode_pipeline(2)
    delta = np.full(len(pipe.points), 1e-3 / math.sqrt(len(pipe.points)))
    report = spam_bound(pipe, 5.0, delta, observed=1e-3)
    assert report.delta_beta_norm == pytest.approx(1e-3)
    assert report.bound == pytest.approx(5.0 / pipe.sigma_min * 1e-3)
    assert report.observed == 1e-3


def test_real_parameters_pair_structure():
    keys = [single_key(1, 1), single_key(2, 0), single_key(0, 2)]
    params = real_parameters(keys)
    assert (single_key(1, 1), "re") in params
    # the conjugate pair contributes exactly one canonical (re, im) pair
    assert len(params) == 3


def test_params_round_trip_through_design():
    keys = [single_key(1, 1), single_key(2, 0), single_key(0, 1)]
    params = real_parameters(keys)
    x = np.array([0.4, -0.3, 0.2, 0.6, -0.5])[: len(params)]
    coeffs = params_to_coeffs(params, x)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
    phi = real_design_matrix(pts, params)
    direct = [
        float(
            np.real(
                sum(g * np.conj(b[0]) ** k.p[0] * b[0] ** k.q[0] for k, g in coeffs.items())
            )
        )
        for b in pts
    ]
    assert np.allclose(phi @ x, direct)


def test_multidim_fit_exact_recovery():
    spec = random_spec(2, 2, seed=9)
    keys = list(spec.terms.keys())
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    y = np.array([constant_term(spec, b) for b in pts])
    fit = multidim_fit(pts, y, keys)
    for k, v in spec.terms.items():
        assert abs(fit.estimates[k] - v) < 1e-9


def test_multidim_fit_extra_covariance_inflates_variances():
    key = TermKey((0, 1), (1, 0), (0, 1))
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
    y = np.zeros(12)
    plain = multidim_fit(pts, y, [key, key.conjugate], eps_c=0.01)
    inflated = multidim_fit(
        pts, y, [key, key.conjugate], eps_c=0.01, extra_cov=1e-4 * np.ones((12, 12))
    )
    for k in plain.coefficient_variances():
        assert inflated.coefficient_variances()[k] >= plain.coefficient_variances()[k]


def test_covariance_compare_ordering_and_woodbury():
    rng = np.random.default_rng(11)
    m1 = rng.normal(size=(30, 4))
    m2 = rng.normal(size=(30, 3))
    report = covariance_compare(m1, m2)
    assert report.min_eig_single >= -1e-10
    assert report.min_eig_coupling >= -1e-10
    assert report.woodbury_residual < 1e-9
    assert report.ordered
