import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn.hamiltonian import TermKey, admissible_keys, constant_term, random_spec, single_key
from bosonlearn.oracles import angular_idft, predict_covariance, radial_fit
from bosonlearn.protocol import joint_grid
from bosonlearn.recovery import (
    angular_angles,
    apply_staged_fit,
    chebyshev_nodes,
    covariance_compare,
    lipschitz_bound,
    params_to_coeffs,
    plan_staged_fit,
    radial_design,
    real_design_matrix,
    real_parameters,
    single_mode_pipeline,
    spam_bound,
    staged_fit,
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
        assert pipe.max_residual(c) < 1e-9
        # one value off by a full RPE period, 2 pi/t0 at t0 = 0.6
        wrapped = c.copy()
        wrapped[len(c) // 2] += 2 * np.pi / 0.6
        assert pipe.max_residual(wrapped) > 1.0


def test_pipeline_is_built_once_and_read_only():
    pipe = single_mode_pipeline(3)
    assert single_mode_pipeline(3) is pipe
    assert single_mode_pipeline(3, r_min=0.2, r_max=1) is pipe
    assert single_mode_pipeline(3, 0.3) is not pipe
    for array in (pipe.kplus, pipe.hat, pipe.design.nodes, pipe.design.pinv):
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
    bound = lipschitz_bound(d, 1.0, coeffs)
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
    unit = {(p, l - p): 1.0 for l in range(1, d + 1) for p in range(l + 1)}
    bound = lipschitz_bound(d, 1.0, unit)
    radial = sum(l * (l + 1) for l in range(1, d + 1))
    angular = sum(l * sum(abs(l - 2 * p) for p in range(l + 1)) for l in range(1, d + 1))
    assert bound == math.hypot(radial, angular)
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
    (fit,) = staged_fit([(pts, y, keys)])
    for k, v in spec.terms.items():
        assert abs(fit.estimates[k] - v) < 1e-9


def test_staged_fit_shared_offset_inflates_variances():
    key = TermKey((0, 1), (1, 0), (0, 1))
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
    y = np.zeros(12)
    (plain,) = staged_fit([(pts, y, [key, key.conjugate])])
    (inflated,) = staged_fit([(pts, y, [key, key.conjugate])], offset=0.0)
    plain_var, inflated_var = plain.coefficient_variances(0.01), inflated.coefficient_variances(0.01)
    for k in plain_var:
        assert inflated_var[k] > plain_var[k]


def _hierarchical_stages(modes, d, values):
    """The hierarchical learner's stages on joint_grid(modes, d), with values
    cut from one vector in measurement order (offset first)."""
    grid = joint_grid(modes, d)
    keys = admissible_keys(modes, d)
    stages = []
    for m in range(modes):
        iso = np.zeros_like(grid)
        iso[:, m] = grid[:, m]
        stages.append((iso, [k for k in keys if k.modes == (m,)]))
    stages.append((grid, [k for k in keys if k.is_coupling]))
    n = len(grid)
    return values[0], [(pts, values[1 + i * n : 1 + (i + 1) * n], ks) for i, (pts, ks) in enumerate(stages)]


def test_staged_fit_variances_are_its_linear_map_row_norms():
    # the fit is linear in its values, so the unit vectors trace out its map
    n_values = 1 + 3 * len(joint_grid(2, 2))
    columns = []
    for j in range(n_values):
        offset, stages = _hierarchical_stages(2, 2, np.eye(n_values)[j])
        columns.append(np.concatenate([fit.x for fit in staged_fit(stages, offset)]))
    traced = np.column_stack(columns)
    eps_c = 0.02
    offset, stages = _hierarchical_stages(2, 2, np.zeros(n_values))
    row = 0
    for fit in staged_fit(stages, offset):
        rows = traced[row : row + len(fit.params)]
        row += len(fit.params)
        np.testing.assert_allclose(fit.linear_map, rows, rtol=1e-12, atol=1e-14)
        expected: dict = {}
        for (key, _), v in zip(fit.params, eps_c**2 * np.sum(rows**2, axis=1)):
            expected[key] = expected.get(key, 0.0) + v
        for key, var in fit.coefficient_variances(eps_c).items():
            assert var == pytest.approx(expected[key if key in expected else key.conjugate], rel=1e-12)
    assert row == len(traced)


def test_staged_fit_variances_match_dense_propagation():
    # Dense oracle: with x_m = P_m (y_m - o 1) and r = y_j - o 1 - sum_m Phi_m x_m,
    # Cov(r) = eps^2 (I + v v^T + sum_m Phi_m P_m P_m^T Phi_m^T), v = 1 - sum_m Phi_m P_m 1.
    n = len(joint_grid(2, 2))
    rng = np.random.default_rng(21)
    offset, stages = _hierarchical_stages(2, 2, rng.normal(size=1 + 3 * n))
    eps_c = 0.02
    fits = staged_fit(stages, offset)
    ones = np.ones(n)
    v = ones.copy()
    r_cov = np.eye(n)
    residual = stages[-1][1] - offset
    for (pts, y, keys), fit in zip(stages[:-1], fits[:-1]):
        phi = real_design_matrix(pts, fit.params)
        pinv = np.linalg.pinv(phi)
        x, *_ = np.linalg.lstsq(phi, y - offset, rcond=None)
        np.testing.assert_allclose(fit.x, x, rtol=1e-12)
        single_cov = eps_c**2 * pinv @ (np.eye(n) + np.outer(ones, ones)) @ pinv.T
        np.testing.assert_allclose(eps_c**2 * fit.linear_map @ fit.linear_map.T, single_cov, rtol=1e-12)
        v -= phi @ pinv @ ones
        r_cov += phi @ pinv @ pinv.T @ phi.T
        residual = residual - phi @ fit.x
    r_cov += np.outer(v, v)
    phi2 = real_design_matrix(stages[-1][0], fits[-1].params)
    pinv2 = np.linalg.pinv(phi2)
    dense = eps_c**2 * pinv2 @ r_cov @ pinv2.T
    staged = eps_c**2 * fits[-1].linear_map @ fits[-1].linear_map.T
    np.testing.assert_allclose(staged, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
    x2, *_ = np.linalg.lstsq(phi2, residual, rcond=None)
    np.testing.assert_allclose(fits[-1].x, x2, rtol=1e-12)



def _one_pass_staged_fit(stages, offset):
    """staged_fit as one loop that builds each stage's design, SVD and map
    where it fits the stage: the reference the planned fit reproduces bit
    for bit.  Returns per stage (x, estimates, linear_map, max_residual,
    variance weights)."""
    first = 0 if offset is None else 1
    n_values = first + sum(len(points) for points, _, _ in stages)
    done = []
    for points, values, keys in stages:
        params = real_parameters(keys)
        design = real_design_matrix(points, params)
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        pinv = (vt.T / s) @ u.T
        y = np.array(values, dtype=float)
        linear_map = np.zeros((len(params), n_values))
        linear_map[:, first : first + len(points)] = pinv
        if offset is not None:
            y -= offset
            linear_map[:, 0] = -pinv.sum(axis=1)
        for prior_params, prior_x, prior_map in done:
            prior_design = real_design_matrix(points, prior_params)
            y -= prior_design @ prior_x
            linear_map -= (pinv @ prior_design) @ prior_map
        x = pinv @ y
        residual = float(np.max(np.abs(y - design @ x)))
        done.append((params, x, linear_map))
        yield x, params_to_coeffs(params, x), linear_map, residual, [float(r @ r) for r in linear_map]
        first += len(points)


@pytest.mark.parametrize("with_offset", [False, True])
@pytest.mark.parametrize("modes,d", [(2, 2), (2, 3), (3, 2)])
def test_planned_staged_fit_is_bit_identical_to_a_one_pass_fit(modes, d, with_offset):
    rng = np.random.default_rng(10 * modes + d)
    n_values = 1 + (modes + 1) * len(joint_grid(modes, d))
    offset, stages = _hierarchical_stages(modes, d, rng.normal(size=n_values))
    offset = offset if with_offset else None
    fits = staged_fit(stages, offset)
    for fit, (x, estimates, linear_map, residual, weights) in zip(
        fits, _one_pass_staged_fit(stages, offset), strict=True
    ):
        assert np.array_equal(fit.x, x)
        assert fit.estimates == estimates
        assert np.array_equal(fit.linear_map, linear_map)
        assert fit.max_residual == residual
        assert list(fit.stage.weights) == weights


def test_a_plan_serves_many_value_sets_and_is_read_only():
    rng = np.random.default_rng(8)
    n_values = 1 + 3 * len(joint_grid(2, 2))
    offset, stages = _hierarchical_stages(2, 2, np.zeros(n_values))
    plan = plan_staged_fit([(points, keys) for points, _, keys in stages], with_offset=True)
    for _ in range(3):
        offset, stages = _hierarchical_stages(2, 2, rng.normal(size=n_values))
        planned = apply_staged_fit(plan, [values for _, values, _ in stages], offset)
        for fit, expected in zip(planned, staged_fit(stages, offset), strict=True):
            assert np.array_equal(fit.x, expected.x)
            assert fit.coefficient_variances(0.02) == expected.coefficient_variances(0.02)
    for stage in plan:
        for array in (stage.design, stage.pinv, stage.linear_map, *stage.prior_designs):
            assert not array.flags.writeable
    with pytest.raises(ValueError, match="offset"):
        apply_staged_fit(plan, [values for _, values, _ in stages], None)

@pytest.mark.parametrize("modes,d", [(2, 2), (2, 3), (3, 2)])
def test_isolated_single_design_is_its_joint_design(modes, d):
    grid = joint_grid(modes, d)
    keys = admissible_keys(modes, d)
    for m in range(modes):
        iso = np.zeros_like(grid)
        iso[:, m] = grid[:, m]
        params = real_parameters([k for k in keys if k.modes == (m,)])
        assert np.array_equal(real_design_matrix(iso, params), real_design_matrix(grid, params))


def test_multidim_fit_rejects_numerically_rank_deficient_design():
    # mode 1 shrunk to |beta| <= 1e-9: its second-order columns sit near 1e-18,
    # so sigma_min / sigma_max ~ 1e-19, nonzero but below pinv's 1e-15 cutoff
    grid = joint_grid(2, 2)
    grid[:, 1] *= 1e-9
    with pytest.raises(np.linalg.LinAlgError):
        staged_fit([(grid, np.zeros(len(grid)), admissible_keys(2, 2))])


def test_staged_fit_forms_no_points_by_values_matrix():
    # the hierarchical stages on 13,824 points: a dense points x values float64
    # matrix would be 6.1 GB, and one points x points matrix 1.53 GB
    offset, stages = _hierarchical_stages(3, 3, np.zeros(1 + 4 * len(joint_grid(3, 3))))
    tracemalloc.start()
    try:
        staged_fit(stages, offset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_covariance_compare_ordering_and_woodbury():
    rng = np.random.default_rng(11)
    m1 = rng.normal(size=(30, 4))
    m2 = rng.normal(size=(30, 3))
    report = covariance_compare(m1, m2)
    assert report.min_eig_single >= -1e-10
    assert report.min_eig_coupling >= -1e-10
    assert report.woodbury_residual < 1e-9
    assert report.ordered
