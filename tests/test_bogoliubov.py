import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn.bogoliubov import (
    U_FEASIBLE_MAX,
    FeasibilityError,
    bisection_search,
    boson_mul,
    build_T,
    conjugate_spec_by_mismatch,
    frame_from_ratio,
    frame_from_signed_r,
    learn_firstq,
    mismatch_derivative,
    nb_expansion,
    normal_to_symmetrized,
    overlap_feasible,
    signal_measure,
    symmetrized_to_normal,
)
from bosonlearn.device import SimulatedDevice
from bosonlearn.fockspace import (
    FockCutoff,
    annihilation_matrix,
    creation_matrix,
    number_matrix,
    squeeze_matrix,
)
from bosonlearn.hamiltonian import HamiltonianSpec, build_matrix, single_key
from bosonlearn.protocol import derive_config


@settings(max_examples=30, deadline=None)
@given(r=st.floats(-1.2, 1.2, allow_nan=False))
def test_frame_hyperbolic_identity(r):
    frame = frame_from_signed_r(r)
    assert frame.u**2 - frame.v**2 == pytest.approx(1.0, abs=1e-12)
    assert frame.signed_r == pytest.approx(r, abs=1e-12)
    assert frame.squeeze_z == pytest.approx(-r, abs=1e-12)


def test_frame_from_ratio_branches():
    f = frame_from_ratio(1.0, 0.5)
    assert f.ratio == pytest.approx(2.0)
    assert f.signed_r == pytest.approx(0.5 * math.log(2.0))
    assert f.phi == math.pi
    assert frame_from_ratio(1.0, 2.0).phi == 0.0
    with pytest.raises(ValueError):
        frame_from_ratio(1.0, -1.0)


def test_feasibility_threshold_value():
    assert U_FEASIBLE_MAX == pytest.approx(1.0 / (4.0 - 2.0 * math.sqrt(3.0)))
    assert U_FEASIBLE_MAX == pytest.approx(1.8660254, abs=1e-6)
    assert overlap_feasible(1.7)
    assert not overlap_feasible(1.87)


def test_nb_expansion_against_matrix_conjugation():
    frame = frame_from_signed_r(0.3)
    cut = FockCutoff(n_max=60)
    s = squeeze_matrix(frame.squeeze_z, cut)
    n_b = s.conj().T @ number_matrix(cut) @ s
    exp = nb_expansion(frame)
    terms = {single_key(p, q): complex(v) for (p, q), v in exp.items() if p + q > 0}
    spec = HamiltonianSpec(1, 2, terms, identity_offset=exp[(0, 0)])
    rebuilt = build_matrix(spec, cut)
    assert np.max(np.abs((n_b - rebuilt)[:10, :10])) < 1e-10


def test_boson_multiplication_reordering():
    # b b† = b†b + 1
    assert boson_mul({(0, 1): 1}, {(1, 0): 1}) == {(1, 1): 1, (0, 0): 1}
    # b^2 b†^2 = b†^2 b^2 + 4 b†b + 2
    assert boson_mul({(0, 2): 1}, {(2, 0): 1}) == {(2, 2): 1, (1, 1): 4, (0, 0): 2}
    # P X = X P - i
    assert boson_mul({(0, 1): 1}, {(1, 0): 1}, -1j) == {(1, 1): 1, (0, 0): -1j}


ORDERED_N_MAX = 14
_LADDER = FockCutoff(ORDERED_N_MAX)
_BDAG, _B = creation_matrix(_LADDER), annihilation_matrix(_LADDER)
# (left, right, c) with [right, left] = c: B†, B with [B, B†] = 1, and X, P
# with [P, X] = -i.
ORDERINGS = {
    "boson": (_BDAG, _B, 1),
    "xp": ((_B + _BDAG) / math.sqrt(2), 1j * (_BDAG - _B) / math.sqrt(2), -1j),
}
ordered_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda nm: sum(nm) <= 3),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


def _dense(poly: dict, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    mp = np.linalg.matrix_power
    return sum((c * mp(left, n) @ mp(right, m) for (n, m), c in poly.items()), np.zeros_like(left))


@settings(max_examples=40, deadline=None)
@given(a=ordered_polys, b=ordered_polys, kind=st.sampled_from(sorted(ORDERINGS)))
def test_boson_mul_matches_dense_products(a, b, kind):
    left, right, c = ORDERINGS[kind]
    product = boson_mul(a, b, c)
    expected = _dense(a, left, right) @ _dense(b, left, right)
    # Truncation only corrupts entries within the total degree of the top level.
    degree = max(sum(k) for k in a) + max(sum(k) for k in b)
    edge = ORDERED_N_MAX + 1 - degree
    got = _dense(product, left, right)
    scale = 1.0 + np.max(np.abs(expected[:edge, :edge]))
    assert np.max(np.abs((got - expected)[:edge, :edge])) <= 1e-10 * scale


def test_normal_to_symmetrized_known_cases():
    nb = normal_to_symmetrized(1, 1)
    assert sp.simplify(nb[(2, 0)] - sp.Rational(1, 2)) == 0
    assert sp.simplify(nb[(0, 2)] - sp.Rational(1, 2)) == 0
    assert sp.simplify(nb[(0, 0)] + sp.Rational(1, 2)) == 0
    bdag2 = normal_to_symmetrized(2, 0)
    assert sp.simplify(bdag2[(2, 0)] - sp.Rational(1, 2)) == 0
    assert sp.simplify(bdag2[(0, 2)] + sp.Rational(1, 2)) == 0
    assert sp.simplify(bdag2[(1, 1)] + sp.I) == 0


def test_symmetrized_and_normal_are_mutually_inverse():
    d = 3
    for j in range(d + 1):
        for k in range(d + 1 - j):
            back: dict = {}
            for (p, q), c1 in symmetrized_to_normal(j, k).items():
                for jk, c2 in normal_to_symmetrized(p, q).items():
                    back[jk] = sp.expand(back.get(jk, sp.S.Zero) + c1 * c2)
            for jk, v in back.items():
                expected = sp.S.One if jk == (j, k) else sp.S.Zero
                assert sp.simplify(v - expected) == 0


def test_conjugate_spec_identity_at_zero_mismatch():
    terms = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
    assert conjugate_spec_by_mismatch(terms, 0.0) == terms


def test_conjugate_spec_matches_nb_expansion():
    delta = 0.22
    out = conjugate_spec_by_mismatch({(1, 1): 1.0}, delta)
    exp = nb_expansion(frame_from_signed_r(delta))
    for key, v in exp.items():
        assert out.get(key, 0.0) == pytest.approx(v, abs=1e-12)


def test_conjugate_spec_matches_matrix_conjugation():
    terms = {(1, 1): 1.0 + 0j, (2, 0): 0.15 + 0j, (0, 2): 0.15 + 0j}
    delta = 0.18
    cut = FockCutoff(n_max=60)
    spec = HamiltonianSpec(1, 2, {single_key(p, q): v for (p, q), v in terms.items()})
    s = squeeze_matrix(-delta, cut)
    target = s.conj().T @ build_matrix(spec, cut) @ s
    out = conjugate_spec_by_mismatch(terms, delta)
    rebuilt_spec = HamiltonianSpec(
        1,
        2,
        {single_key(p, q): v for (p, q), v in out.items() if p + q > 0},
        identity_offset=float(np.real(out.get((0, 0), 0.0))),
    )
    rebuilt = build_matrix(rebuilt_spec, cut)
    assert np.max(np.abs((target - rebuilt)[:10, :10])) < 1e-10


def test_mismatch_derivative_of_number_operator():
    assert mismatch_derivative({(1, 1): 1.0}) == {(2, 0): 1.0, (0, 2): 1.0}


@pytest.mark.parametrize("pq", [(p, l - p) for l in range(5) for p in range(l + 1)])
def test_mismatch_derivative_matches_central_difference(pq):
    g = 0.7 - 0.3j
    step = 1e-6
    plus = conjugate_spec_by_mismatch({pq: g}, step)
    minus = conjugate_spec_by_mismatch({pq: g}, -step)
    deriv = mismatch_derivative({pq: g})
    for key in set(plus) | set(minus) | set(deriv):
        numeric = (plus.get(key, 0.0) - minus.get(key, 0.0)) / (2.0 * step)
        assert abs(deriv.get(key, 0.0) - numeric) < 1e-9


def test_transform_of_number_operator():
    for mw in (1.0, 2.0):
        t = build_T(2, mass_omega=mw)
        g = t.transform({(0, 0): 0.0, (1, 1): 1.0})
        assert g[(2, 0)] == pytest.approx(0.5 * mw, abs=1e-12)
        assert g[(0, 2)] == pytest.approx(0.5 / mw, abs=1e-12)
        assert g[(0, 0)] == pytest.approx(-0.5, abs=1e-12)
        assert abs(g[(1, 1)]) < 1e-12


def test_transform_matrix_invertible():
    t = build_T(4)
    assert t.sigma_min > 1e-3
    assert t.matrix.shape[0] == t.matrix.shape[1] == 15


def test_transform_variance_propagation():
    t = build_T(2)
    var = t.transform_variance({(1, 1): 1e-4})
    row = t.matrix[t.keys_normal.index((1, 1))]
    for i, key in enumerate(t.keys_sym):
        assert var[key] == pytest.approx(1e-4 * abs(row[i]) ** 2)


def signal_device(ratio, seed=0, n_max=48):
    frame = frame_from_ratio(1.0, 1.0 / ratio)
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    dev = SimulatedDevice(
        spec, FockCutoff(n_max, 1), master_seed=seed, true_frame_z=(complex(-frame.signed_r),)
    )
    return dev, frame


def test_signal_function_changes_sign_at_true_frame():
    dev, frame = signal_device(1.3)
    cfg = derive_config(2, g_max=2.0, k_max=8, noiseless=True, shots=20, l_steps=None)
    f_lo, _, _ = signal_measure(dev, frame.signed_r - 0.1, cfg)
    f_hi, _, _ = signal_measure(dev, frame.signed_r + 0.1, cfg)
    f_at, _, _ = signal_measure(dev, frame.signed_r, cfg)
    assert f_lo * f_hi < 0
    assert abs(f_at) < 1e-6


def test_bisection_rejects_infeasible_bracket():
    dev, _ = signal_device(1.3)
    with pytest.raises(FeasibilityError):
        bisection_search(dev, (-1.5, 1.5), eps_r=1e-2, noiseless=True)


def test_bisection_noiseless_exact_iteration_count():
    dev, frame = signal_device(1.3)
    res = bisection_search(dev, (-0.3, 0.3), eps_g=1e-2, noiseless=True)
    assert res.iterations == math.ceil(math.log2(0.6 / res.eps_r))
    assert not res.fallback_used
    assert abs(res.r_hat - frame.signed_r) < res.eps_r


def test_bisection_requires_sign_change():
    dev, _ = signal_device(1.3)
    with pytest.raises(ValueError):
        bisection_search(dev, (0.2, 0.3), eps_r=1e-2, noiseless=True)


def test_learn_firstq_noiseless_recovers_frame_and_coefficients():
    gp = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
    spec = HamiltonianSpec(1, 4, {single_key(p, q): v for (p, q), v in gp.items()})
    frame = frame_from_ratio(1.0, 1.0 / 1.3)
    dev = SimulatedDevice(
        spec, FockCutoff(48, 1), master_seed=0, true_frame_z=(complex(-frame.signed_r),)
    )
    res = learn_firstq(dev, 4, eps_g=5e-3, bracket=(-0.3, 0.3), noiseless=True)
    assert abs(res.r_hat - frame.signed_r) < 2 * res.bisection.eps_r
    truth = build_T(4, mass_omega=1.0 / 1.3).transform({(0, 0): 0.0, **gp})
    for key, val in res.g_physical.items():
        # noiseless recovery errors come only from the residual frame error
        tol = 3 * res.stderr[key] + 1e-8
        assert abs(val - truth.get(key, 0.0)) <= tol
