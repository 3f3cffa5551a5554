import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn import bogoliubov
from bosonlearn.bogoliubov import (
    G_MAX_PRIOR,
    SIGNAL_KEY,
    U_FEASIBLE_MAX,
    FeasibilityError,
    _cfg_for_precision,
    _exact_entries,
    _plan_final_learn,
    bisection_search,
    boson_mul,
    build_T,
    frame_from_ratio,
    frame_from_signed_r,
    learn_firstq,
    mismatch_derivative,
    overlap_feasible,
    signal_measure,
    tensor_transform,
)
from bosonlearn.device import SimulatedDevice
from bosonlearn.fockspace import FockCutoff
from bosonlearn.hamiltonian import HamiltonianSpec, admissible_keys, build_matrix, single_key
from bosonlearn.oracles import (
    annihilation_matrix,
    conjugate_spec_by_mismatch,
    creation_matrix,
    nb_expansion,
    normal_to_symmetrized,
    number_matrix,
    squeeze_matrix,
    symmetrized_to_normal,
)
from bosonlearn.protocol import LearnedCoefficients, derive_config, learn_single_mode
from bosonlearn.recovery import single_mode_pipeline


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


def _sympy_entries(d: int) -> tuple[int, list]:
    """build_T's size and exact entries (row, col, expr, exponent), derived
    afresh in sympy."""
    keys = [(p, l - p) for l in range(d + 1) for p in range(l + 1)]
    return len(keys), [
        (i, keys.index((j, k)), expr, sp.Rational(j - k, 2))
        for i, (p, q) in enumerate(keys)
        for (j, k), expr in normal_to_symmetrized(p, q).items()
    ]


def _uncached_T(d: int, mass_omega: float, entries=None) -> np.ndarray:
    """build_T's matrix derived afresh in sympy, row by row, each entry
    evaluated by sympy; entries, when given, are _sympy_entries(d), derived
    once for many mass_omega."""
    n, entries = entries or _sympy_entries(d)
    mat = np.zeros((n, n), dtype=complex)
    mw = sp.Float(mass_omega, 30)
    for i, col, expr, exponent in entries:
        mat[i, col] = complex(sp.N(expr * mw**exponent, 25))
    return mat


def test_build_T_is_bit_identical_to_an_uncached_build():
    # the exact rows are cached per degree; the rescaling still runs per
    # call, and what a caller does to one result cannot reach the next
    for d in range(1, 5):
        for mw in (0.5, 0.77, 1.0, 1.3):
            expected = _uncached_T(d, mw)
            first = build_T(d, mass_omega=mw)
            assert np.array_equal(first.matrix, expected)
            keys = list(first.keys)
            assert len(keys) == (d + 1) * (d + 2) // 2
            first.matrix[:] = 0.0
            first.keys.clear()
            for p, q in keys:
                normal_to_symmetrized(p, q)[(0, 0)] = sp.Integer(7)
            again = build_T(d, mass_omega=mw)
            assert np.array_equal(again.matrix, expected)
            assert again.keys == keys



@pytest.mark.parametrize("d", range(1, 5))
def test_a_second_build_T_runs_no_exact_algebra(monkeypatch, d):
    first = build_T(d, mass_omega=0.8)
    calls = []
    monkeypatch.setattr(bogoliubov, "_xp_to_symmetrized", lambda normal: calls.append(normal))
    again = build_T(d, mass_omega=0.8)
    assert calls == []
    assert np.array_equal(again.matrix, first.matrix)
    assert isinstance(_exact_entries(d), tuple)

def test_build_T_is_the_sympy_matrix_at_ties_squares_and_random_frames():
    # build_T rounds each rescaled entry once from exact Fractions (rational
    # values, where -3/4 mw can be a tie) or 60-digit Decimals; sympy's 25-digit
    # evaluation is the oracle.  Keys run by degree and row (p, q) reaches no
    # column above degree p + q, so build_T(d) is the leading block of the
    # degree-4 matrix.
    special = [0.25, 0.75, 1.0, 2.0, 4.0, 1 / 1.3]
    seeded = np.exp(np.random.default_rng(23).uniform(-0.7, 0.7, 200)).tolist()
    entries = _sympy_entries(4)
    for mw in special + seeded:
        expected = _uncached_T(4, mw, entries)
        for d in range(1, 5):
            n = (d + 1) * (d + 2) // 2
            got = build_T(d, mass_omega=mw).matrix
            assert np.array_equal(got, expected[:n, :n]), (d, mw)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected[:n, :n].view(float)))


@pytest.mark.parametrize("d", range(1, 7))
def test_exact_entries_are_the_sympy_expressions(d):
    # the runtime's rational entry i^k c 2^{-(p+q)/2} equals the oracle's
    # sympy expression exactly, at the same nonzero positions
    keys = [(p, l - p) for l in range(d + 1) for p in range(l + 1)]
    expected = {
        (i, keys.index(jk)): expr
        for i, (p, q) in enumerate(keys)
        for jk, expr in normal_to_symmetrized(p, q).items()
    }
    got = {
        (i, col): sp.I**k * sp.Rational(c.numerator, c.denominator) * sp.sqrt(2) ** -sum(keys[i])
        for i, col, c, j, k in _exact_entries(d)
    }
    assert set(got) == set(expected)
    for at, expr in expected.items():
        assert sp.expand(got[at] - expr) == 0, at


def _learned(modes: int, d: int, seed: int) -> LearnedCoefficients:
    """Random coefficients and standard errors on every admissible key."""
    rng = np.random.default_rng(seed)
    keys = admissible_keys(modes, d)
    values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    return LearnedCoefficients(
        estimates=dict(zip(keys, (complex(v) for v in values))),
        stderr=dict(zip(keys, (float(s) for s in rng.uniform(1e-3, 1e-2, len(keys))))),
        eps_c=0.0,
        time_cost=0.0,
        identity_offset=float(rng.normal()),
    )


def _rows(learned: LearnedCoefficients, modes: int, identity_var: float) -> dict:
    """(per-mode normal keys) -> (coefficient, variance), identity included."""
    rows = {((0, 0),) * modes: (complex(learned.identity_offset), identity_var)}
    for key, value in learned.estimates.items():
        pq = [(0, 0)] * modes
        for m, p, q in zip(key.modes, key.p, key.q):
            pq[m] = (p, q)
        rows[tuple(pq)] = (value, learned.stderr[key] ** 2)
    return rows


def _expand(rows: tuple, transforms) -> list[tuple[tuple, complex]]:
    """Terms of prod_m T_m[rows[m], .] as an explicit sum over per-mode columns."""
    per_mode = [t.transform({row: 1.0}).items() for t, row in zip(transforms, rows)]
    return [
        (tuple(jk for jk, _ in cols), math.prod(c for _, c in cols))
        for cols in itertools.product(*per_mode)
    ]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("mw", [1.0, 0.6, 1.7])
def test_tensor_transform_one_mode_matches_transform(d, mw):
    t = build_T(d, mass_omega=mw)
    learned = _learned(1, d, seed=d)
    g, stderr = tensor_transform(learned, (t,), 2.5e-5)
    rows = _rows(learned, 1, 2.5e-5)
    expected = t.transform({row: value for (row,), (value, _) in rows.items()})
    assert {jk: v for (jk,), v in g.items()} == expected
    var = {jk: 0.0 for jk in t.keys}
    for (row,), (_, v) in rows.items():
        for i, jk in enumerate(t.keys):
            var[jk] += v * abs(t.matrix[t.keys.index(row), i]) ** 2
    for (jk,), se in stderr.items():
        assert se**2 == pytest.approx(var[jk], rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_transform_two_modes_matches_double_sum(d):
    transforms = (build_T(d, mass_omega=1.3), build_T(d, mass_omega=0.7))
    learned = _learned(2, d, seed=10 + d)
    g, stderr = tensor_transform(learned, transforms, 1e-6)
    g_sum: dict = {}
    var_sum: dict = {}
    for rows, (value, v) in _rows(learned, 2, 1e-6).items():
        for key, c in _expand(rows, transforms):
            g_sum[key] = g_sum.get(key, 0.0) + value * c
            var_sum[key] = var_sum.get(key, 0.0) + v * abs(c) ** 2
    degrees = [sum(jk) for jk in transforms[0].keys]
    reached = {
        (a, b)
        for a, da in zip(transforms[0].keys, degrees)
        for b, db in zip(transforms[1].keys, degrees)
        if da + db <= d
    }
    assert set(g) == set(stderr) == reached
    if d == 2:
        assert len(g) == 15
    for key in g:
        assert abs(g[key] - g_sum[key]) <= 1e-12 * (1.0 + abs(g_sum[key]))
        assert stderr[key] ** 2 == pytest.approx(var_sum[key], rel=1e-12)


@pytest.mark.parametrize("modes", [1, 2])
def test_tensor_transform_frame_error_matches_mismatch_oracle(modes):
    d = 2
    transforms = tuple(build_T(d, mass_omega=mw) for mw in (1.2, 0.8)[:modes])
    eps = (3e-3, 5e-3)[:modes]
    learned = _learned(modes, d, seed=30 + modes)
    rows = _rows(learned, modes, 1e-6)
    g, base = tensor_transform(learned, transforms, 1e-6)
    _, stderr = tensor_transform(learned, transforms, 1e-6, frame_eps=eps)
    for m in range(modes):
        # mix_m: each coefficient's mismatch derivative on mode m, transformed
        mix: dict = {}
        for row, (value, _) in rows.items():
            for pq, c in mismatch_derivative({row[m]: value}).items():
                shifted = row[:m] + (pq,) + row[m + 1 :]
                for key, c2 in _expand(shifted, transforms):
                    mix[key] = mix.get(key, 0.0) + c * c2
        for key in base:
            j, k = key[m]
            sens = abs(j - k) * abs(g[key]) + abs(mix.get(key, 0.0))
            base[key] = math.sqrt(base[key] ** 2 + (eps[m] * sens) ** 2)
    for key, se in stderr.items():
        assert se == pytest.approx(base[key], rel=1e-10)


def signal_device(ratio, seed=0, n_max=48):
    frame = frame_from_ratio(1.0, 1.0 / ratio)
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    dev = SimulatedDevice(
        spec, FockCutoff(n_max, 1), master_seed=seed, true_frame_z=(complex(-frame.signed_r),)
    )
    return dev, frame


def test_signal_function_changes_sign_at_true_frame():
    dev, frame = signal_device(1.3)
    cfg = derive_config(2, g_max=2.0, k_max=8, shots=None, l_steps=None)
    f_lo, _, _ = signal_measure(dev, frame.signed_r - 0.1, cfg)
    f_hi, _, _ = signal_measure(dev, frame.signed_r + 0.1, cfg)
    f_at, _, _ = signal_measure(dev, frame.signed_r, cfg)
    assert f_lo * f_hi < 0
    assert abs(f_at) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_the_signal_row_lives_on_the_order_2_angles_and_sums_to_zero(d):
    # the B†^2 row reads only the three order-2 canonical angles at the d+1
    # radial nodes, so the other grid points and the beta = 0 offset carry
    # nothing into the signal
    pipe = single_mode_pipeline(d)
    full = pipe.kplus[pipe.coeff_keys.index(SIGNAL_KEY)]
    row = pipe.coefficient_row(SIGNAL_KEY)
    assert len(row.support) == np.count_nonzero(full) == 3 * (d + 1)
    assert {round(pipe.points[i][1] * 3 / math.pi, 9) for i in row.support} == {0.0, 1.0, 2.0}
    assert np.array_equal(row.weights, full[row.support])
    assert row.norm == pytest.approx(np.linalg.norm(full), rel=1e-15)
    assert abs(full.sum()) <= 1e-13 * np.abs(full).sum()


@pytest.mark.parametrize("d, gprime", [(2, {(1, 1): 1.0}), (4, {(1, 1): 1.0, (2, 2): 0.2})])
def test_the_signal_is_the_full_learns_coefficient_on_the_exact_channel(d, gprime):
    frame = frame_from_ratio(1.0, 1.0 / 1.3)
    spec = HamiltonianSpec(1, d, {single_key(p, q): v for (p, q), v in gprime.items()})
    dev = SimulatedDevice(spec, FockCutoff(48, 1), true_frame_z=(complex(-frame.signed_r),))
    cfg = derive_config(d, g_max=G_MAX_PRIOR, k_max=10, shots=None, l_steps=None)
    for r_prime in (-0.2, 0.0, 0.25):
        f, se, diagnostics = signal_measure(dev, r_prime, cfg, d=d)
        learned = learn_single_mode(dev, d, cfg, frame_z=(complex(-r_prime),), subtract_offset=True)
        g = learned.estimates[single_key(*SIGNAL_KEY)].real
        assert abs(f) > 1e-3
        assert f == pytest.approx(g, rel=1e-12)
        assert se == 0.0 and diagnostics["inconsistent_rounds"] == 0


@pytest.mark.parametrize("d", [2, 4])
def test_one_signal_evaluation_sends_the_rows_support_to_the_device(d, monkeypatch):
    dev, frame = signal_device(1.3, seed=3)
    rows = []
    run_shot_grid = dev.run_shot_grid

    def counted(betas, *args):
        rows.append(len(betas))
        return run_shot_grid(betas, *args)

    monkeypatch.setattr(dev, "run_shot_grid", counted)
    cfg = derive_config(d, g_max=G_MAX_PRIOR, k_max=5, shots=50, l_steps=None)
    _, se, diagnostics = signal_measure(dev, frame.signed_r + 0.1, cfg, d=d, token="t")
    runs = 3 * (d + 1)
    assert rows == [runs]
    assert dev.ledger().shot_count == runs * 2 * (cfg.k_max + 1) * cfg.shots
    # the full learn's stderr, whose offset term the zero row sum removes
    variance = single_mode_pipeline(d).coefficient_variances(cfg.predicted_eps_c)[SIGNAL_KEY]
    assert se == pytest.approx(math.sqrt(variance), rel=1e-12)
    assert set(diagnostics) == {"inconsistent_rounds", "inconsistent_runs"}


def test_bisection_rejects_infeasible_bracket():
    dev, _ = signal_device(1.3)
    with pytest.raises(FeasibilityError):
        bisection_search(dev, (-1.5, 1.5), eps_r=1e-2, shots=None)


@pytest.mark.parametrize("bracket", [(-1e6, 0.3), (-0.3, 1e300), (-0.3, math.inf)])
def test_bisection_rejects_a_bracket_edge_whose_cosh_overflows(bracket):
    # math.cosh of the edge used to raise OverflowError
    dev, _ = signal_device(1.3)
    with pytest.raises(FeasibilityError, match="bracket edge"):
        bisection_search(dev, bracket, eps_r=1e-2, shots=None)
    assert dev.ledger().shot_count == 0


def test_bisection_noiseless_exact_iteration_count():
    dev, frame = signal_device(1.3)
    res = bisection_search(dev, (-0.3, 0.3), eps_g=1e-2, shots=None)
    assert res.iterations == math.ceil(math.log2(0.6 / res.eps_r))
    assert res.width <= res.eps_r
    assert abs(res.r_hat - frame.signed_r) < res.eps_r


def test_the_search_reports_its_own_ledger_cost():
    gp = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
    spec = HamiltonianSpec(1, 4, {single_key(p, q): v for (p, q), v in gp.items()})
    frame = frame_from_ratio(1.0, 1.0 / 1.3)
    dev = SimulatedDevice(
        spec, FockCutoff(48, 1), master_seed=2, true_frame_z=(complex(-frame.signed_r),)
    )
    res = learn_firstq(dev, 4, eps_g=1e-2, bracket=(-0.3, 0.3), shots=50)
    search, ledger = res.bisection, dev.ledger()
    assert 0 < search.time_cost < res.time_cost == ledger.total_evolution_time
    # a search evaluation runs the signal row's 15 points, 2(K+1) requests
    # each, at the caller's 50 shots; the final learn runs the 50-point grid
    # and its offset, 2(K+1) requests each, at its planned depth and shots
    final = res.gprime.diagnostics
    assert search.shot_count % (15 * 2 * 50) == 0
    assert ledger.shot_count - search.shot_count == 51 * 2 * (final["k_max"] + 1) * final["shots"]


def firstq_device(ratio, seed):
    """The benchmark's firstq_search device: g' = N + 0.2 N^2 terms at d = 4."""
    gp = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
    spec = HamiltonianSpec(1, 4, {single_key(p, q): v for (p, q), v in gp.items()})
    frame = frame_from_ratio(1.0, 1.0 / ratio)
    dev = SimulatedDevice(
        spec, FockCutoff(48, 1), master_seed=seed, true_frame_z=(complex(-frame.signed_r),)
    )
    return dev, frame


@pytest.mark.parametrize("seed", [5000, 5001, 5002])
def test_a_shot_search_measures_each_midpoint_once_and_halves_the_window(seed):
    # an ambiguous midpoint used to be measured again and then handed to a
    # golden-section search, whose shrinks added steps
    dev, _ = firstq_device(1.3, seed)
    res = bisection_search(dev, (-0.3, 0.3), eps_g=2e-3, d=4, shots=200, k_cap=18)
    mids = [r for r, _, _ in res.history if r not in (-0.3, 0.3)]
    assert len(mids) == len(set(mids)) == res.iterations
    assert res.iterations <= math.ceil(math.log2(0.6 / res.eps_r))
    assert res.width <= res.eps_r


def test_an_ambiguous_midpoint_keeps_the_roots_interval_within_the_window(monkeypatch):
    # a noiseless linear signal k (r - r0) read at the predicted standard
    # error: near r0 a midpoint is ambiguous, and the window it leaves,
    # mid - f/k_hat +- 3 se/|k_hat| within the old one, must hold r0
    k, r0 = 2.0, 0.013
    row_norm = single_mode_pipeline(2).coefficient_row(SIGNAL_KEY).norm

    def linear(device, r_prime, cfg, **kwargs):
        return k * (r_prime - r0), cfg.predicted_eps_c * row_norm, {}

    monkeypatch.setattr(bogoliubov, "signal_measure", linear)
    dev, _ = signal_device(1.3)
    res = bisection_search(dev, (-0.3, 0.3), eps_r=1e-4, shots=200, k_cap=18)
    lo, hi, ambiguous = -0.3, 0.3, 0
    for mid, f, se in res.history[2:]:
        assert mid == 0.5 * (lo + hi)
        if abs(f) > 3 * se:
            lo, hi = (lo, mid) if f > 0 else (mid, hi)
            continue
        ambiguous += 1
        root, reach = mid - f / res.k_hat, 3 * se / abs(res.k_hat)
        new_lo, new_hi = max(lo, root - reach), min(hi, root + reach)
        assert new_lo <= r0 <= new_hi
        # 6 se/|k_hat| is half the window when se is on its target, up to a rounding
        assert new_hi - new_lo <= 0.5 * (hi - lo) * (1 + 1e-12)
        lo, hi = new_lo, new_hi
    assert ambiguous >= 1
    assert res.r_hat == 0.5 * (lo + hi) and res.width == hi - lo <= res.eps_r


def test_a_search_that_k_cap_caps_stops_wide_and_still_on_target():
    # at learn_firstq's default k_cap 13, eps_g 5e-3 needs deeper steps than
    # the cap allows: the search ends at its first capped step, wider than
    # eps_r, and its centre still lands within eps_r in RMSE
    errors = []
    for seed in range(5000, 5020):
        dev, frame = firstq_device(1.3, seed)
        res = bisection_search(dev, (-0.3, 0.3), eps_g=5e-3, d=4, shots=200, k_cap=13)
        assert res.width > res.eps_r
        errors.append((res.r_hat - frame.signed_r) / res.eps_r)
    assert math.sqrt(np.mean(np.square(errors))) <= 1.0


@pytest.mark.parametrize("eps_g, capped", [(1e-3, True), (2e-3, False)])
def test_learn_firstq_reports_whether_k_cap_capped_its_final_learn(eps_g, capped):
    # acceptance test 8 at ratio 1.3: eps_g 1e-3 needs depth 19, above k_cap 18
    dev, _ = firstq_device(1.3, seed=5)
    res = learn_firstq(dev, 4, eps_g=eps_g, bracket=(-0.3, 0.3), shots=200, k_cap=18)
    assert res.gprime.diagnostics["k_max"] == 18
    assert res.gprime.diagnostics["k_capped"] is capped


def test_bisection_requires_sign_change():
    dev, _ = signal_device(1.3)
    with pytest.raises(ValueError):
        bisection_search(dev, (0.2, 0.3), eps_r=1e-2, shots=None)


def test_learn_firstq_noiseless_recovers_frame_and_coefficients():
    gp = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
    spec = HamiltonianSpec(1, 4, {single_key(p, q): v for (p, q), v in gp.items()})
    frame = frame_from_ratio(1.0, 1.0 / 1.3)
    dev = SimulatedDevice(
        spec, FockCutoff(48, 1), master_seed=0, true_frame_z=(complex(-frame.signed_r),)
    )
    res = learn_firstq(dev, 4, eps_g=5e-3, bracket=(-0.3, 0.3), shots=None)
    assert abs(res.r_hat - frame.signed_r) < 2 * res.bisection.eps_r
    truth = build_T(4, mass_omega=1.0 / 1.3).transform({(0, 0): 0.0, **gp})
    for key, val in res.g_physical.items():
        # noiseless recovery errors come only from the residual frame error
        tol = 3 * res.stderr[key] + 1e-8
        assert abs(val - truth.get(key, 0.0)) <= tol


@pytest.mark.parametrize("eps_g", [0.0, -5e-3, math.nan, math.inf])
def test_learn_firstq_rejects_a_non_positive_eps_g_before_measuring(eps_g):
    # eps_g = 0 gave eps_r = 0, and the bisection never ended
    dev, _ = signal_device(1.3)
    with pytest.raises(ValueError, match="eps_g must be finite and > 0"):
        learn_firstq(dev, 2, eps_g=eps_g, bracket=(-0.3, 0.3), shots=None)
    assert dev.ledger().total_evolution_time == 0


@pytest.mark.parametrize("eps_r", [0.0, -1e-2, math.nan, math.inf, 1e-300])
def test_bisection_rejects_an_eps_r_it_cannot_reach_before_measuring(eps_r):
    # a width below the bracket's float spacing stalls mid = (lo + hi)/2 on an edge
    dev, _ = signal_device(1.3)
    with pytest.raises(ValueError, match="eps_r must be finite"):
        bisection_search(dev, (-0.3, 0.3), eps_r=eps_r, shots=None)
    assert dev.ledger().total_evolution_time == 0


@pytest.mark.parametrize("d", [0, 1])
def test_bisection_rejects_a_degree_without_the_signal_coefficient(d):
    dev, _ = signal_device(1.3)
    with pytest.raises(ValueError, match="d must be >= 2"):
        bisection_search(dev, (-0.3, 0.3), eps_g=1e-2, d=d, shots=None)
    assert dev.ledger().total_evolution_time == 0


def test_bisection_rejects_a_derived_eps_r_below_float_resolution():
    dev, _ = signal_device(1.3)
    with pytest.raises(ValueError, match="eps_r must be finite"):
        bisection_search(dev, (-0.3, 0.3), eps_g=1e-300, shots=None)


def test_the_runtime_never_loads_sympy():
    script = """
import json, sys
import bosonlearn, bosonlearn.cli
loaded = ["sympy" in sys.modules]
bosonlearn.cli.run(
    {"experiment": "learn-multi", "noiseless": True,
     "generator": {"modes": 2, "d": 2, "seed": 1}, "grid": {"d": 2}}
)
loaded.append("sympy" in sys.modules)
t = bosonlearn.build_T(2)
loaded.append("sympy" in sys.modules)
bosonlearn.cli.run(
    {"experiment": "learn-firstq", "noiseless": True,
     "firstq": {"gprime": {"1,1": 1.0, "2,2": 0.2}, "eps_g": 1e-2, "n_max": 12}}
)
loaded.append("sympy" in sys.modules)
import bosonlearn.oracles
loaded.append("sympy" in sys.modules)
print(json.dumps({
    "loaded": loaded,
    "T": [[[z.real.hex(), z.imag.hex()] for z in row] for row in t.matrix.tolist()],
}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    got = json.loads(out.strip().splitlines()[-1])
    assert got["loaded"] == [False, False, False, False, True]
    matrix = build_T(2).matrix.tolist()
    assert got["T"] == [[[z.real.hex(), z.imag.hex()] for z in row] for row in matrix]


@pytest.mark.parametrize(
    "eps_coeff, d, shots, k_cap", [(2e-3, 4, 200, 18), (1.0, 2, 50, 10), (1e-9, 3, 20, 7)]
)
def test_cfg_for_precision_equals_a_config_derived_at_its_depth(eps_coeff, d, shots, k_cap):
    # t0, c_bound and h_scale do not depend on k_max, so re-validating one
    # derived config at the chosen depth gives the config derived there
    cfg = _cfg_for_precision(eps_coeff, 11.4, d, shots, k_cap)
    assert 4 <= cfg.k_max <= k_cap
    assert cfg == derive_config(d, g_max=G_MAX_PRIOR, k_max=cfg.k_max, shots=shots, l_steps=None)


@settings(max_examples=300, deadline=None)
@given(
    log_target=st.floats(-6.0, 0.0),
    d=st.sampled_from([2, 3, 4]),
    shots=st.sampled_from([20, 50, 200]),
    k_cap=st.sampled_from([7, 13, 18]),
)
def test_the_final_learn_plans_the_fewest_shots_that_meet_its_target(log_target, d, shots, k_cap):
    target = 10.0**log_target
    row_norm = single_mode_pipeline(d).coefficient_row(SIGNAL_KEY).norm
    old = _cfg_for_precision(target, row_norm, d, shots, k_cap)
    cfg = _plan_final_learn(target, row_norm, d, shots, k_cap)
    # the depth is the search planner's; only the shots differ
    assert cfg == replace(old, shots=cfg.shots)
    m = cfg.shots
    assert m >= 20
    # the predicted error meets the target, up to a rounding, and one shot
    # fewer would miss it unless the 20-shot floor holds M up
    assert cfg.predicted_eps_c * row_norm <= target * (1 + 1e-12)
    assert m == 20 or replace(cfg, shots=m - 1).predicted_eps_c * row_norm > target * (1 - 1e-12)
    if cfg.k_max < k_cap:
        assert m <= shots
    # wherever the old plan met its target, and that is always below k_cap,
    # the run's evolution time is no more than the old plan's
    if old.predicted_eps_c * row_norm <= target:
        assert run_time(cfg) <= run_time(old)


def run_time(cfg):
    """One RPE run's evolution time per basis: M shots at each kappa t0,
    kappa = 2^0 .. 2^K."""
    return cfg.shots * (2 ** (cfg.k_max + 1) - 1) * cfg.t0
