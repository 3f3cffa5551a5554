"""End-to-end acceptance gate.

Each test checks one protocol-level property of the toolkit at desk scale and
emits a single PASS/FAIL line.  Tolerances and seeds are pinned; every run is
deterministic.
"""

import json
import math

import numpy as np
import pytest

from bosonlearn.cli import main as cli_main
from bosonlearn.device import ShotRequest, SimulatedDevice
from bosonlearn.fockspace import FockCutoff, adaptive_cutoff
from bosonlearn.hamiltonian import (
    HamiltonianSpec,
    TermKey,
    admissible_keys,
    canonical_key,
    constant_term,
    random_spec,
    single_key,
)
from bosonlearn.bogoliubov import (
    build_T,
    frame_from_ratio,
    learn_firstq,
    parallel_two_mode_search,
    tensor_transform,
)
from bosonlearn.oracles import effective_diagonal, phase_averaged_matrix, vacuum_state
from bosonlearn.protocol import (
    LearnedCoefficients,
    derive_config,
    joint_grid,
    learn_displacement_biased,
    learn_multimode_hierarchical,
    learn_multimode_simultaneous,
    learn_single_mode,
    rpe_estimates,
)
from bosonlearn.recovery import (
    covariance_compare,
    lipschitz_bound,
    real_design_matrix,
    real_parameters,
    single_mode_pipeline,
    spam_bound,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


def _decade(value: float) -> str:
    """The least power of ten above value, as '< 1e-13'."""
    return "= 0" if value == 0 else f"< 1e{math.floor(math.log10(value)) + 1}"


def test_01_constant_term_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst_exact, worst_quad = 0.0, 0.0
    for trial in range(50):
        d = int(rng.integers(1, 5))
        spec = random_spec(1, d, g_max=1.0, seed=1000 + trial, include_couplings=False)
        cut = FockCutoff(n_max=26)
        vac = vacuum_state(cut)
        for _ in range(20):
            beta = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            analytic = constant_term(spec, [beta])
            exact = float(np.real(vac.conj() @ (np.diag(effective_diagonal(spec, [beta], cut)) @ vac)))
            quad = float(np.real(phase_averaged_matrix(spec, [beta], cut)[0, 0]))
            worst_exact = max(worst_exact, abs(analytic - exact))
            worst_quad = max(worst_quad, abs(analytic - quad))
    ok = worst_exact < 1e-10 and worst_quad < 1e-8
    # The residuals are rounding noise, so the line states their decades: a
    # change of rounding in the oracle matrices does not move it.
    report(
        "1 constant-term oracle equivalence",
        ok,
        f"exact {_decade(worst_exact)}, quad {_decade(worst_quad)}",
    )
    assert ok


def test_02_noiseless_pipeline_exactness():
    worst = 0.0
    for d in (2, 3):
        for seed in (21, 22, 23):
            spec = random_spec(1, d, seed=seed, include_couplings=False)
            cut = adaptive_cutoff(spec, 1.0)
            cfg = derive_config(d, k_max=9, shots=None, l_steps=None)
            learned = learn_single_mode(SimulatedDevice(spec, cut), d, cfg)
            for key, truth in spec.terms.items():
                worst = max(worst, abs(learned.estimates[key] - truth))
    ok = worst < 1e-8
    report("2 noiseless pipeline exactness", ok, f"worst error {worst:.1e}")
    assert ok


def test_03_heisenberg_scaling():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    c_true = 0.64
    beta = math.sqrt(c_true)
    cut = adaptive_cutoff(spec, beta)
    times, rmses = [], []
    for k in range(4, 12):
        errs, tcost = [], []
        for seed in range(100):
            dev = SimulatedDevice(spec, cut, master_seed=seed)
            cfg = derive_config(2, k_max=k, shots=200, l_steps=None)
            c_hat, _ = rpe_estimates(dev, [beta], cfg, None, [f"h{seed}"])
            errs.append(c_hat[0] - c_true)
            tcost.append(dev.ledger().total_evolution_time)
        times.append(float(np.mean(tcost)))
        rmses.append(float(np.sqrt(np.mean(np.square(errs)))))
    slope = float(np.polyfit(np.log(times), np.log(rmses), 1)[0])
    ok = -1.15 <= slope <= -0.85
    report("3 Heisenberg scaling", ok, f"log-log slope {slope:.3f}")
    assert ok


def test_04_finite_step_bias_halves():
    spec = random_spec(1, 3, seed=4, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.8)
    dev = SimulatedDevice(spec, cut, master_seed=0)
    t0 = derive_config(3).t0
    beta = 0.8 * np.exp(0.4j)
    ratios = []
    for basis in ("X", "Y"):
        ideal = dev.probability(
            ShotRequest(kappa=1, t0=t0, beta=(beta,), basis=basis, l_steps=None)
        )
        biases = [
            abs(
                dev.probability(
                    ShotRequest(kappa=1, t0=t0, beta=(beta,), basis=basis, l_steps=l)
                )
                - ideal
            )
            for l in (32, 64, 128, 256)
        ]
        ratios.extend(biases[i] / biases[i + 1] for i in range(3))
    ok = all(1.4 <= r <= 2.6 for r in ratios)
    report("4 Trotter bias halving", ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_05_covariance_propagation_monte_carlo():
    pipe = single_mode_pipeline(3)
    eps_c = 0.01
    stacked = np.vstack([pipe.kplus.real, pipe.kplus.imag])
    predicted = eps_c**2 * stacked @ stacked.T
    rng = np.random.default_rng(7)
    noise = eps_c * rng.normal(size=(10_000, len(pipe.points)))
    samples = noise @ stacked.T
    empirical = np.cov(samples.T, bias=False)
    rel = float(np.linalg.norm(empirical - predicted) / np.linalg.norm(predicted))
    ok = rel < 0.10
    report("5 covariance propagation", ok, f"Frobenius rel. error {rel:.3f}")
    assert ok


def test_06_hierarchical_vs_simultaneous_ordering():
    # analytic block ordering on the default two-mode design
    grid = joint_grid(2, 2)
    single_keys = [
        single_key(p, q, m) for m in range(2) for p in range(3) for q in range(3 - p) if p + q >= 1
    ]
    coupling_keys = [k for k in admissible_keys(2, 2) if k.is_coupling]
    m1 = real_design_matrix(grid, real_parameters(single_keys))
    m2 = real_design_matrix(grid, real_parameters(coupling_keys))
    ordering = covariance_compare(m1, m2)
    analytic_ok = (
        ordering.min_eig_single >= -1e-10
        and ordering.min_eig_coupling >= -1e-10
        and ordering.woodbury_residual < 1e-9
    )

    # empirical per-coefficient variances from seeded end-to-end runs
    spec = random_spec(2, 2, seed=11, sparsity=0.8)
    cut = adaptive_cutoff(spec, 1.0)
    cfg = derive_config(2, k_max=3, shots=50, l_steps=None)
    keys = sorted(
        {canonical_key(k) for k in admissible_keys(2, 2)}, key=lambda k: (k.modes, k.p, k.q)
    )
    n_runs = 500
    sq_h = np.zeros((n_runs, len(keys)))
    sq_s = np.zeros((n_runs, len(keys)))
    for seed in range(n_runs):
        dev = SimulatedDevice(spec, cut, master_seed=seed)
        lh = learn_multimode_hierarchical(dev, 2, 2, cfg, token="c6h")
        dev = SimulatedDevice(spec, cut, master_seed=seed)
        ls = learn_multimode_simultaneous(dev, 2, 2, cfg, token="c6s")
        for i, k in enumerate(keys):
            sq_h[seed, i] = abs(lh.estimates[k] - spec.terms.get(k, 0.0)) ** 2
            sq_s[seed, i] = abs(ls.estimates[k] - spec.terms.get(k, 0.0)) ** 2
    var_h, var_s = sq_h.mean(axis=0), sq_s.mean(axis=0)
    sigma = math.sqrt(2.0 / (n_runs - 1)) * np.sqrt(var_h**2 + var_s**2)
    empirical_ok = bool(np.all(var_h <= var_s + 2 * sigma))
    ok = analytic_ok and empirical_ok
    report(
        "6 hierarchical variance ordering",
        ok,
        f"min eigs {ordering.min_eig_single:.1e}/{ordering.min_eig_coupling:.1e}, "
        f"Woodbury {ordering.woodbury_residual:.1e}, "
        f"worst empirical margin {float(np.max((var_h - var_s) / sigma)):+.2f} sigma",
    )
    assert ok


def test_07_spam_bound_and_linearity():
    d = 2
    spec = random_spec(1, d, seed=2, include_couplings=False)
    pipe = single_mode_pipeline(d)
    lipschitz = lipschitz_bound(d, 1.0, {(k.p[0], k.q[0]): v for k, v in spec.terms.items()})
    cfg = derive_config(d, g_max=spec.g_max, k_max=10, shots=None, l_steps=None)
    cut = adaptive_cutoff(spec, 1.2)

    def learn(delta):
        return learn_displacement_biased(SimulatedDevice(spec, cut, master_seed=0), d, cfg, delta)

    clean = learn(None)
    medians = {}
    n_within = {}
    for norm in (1e-3, 1e-2):
        observed = []
        within = 0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            delta = rng.normal(size=len(pipe.points)) + 1j * rng.normal(size=len(pipe.points))
            delta *= norm / np.linalg.norm(delta)
            biased = learn(delta)
            obs = math.sqrt(sum(abs(biased[k] - clean[k]) ** 2 for k in clean))
            observed.append(obs)
            within += obs <= spam_bound(pipe, lipschitz, delta).bound
        medians[norm] = float(np.median(observed))
        n_within[norm] = within
    ratio = medians[1e-2] / medians[1e-3]
    ok = n_within[1e-3] == 50 and n_within[1e-2] == 50 and 8.0 <= ratio <= 12.0
    report(
        "7 SPAM bound and linearity",
        ok,
        f"within bound {n_within[1e-3]}/50 and {n_within[1e-2]}/50, median ratio {ratio:.2f}",
    )
    assert ok


FIRSTQ_GPRIME = {(1, 1): 1.0 + 0j, (2, 2): 0.2 + 0j}
FIRSTQ_SPEC = HamiltonianSpec(1, 4, {single_key(p, q): v for (p, q), v in FIRSTQ_GPRIME.items()})
FIRSTQ_EPS_G = (1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)


def _firstq_learns(ratio: float, seed: int) -> tuple[list, float]:
    """Test 8's shot learns at one frame ratio and master seed, one fresh
    device per eps_g, and the slope of log evolution time on log eps_g."""
    tz = (complex(-frame_from_ratio(1.0, 1.0 / ratio).signed_r),)
    learns = []
    for eps_g in FIRSTQ_EPS_G:
        dev = SimulatedDevice(FIRSTQ_SPEC, FockCutoff(48, 1), master_seed=seed, true_frame_z=tz)
        learns.append(
            learn_firstq(
                dev, 4, eps_g=eps_g, bracket=(-0.3, 0.3), shots=200, k_cap=18, token=f"a{eps_g}"
            )
        )
    times = [res.time_cost for res in learns]
    slope = float(np.polyfit(np.log(FIRSTQ_EPS_G), np.log(times), 1)[0])
    return learns, slope


def test_08_first_quantization_end_to_end():
    gprime, spec = FIRSTQ_GPRIME, FIRSTQ_SPEC
    width = 0.6
    details = []
    ok = True
    for ratio in (0.8, 1.3):
        frame = frame_from_ratio(1.0, 1.0 / ratio)
        tz = (complex(-frame.signed_r),)
        truth = build_T(4, mass_omega=1.0 / ratio).transform({(0, 0): 0.0, **gprime})

        dev = SimulatedDevice(spec, FockCutoff(48, 1), master_seed=5, true_frame_z=tz)
        noiseless = learn_firstq(dev, 4, eps_g=4e-3, bracket=(-0.3, 0.3), shots=None)
        exact_iters = math.ceil(math.log2(width / noiseless.bisection.eps_r))
        ok &= noiseless.bisection.iterations == exact_iters

        learns, slope = _firstq_learns(ratio, 5)
        for eps_g, res in zip(FIRSTQ_EPS_G, learns):
            shot_budget = math.ceil(math.log2(width / res.bisection.eps_r))
            ok &= res.bisection.iterations <= 2 * shot_budget
            if eps_g == 4e-3:
                n_bad = sum(
                    1
                    for key, val in res.g_physical.items()
                    if abs(val - truth.get(key, 0.0)) > 3 * res.stderr[key]
                )
                ok &= n_bad == 0
        ok &= -1.2 <= slope <= -0.85
        details.append(f"ratio {ratio}: iters {noiseless.bisection.iterations}=={exact_iters}, slope {slope:.2f}")
    report("8 first-quantization end-to-end", ok, "; ".join(details))
    assert ok


@pytest.mark.parametrize("ratio", [0.8, 1.3])
def test_08_time_slope_holds_over_master_seeds(ratio):
    # test 8's slope rests on master seed 5; the final learn's plan must keep
    # it in the band at other seeds too, where its depth hits k_cap 18
    slopes = [_firstq_learns(ratio, seed)[1] for seed in range(1, 13)]
    assert all(-1.2 <= s <= -0.85 for s in slopes), slopes


def test_08b_frame_search_rmse_over_seeds():
    # test 8's slope rests on one master seed; the frame it finds must also
    # hold over many: the benchmark's firstq_search config at 20 seeds
    frame = frame_from_ratio(1.0, 1.0 / 1.3)
    errors, search_times = [], []
    for seed in range(5000, 5020):
        dev = SimulatedDevice(
            FIRSTQ_SPEC, FockCutoff(48, 1), master_seed=seed, true_frame_z=(complex(-frame.signed_r),)
        )
        res = learn_firstq(dev, 4, eps_g=2e-3, bracket=(-0.3, 0.3), shots=200, k_cap=18)
        errors.append((res.r_hat - frame.signed_r) / res.bisection.eps_r)
        search_times.append(res.bisection.time_cost)
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    ok = rmse <= 1.0
    report(
        "8b frame search over seeds",
        ok,
        f"r_hat RMSE {rmse:.2f} eps_r over 20 seeds, median search time {np.median(search_times):.3g}",
    )
    assert ok


def test_09_overlap_feasibility_gate(tmp_path):
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(
        json.dumps(
            {
                "experiment": "learn-firstq",
                "firstq": {"gprime": {"1,1": 1.0}, "ratio": 1.3, "bracket": [-1.3, 1.3]},
            }
        )
    )
    rejected = cli_main(["validate", "--config", str(infeasible)]) == 2

    r_true = math.acosh(1.7)
    feasible = tmp_path / "feasible.json"
    feasible.write_text(
        json.dumps(
            {
                "firstq": {
                    "gprime": {"1,1": 1.0},
                    "ratio": math.exp(2 * r_true),
                    "eps_g": 1e-2,
                    "bracket": [1.0, 1.22],
                    "n_max": 64,
                }
            }
        )
    )
    ran = cli_main(["learn-firstq", "--config", str(feasible), "--seed", "1", "--noiseless"]) == 0
    ok = rejected and ran
    report("9 overlap feasibility gate", ok, f"infeasible rejected {rejected}, u=1.7 ran {ran}")
    assert ok


def two_mode_spec(coupling: float) -> HamiltonianSpec:
    terms = {single_key(1, 1, 0): 1.0 + 0j, single_key(1, 1, 1): 0.7 + 0j}
    if coupling:
        key = TermKey((0, 1), (1, 0), (0, 1))
        terms[key] = complex(coupling)
        terms[key.conjugate] = complex(np.conj(coupling))
    return HamiltonianSpec(2, 2, terms)


def test_10_two_mode_parallel_search():
    ratios = (1.2, 0.8)
    frames = tuple(frame_from_ratio(1.0, 1.0 / r) for r in ratios)
    true_z = tuple(complex(-f.signed_r) for f in frames)
    spec = two_mode_spec(0.3)
    dev = SimulatedDevice(spec, FockCutoff(20, 2), master_seed=3, true_frame_z=true_z)
    result = parallel_two_mode_search(
        dev, ((-0.3, 0.3), (-0.3, 0.3)), eps_r=2e-3, shots=200, token="c10"
    )
    transforms = tuple(build_T(2, mass_omega=1.0 / r) for r in ratios)
    truth_lc = LearnedCoefficients(
        estimates=dict(spec.terms), stderr={}, eps_c=0.0, time_cost=0.0
    )
    g_true, _ = tensor_transform(truth_lc, transforms, 0.0)
    physical = [k for k in result.g_physical if k != ((0, 0), (0, 0))]
    n_bad = sum(
        1
        for key in physical
        if abs(result.g_physical[key] - g_true.get(key, 0.0)) > 3 * result.stderr[key]
    )
    coeffs_ok = len(physical) == 14 and n_bad == 0

    # invariance of the mode-isolated first step under the coupling strength
    cfg = derive_config(2, g_max=2.0, k_max=6, shots=100, l_steps=None)
    runs = {}
    for coupling, seed in ((0.0, 101), (0.3, 202)):
        device = SimulatedDevice(
            two_mode_spec(coupling), FockCutoff(20, 2), master_seed=seed, true_frame_z=true_z
        )
        runs[coupling] = learn_multimode_hierarchical(
            device, 2, 2, cfg, frame_z=true_z, subtract_offset=True, token=f"inv{seed}"
        )
    worst_z = 0.0
    for key in runs[0.0].estimates:
        if key.is_coupling:
            continue
        diff = abs(runs[0.0].estimates[key] - runs[0.3].estimates[key])
        scale = math.sqrt(runs[0.0].stderr[key] ** 2 + runs[0.3].stderr[key] ** 2)
        worst_z = max(worst_z, diff / scale)
    invariance_ok = worst_z <= 2.0
    ok = coeffs_ok and invariance_ok
    report(
        "10 two-mode parallel search",
        ok,
        f"{len(physical)} coefficients, {n_bad} beyond 3xSE, step-1 worst shift {worst_z:.2f} sigma",
    )
    assert ok
