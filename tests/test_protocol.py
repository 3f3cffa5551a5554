import math

import numpy as np
import pytest

from bosonlearn.device import ShotRequest, SimulatedDevice
from bosonlearn.fockspace import FockCutoff, adaptive_cutoff
from bosonlearn.hamiltonian import (
    HamiltonianSpec,
    TermKey,
    constant_term,
    random_spec,
    single_key,
)
from bosonlearn.protocol import (
    RpeConfig,
    derive_config,
    joint_grid,
    learn_multimode_hierarchical,
    learn_multimode_simultaneous,
    learn_single_mode,
    rpe_estimate,
    rpe_estimates,
)


def test_derive_config_prior_bound():
    cfg = derive_config(2, r_max=1.0, g_max=1.0)
    assert cfg.c_bound == pytest.approx(5.0)
    assert cfg.t0 == pytest.approx(0.9 * math.pi / 5.0)
    assert cfg.t0 * cfg.c_bound < math.pi


def test_rpe_config_validation():
    with pytest.raises(ValueError):
        RpeConfig(k_max=-1, shots=100, t0=0.5, c_bound=1.0)
    with pytest.raises(ValueError):
        RpeConfig(k_max=4, shots=5, t0=0.5, c_bound=1.0)
    with pytest.raises(ValueError):
        RpeConfig(k_max=4, shots=100, t0=2.0, c_bound=2.0)
    # noiseless mode lifts the shot floor
    RpeConfig(k_max=4, shots=1, t0=0.5, c_bound=1.0, noiseless=True)


def test_predicted_eps_c_formula():
    cfg = RpeConfig(k_max=6, shots=100, t0=0.5, c_bound=1.0)
    assert cfg.predicted_eps_c == pytest.approx(1.0 / (64 * 0.5 * 10))
    assert RpeConfig(k_max=6, shots=1, t0=0.5, c_bound=1.0, noiseless=True).predicted_eps_c == 0.0


def test_steps_policy():
    cfg = RpeConfig(k_max=4, shots=100, t0=0.5, c_bound=1.0, l_steps="auto", h_scale=2.0)
    assert cfg.steps_for(1) == 64
    assert cfg.steps_for(64) == math.ceil(32 * 64 * 0.5 * 2.0)
    assert RpeConfig(k_max=4, shots=100, t0=0.5, c_bound=1.0, l_steps=None).steps_for(8) is None


def test_rpe_noiseless_is_exact():
    spec = random_spec(1, 2, seed=1, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.8)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(2, k_max=8, noiseless=True, shots=20, l_steps=None)
    beta = 0.8 * np.exp(0.5j)
    est = rpe_estimate(dev, [beta], cfg)
    assert est.c_hat == pytest.approx(constant_term(spec, [beta]), abs=1e-9)
    assert est.inconsistent_rounds == []


def test_rpe_unwrapping_beyond_single_round_range():
    # at kappa = 2^8 the phase wraps many times; unwrapping must still recover C
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    dev = SimulatedDevice(spec, FockCutoff(n_max=16))
    cfg = derive_config(2, k_max=8, noiseless=True, shots=20, l_steps=None)
    c = 0.9**2
    assert 2**8 * cfg.t0 * c > 2 * math.pi
    est = rpe_estimate(dev, [0.9], cfg)
    assert est.c_hat == pytest.approx(c, abs=1e-10)


def test_rpe_shot_error_near_predicted_scale():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    cut = FockCutoff(n_max=16)
    cfg = derive_config(2, k_max=7, shots=200, l_steps=None)
    errs = []
    for seed in range(40):
        dev = SimulatedDevice(spec, cut, master_seed=seed)
        errs.append(rpe_estimate(dev, [0.8], cfg, token=f"e{seed}").c_hat - 0.64)
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse < 4 * cfg.predicted_eps_c
    assert rmse > cfg.predicted_eps_c / 10


def test_rpe_time_cost_doubles_per_round():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    dev = SimulatedDevice(spec, FockCutoff(n_max=16), master_seed=0)
    cfg = derive_config(2, k_max=5, shots=50, l_steps=None)
    est = rpe_estimate(dev, [0.5], cfg)
    expected = 2 * 50 * cfg.t0 * (2**6 - 1)
    assert est.time_cost == pytest.approx(expected)


def test_learn_single_mode_noiseless_exact():
    spec = random_spec(1, 3, seed=12, include_couplings=False)
    cut = adaptive_cutoff(spec, 1.0)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(3, k_max=9, noiseless=True, shots=20, l_steps=None)
    learned = learn_single_mode(dev, 3, cfg)
    for key, truth in spec.terms.items():
        assert abs(learned.estimates[key] - truth) < 1e-8


def test_learn_single_mode_offset_subtraction():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 0.8}, identity_offset=0.37)
    dev = SimulatedDevice(spec, FockCutoff(n_max=24))
    cfg = derive_config(2, k_max=9, noiseless=True, shots=20, l_steps=None)
    learned = learn_single_mode(dev, 2, cfg, subtract_offset=True)
    assert learned.identity_offset == pytest.approx(0.37, abs=1e-8)
    assert abs(learned.estimates[single_key(1, 1)] - 0.8) < 1e-8


def test_offset_error_propagates_into_stderr():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 0.8})
    cut = FockCutoff(n_max=24)
    cfg = derive_config(2, k_max=6, shots=100, l_steps=None)
    plain = learn_single_mode(SimulatedDevice(spec, cut, master_seed=0), 2, cfg)
    offset = learn_single_mode(
        SimulatedDevice(spec, cut, master_seed=0), 2, cfg, subtract_offset=True
    )
    for key in plain.stderr:
        assert offset.stderr[key] >= plain.stderr[key]


def test_as_pq_dict_view():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 0.5})
    dev = SimulatedDevice(spec, FockCutoff(n_max=16))
    cfg = derive_config(2, k_max=6, noiseless=True, shots=20, l_steps=None)
    learned = learn_single_mode(dev, 2, cfg)
    assert learned.as_pq_dict()[(1, 1)] == pytest.approx(0.5, abs=1e-8)


def test_joint_grid_shape_and_content():
    grid = joint_grid(2, 2)
    assert grid.shape == (144, 2)
    assert np.all(np.abs(grid) <= 1.0 + 1e-12)


def test_multimode_hierarchical_noiseless_exact():
    spec = random_spec(2, 2, seed=11, sparsity=0.8)
    cut = adaptive_cutoff(spec, 1.0)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(2, k_max=9, noiseless=True, shots=20, l_steps=None)
    learned = learn_multimode_hierarchical(dev, 2, 2, cfg)
    for key, truth in spec.terms.items():
        assert abs(learned.estimates[key] - truth) < 1e-7
    assert learned.diagnostics["strategy"] == "hierarchical"


def test_multimode_simultaneous_noiseless_exact():
    spec = random_spec(2, 2, seed=11, sparsity=0.8)
    cut = adaptive_cutoff(spec, 1.0)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(2, k_max=9, noiseless=True, shots=20, l_steps=None)
    learned = learn_multimode_simultaneous(dev, 2, 2, cfg)
    for key, truth in spec.terms.items():
        assert abs(learned.estimates[key] - truth) < 1e-7


def test_hierarchical_singles_unaffected_by_couplings():
    # isolated displacements see exactly nothing of the coupling terms
    base = {single_key(1, 1, 0): 1.0 + 0j, single_key(1, 1, 1): 0.6 + 0j}
    k = TermKey((0, 1), (1, 0), (0, 1))
    with_c = dict(base)
    with_c[k] = 0.4 + 0j
    with_c[k.conjugate] = 0.4 + 0j
    cfg = derive_config(2, k_max=8, noiseless=True, shots=20, l_steps=None)
    cut = FockCutoff(n_max=16, modes=2)
    l0 = learn_multimode_hierarchical(
        SimulatedDevice(HamiltonianSpec(2, 2, base), cut), 2, 2, cfg
    )
    l1 = learn_multimode_hierarchical(
        SimulatedDevice(HamiltonianSpec(2, 2, with_c), cut), 2, 2, cfg
    )
    for key in base:
        assert abs(l0.estimates[key] - l1.estimates[key]) < 1e-9


def test_hierarchical_mode_limit():
    spec = random_spec(4, 1, seed=0)
    cut = FockCutoff(n_max=2, modes=4)
    cfg = derive_config(1, k_max=4, noiseless=True, shots=20, l_steps=None)
    with pytest.raises(ValueError):
        learn_multimode_hierarchical(SimulatedDevice(spec, cut), 4, 1, cfg)


# -- batched RPE runs ----------------------------------------------------------

MULTI_SPEC = random_spec(2, 2, seed=11, sparsity=0.8)
MULTI_CUT = adaptive_cutoff(MULTI_SPEC, 1.0)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(SimulatedDevice, name)

    def counted(device, *args, **kwargs):
        calls.append(args)
        return original(device, *args, **kwargs)

    monkeypatch.setattr(SimulatedDevice, name, counted)
    return calls


@pytest.mark.parametrize("l_steps", [None, "auto"])
def test_rpe_estimates_equal_one_run_at_a_time(monkeypatch, l_steps):
    spec = random_spec(1, 2, seed=3, include_couplings=False)
    cut = adaptive_cutoff(spec, 1.0)
    cfg = derive_config(2, k_max=5, shots=30, l_steps=l_steps)
    betas = [[0.3], [0.5 + 0.5j], [0.3], [-0.8j]]
    tokens = [f"t{i}" for i in range(len(betas))]
    frame_z = (0.1 + 0.05j,)
    # an uneven ledger total first, so that a difference of running totals is
    # not the plain sum of a run's charges
    warm_up = ShotRequest(kappa=3, t0=0.1234567, beta=(0.2,), basis="X", rng_token="w")
    sequential = SimulatedDevice(spec, cut, master_seed=9)
    sequential.run_shot_batch(warm_up, 33)
    one_by_one = []
    for beta, token in zip(betas, tokens):
        before = sequential.ledger().total_evolution_time
        est = rpe_estimate(sequential, beta, cfg, frame_z=frame_z, token=token)
        assert est.time_cost == sequential.ledger().total_evolution_time - before
        one_by_one.append(est)
    batched = SimulatedDevice(spec, cut, master_seed=9)
    batched.run_shot_batch(warm_up, 33)
    batches = _count_calls(monkeypatch, "run_shot_batches")
    ests = rpe_estimates(batched, betas, cfg, frame_z, tokens)
    assert len(batches) == 1 and len(batches[0][0]) == len(betas) * 2 * (cfg.k_max + 1)
    assert ests == one_by_one
    assert batched.ledger() == sequential.ledger()


def test_rpe_estimates_exact_channel_asks_once_per_request(monkeypatch):
    cfg = derive_config(2, k_max=4, noiseless=True, shots=20, l_steps=None)
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT)
    exact = _count_calls(monkeypatch, "probability")
    batches = _count_calls(monkeypatch, "run_shot_batches")
    ests = rpe_estimates(dev, [(0.2, 0.3j), (0.4, 0.1)], cfg, None, ["a", "b"])
    assert len(exact) == 2 * 2 * (cfg.k_max + 1) and batches == []
    assert all(est.time_cost == 0.0 for est in ests)
    with pytest.raises(ValueError):
        rpe_estimates(dev, [(0.2, 0.3j), (0.4, 0.1)], cfg, None, ["a"])


def test_learners_make_one_device_call_per_grid(monkeypatch):
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    batches = _count_calls(monkeypatch, "run_shot_batches")
    learn_single_mode(
        SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, cfg, mode=1, subtract_offset=True
    )
    assert len(batches) == 2  # the beta = 0 offset, then the grid
    batches.clear()
    learn_multimode_hierarchical(SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, cfg)
    assert len(batches) == 3  # one isolated grid per mode, then the joint grid
    batches.clear()
    learn_multimode_simultaneous(SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, cfg)
    assert len(batches) == 1


def _grid_inconsistent(grids, cfg, token_of):
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=1)
    total = 0
    for name, grid in grids:
        tokens = [f"{token_of}:{name}:g{i}" for i in range(len(grid))]
        runs = rpe_estimates(dev, grid, cfg, None, tokens)
        total += sum(len(e.inconsistent_rounds) for e in runs)
    return total


def test_multimode_learners_report_inconsistent_rounds():
    # 20 shots per basis are few enough that some rounds jump
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    grid = joint_grid(2, 2)
    iso = [np.where(np.arange(2) == m, grid, 0) for m in range(2)]
    hier = learn_multimode_hierarchical(
        SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=1), 2, 2, cfg, token="h"
    )
    expected = _grid_inconsistent([("s0", iso[0]), ("s1", iso[1]), ("j", grid)], cfg, "h")
    assert hier.diagnostics["inconsistent_rounds"] == expected > 0
    simul = learn_multimode_simultaneous(
        SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=1), 2, 2, cfg, token="s"
    )
    expected = _grid_inconsistent([("j", grid)], cfg, "s")
    assert simul.diagnostics["inconsistent_rounds"] == expected > 0
    # the exact channel never jumps
    exact = derive_config(2, k_max=6, noiseless=True, shots=20, l_steps=None)
    for learner in (learn_multimode_hierarchical, learn_multimode_simultaneous):
        learned = learner(SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, exact)
        assert learned.diagnostics["inconsistent_rounds"] == 0
