import math

import numpy as np
import pytest

from bosonlearn import protocol
from bosonlearn.bogoliubov import frame_from_ratio
from bosonlearn.device import NoiseModel, ShotRequest, SimulatedDevice, TimeLedger
from bosonlearn.fockspace import FockCutoff, adaptive_cutoff
from bosonlearn.hamiltonian import (
    HamiltonianSpec,
    TermKey,
    admissible_keys,
    constant_term,
    random_spec,
    single_key,
)
from bosonlearn.protocol import (
    RpeConfig,
    _unwrap,
    derive_config,
    joint_grid,
    learn_displacement_biased,
    learn_multimode_hierarchical,
    learn_multimode_simultaneous,
    learn_single_mode,
    rpe_estimates,
)
from bosonlearn.oracles import shot_stream
from bosonlearn.recovery import single_mode_pipeline, staged_fit


def test_derive_config_prior_bound():
    cfg = derive_config(2, r_max=1.0, g_max=1.0)
    assert cfg.c_bound == pytest.approx(5.0)
    assert cfg.t0 == pytest.approx(0.9 * math.pi / 5.0)
    assert cfg.t0 * cfg.c_bound < math.pi


@pytest.mark.parametrize("d, modes, c_bound", [(2, 1, 5), (2, 2, 14), (2, 3, 27), (3, 2, 34)])
def test_derive_config_prior_counts_every_admissible_key(d, modes, c_bound):
    assert derive_config(d, modes=modes).c_bound == c_bound


def test_multimode_prior_bounds_the_joint_grid():
    # at r_max = 1 every |beta_m| <= 1, so |C| stays below the joint key count
    # times g_max and the first RPE round never wraps, for two and three modes
    for modes, seeds in ((2, 40), (3, 5)):
        t0 = derive_config(2, modes=modes).t0
        grid = joint_grid(modes, 2)
        for sparsity in (0.8, 1.0):
            for seed in range(seeds):
                spec = random_spec(modes, 2, seed=seed, sparsity=sparsity)
                worst = max(abs(constant_term(spec, beta)) for beta in grid)
                assert worst * t0 < math.pi


def test_rpe_config_validation():
    with pytest.raises(ValueError):
        RpeConfig(k_max=-1, shots=100, t0=0.5, c_bound=1.0)
    with pytest.raises(ValueError):
        RpeConfig(k_max=4, shots=5, t0=0.5, c_bound=1.0)
    with pytest.raises(ValueError):
        RpeConfig(k_max=4, shots=100, t0=2.0, c_bound=2.0)
    # the exact channel (shots=None) has no shot floor
    RpeConfig(k_max=4, shots=None, t0=0.5, c_bound=1.0)


@pytest.mark.parametrize(
    "shots", [50.5, 50.0, np.float64(60.0)], ids=["fraction", "float", "numpy-float"]
)
def test_rpe_config_rejects_non_integer_shots(shots):
    # numpy's binomial would draw int(shots) while the ledger and the
    # estimates used the fractional count
    with pytest.raises(TypeError):
        RpeConfig(k_max=3, shots=shots, t0=0.5, c_bound=1.0)
    cfg = RpeConfig(k_max=3, shots=np.int64(50), t0=0.5, c_bound=1.0)
    device = SimulatedDevice(HamiltonianSpec(1, 2, {single_key(1, 1): 1.0}), FockCutoff(n_max=12))
    rpe_estimates(device, [(0.3 + 0j,)], cfg, None, ["rpe"])
    assert device.ledger().shot_count == 50 * 2 * 4


@pytest.mark.parametrize("k_max", [2.5, 3.0, np.float64(4.0)], ids=["fraction", "float", "numpy-float"])
def test_rpe_config_rejects_non_integer_k_max(k_max):
    # a fractional depth would only fail inside the learn, at range()
    with pytest.raises(TypeError):
        RpeConfig(k_max=k_max, shots=50, t0=0.5, c_bound=1.0)
    assert RpeConfig(k_max=np.int64(3), shots=50, t0=0.5, c_bound=1.0).k_max == 3


@pytest.mark.parametrize("l_steps", [2.5, 64.0], ids=["fraction", "float"])
def test_rpe_config_rejects_non_integer_l_steps(l_steps):
    # the device would raise the Trotter amplitude to a fractional power
    with pytest.raises(TypeError):
        RpeConfig(k_max=3, shots=50, t0=0.5, c_bound=1.0, l_steps=l_steps)
    with pytest.raises(ValueError, match="l_steps must be >= 1"):
        RpeConfig(k_max=3, shots=50, t0=0.5, c_bound=1.0, l_steps=0)
    for valid in ("auto", None, 64, np.int64(64)):
        assert RpeConfig(k_max=3, shots=50, t0=0.5, c_bound=1.0, l_steps=valid).l_steps == valid


@pytest.mark.parametrize("t0", [0.0, -0.5])
def test_rpe_config_rejects_nonpositive_t0(t0):
    # c_bound * t0 < pi holds for any t0 <= 0, so only this check stops it
    with pytest.raises(ValueError, match="t0 must be > 0"):
        RpeConfig(k_max=4, shots=100, t0=t0, c_bound=1.0)


def test_predicted_eps_c_formula():
    cfg = RpeConfig(k_max=6, shots=100, t0=0.5, c_bound=1.0)
    assert cfg.predicted_eps_c == pytest.approx(1.0 / (64 * 0.5 * 10))
    assert RpeConfig(k_max=6, shots=None, t0=0.5, c_bound=1.0).predicted_eps_c == 0.0


def test_steps_policy():
    cfg = RpeConfig(k_max=4, shots=100, t0=0.5, c_bound=1.0, l_steps="auto", h_scale=2.0)
    assert cfg.steps_for(1) == 64
    assert cfg.steps_for(64) == math.ceil(32 * 64 * 0.5 * 2.0)
    assert RpeConfig(k_max=4, shots=100, t0=0.5, c_bound=1.0, l_steps=None).steps_for(8) is None


def test_rpe_noiseless_is_exact():
    spec = random_spec(1, 2, seed=1, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.8)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(2, k_max=8, shots=None, l_steps=None)
    beta = 0.8 * np.exp(0.5j)
    c_hat, inconsistent = rpe_estimates(dev, [beta], cfg, None, ["rpe"])
    assert c_hat[0] == pytest.approx(constant_term(spec, [beta]), abs=1e-9)
    assert not inconsistent.any()


def test_rpe_unwrapping_beyond_single_round_range():
    # at kappa = 2^8 the phase wraps many times; unwrapping must still recover C
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    dev = SimulatedDevice(spec, FockCutoff(n_max=16))
    cfg = derive_config(2, k_max=8, shots=None, l_steps=None)
    c = 0.9**2
    assert 2**8 * cfg.t0 * c > 2 * math.pi
    c_hat, _ = rpe_estimates(dev, [0.9], cfg, None, ["rpe"])
    assert c_hat[0] == pytest.approx(c, abs=1e-10)


def test_rpe_shot_error_near_predicted_scale():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    cut = FockCutoff(n_max=16)
    cfg = derive_config(2, k_max=7, shots=200, l_steps=None)
    errs = []
    for seed in range(40):
        dev = SimulatedDevice(spec, cut, master_seed=seed)
        c_hat, _ = rpe_estimates(dev, [0.8], cfg, None, [f"e{seed}"])
        errs.append(c_hat[0] - 0.64)
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse < 4 * cfg.predicted_eps_c
    assert rmse > cfg.predicted_eps_c / 10


def test_rpe_time_cost_doubles_per_round():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    dev = SimulatedDevice(spec, FockCutoff(n_max=16), master_seed=0)
    cfg = derive_config(2, k_max=5, shots=50, l_steps=None)
    rpe_estimates(dev, [0.5], cfg, None, ["rpe"])
    expected = 2 * 50 * cfg.t0 * (2**6 - 1)
    assert dev.ledger().total_evolution_time == pytest.approx(expected)


def test_learn_single_mode_noiseless_exact():
    spec = random_spec(1, 3, seed=12, include_couplings=False)
    cut = adaptive_cutoff(spec, 1.0)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(3, k_max=9, shots=None, l_steps=None)
    learned = learn_single_mode(dev, 3, cfg)
    for key, truth in spec.terms.items():
        assert abs(learned.estimates[key] - truth) < 1e-8
    assert learned.diagnostics["max_residual"] < 1e-8


def test_learn_single_mode_offset_subtraction():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 0.8}, identity_offset=0.37)
    dev = SimulatedDevice(spec, FockCutoff(n_max=24))
    cfg = derive_config(2, k_max=9, shots=None, l_steps=None)
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


@pytest.mark.parametrize("mode", [1, -1, 2])
def test_learn_single_mode_rejects_a_mode_the_device_lacks(mode):
    # -1 used to learn the last mode under keys labelled mode -1
    dev = SimulatedDevice(HamiltonianSpec(1, 2, {single_key(1, 1): 0.5}), FockCutoff(n_max=16))
    cfg = derive_config(2, k_max=4, shots=None, l_steps=None)
    with pytest.raises(ValueError, match=f"mode {mode} is out of range: the device has 1 modes"):
        learn_single_mode(dev, 2, cfg, mode=mode)
    assert dev.ledger() == TimeLedger()


@pytest.mark.parametrize("subtract_offset", [False, True])
@pytest.mark.parametrize("modes", [1, 3])
@pytest.mark.parametrize("learner", [learn_multimode_hierarchical, learn_multimode_simultaneous])
def test_multimode_learners_reject_a_mode_count_the_device_lacks(learner, modes, subtract_offset):
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT)
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    with pytest.raises(ValueError, match="the device has 2 modes"):
        learner(dev, modes, 2, cfg, subtract_offset=subtract_offset)
    assert dev.ledger() == TimeLedger()


def test_learn_single_mode_keys_its_estimates_by_term():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 0.5})
    dev = SimulatedDevice(spec, FockCutoff(n_max=16))
    cfg = derive_config(2, k_max=6, shots=None, l_steps=None)
    learned = learn_single_mode(dev, 2, cfg)
    assert learned.estimates[single_key(1, 1)] == pytest.approx(0.5, abs=1e-8)


def test_joint_grid_shape_and_content():
    grid = joint_grid(2, 2)
    assert grid.shape == (144, 2)
    assert np.all(np.abs(grid) <= 1.0 + 1e-12)


def test_multimode_hierarchical_noiseless_exact():
    spec = random_spec(2, 2, seed=11, sparsity=0.8)
    cut = adaptive_cutoff(spec, 1.0)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(2, k_max=9, shots=None, l_steps=None)
    learned = learn_multimode_hierarchical(dev, 2, 2, cfg)
    for key, truth in spec.terms.items():
        assert abs(learned.estimates[key] - truth) < 1e-7
    assert learned.diagnostics["strategy"] == "hierarchical"
    residuals = learned.diagnostics["max_residual"]
    assert set(residuals) == {"s0", "s1", "j"} and max(residuals.values()) < 1e-8


def test_multimode_simultaneous_noiseless_exact():
    spec = random_spec(2, 2, seed=11, sparsity=0.8)
    cut = adaptive_cutoff(spec, 1.0)
    dev = SimulatedDevice(spec, cut)
    cfg = derive_config(2, k_max=9, shots=None, l_steps=None)
    learned = learn_multimode_simultaneous(dev, 2, 2, cfg)
    for key, truth in spec.terms.items():
        assert abs(learned.estimates[key] - truth) < 1e-7
    assert learned.diagnostics["max_residual"]["j"] < 1e-8


def test_fit_residual_flags_a_wrapped_first_round():
    # a one-mode prior on the full 3-mode joint grid: |C| t0 passes pi at some
    # points, their first RPE round wraps, and the values there are off by
    # about 2 pi/t0, which no model of the grid absorbs
    spec = random_spec(3, 2, seed=0)
    cfg = derive_config(2, k_max=4, shots=None, l_steps=None, modes=1)
    dev = SimulatedDevice(spec, FockCutoff(n_max=8, modes=3))
    learned = learn_multimode_simultaneous(dev, 3, 2, cfg)
    assert learned.diagnostics["max_residual"]["j"] > 1.0


def test_hierarchical_singles_unaffected_by_couplings():
    # isolated displacements see exactly nothing of the coupling terms
    base = {single_key(1, 1, 0): 1.0 + 0j, single_key(1, 1, 1): 0.6 + 0j}
    k = TermKey((0, 1), (1, 0), (0, 1))
    with_c = dict(base)
    with_c[k] = 0.4 + 0j
    with_c[k.conjugate] = 0.4 + 0j
    cfg = derive_config(2, k_max=8, shots=None, l_steps=None)
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
    cfg = derive_config(1, k_max=4, shots=None, l_steps=None)
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


_RUN_SHOT_GRID = SimulatedDevice.run_shot_grid


def _recorded_grids(monkeypatch):
    """(args, counts) of each run_shot_grid call, in order."""
    calls = []

    def recorded(device, *args):
        counts = _RUN_SHOT_GRID(device, *args)
        calls.append((args, counts))
        return counts

    monkeypatch.setattr(SimulatedDevice, "run_shot_grid", recorded)
    return calls


def _replayed_grids(monkeypatch, counts):
    """run_shot_grid validates and charges as usual but returns the next rows
    of counts, so runs sent in several calls read what one call drew."""
    rows = iter(counts)

    def replayed(device, betas, *args):
        drawn = _RUN_SHOT_GRID(device, betas, *args)
        return np.array([next(rows) for _ in betas]).reshape(drawn.shape)

    monkeypatch.setattr(SimulatedDevice, "run_shot_grid", replayed)


def _own_call_inconsistent_runs(calls, cfg):
    """inconsistent_runs of the one recorded call: the rounds at which each
    run's unwrap of the counts that call drew jumps, by token."""
    ((args, counts),) = calls
    _, mask = _unwrap((cfg.shots - counts) / cfg.shots, cfg)
    return {t: np.flatnonzero(row).tolist() for t, row in zip(args[5], mask) if row.any()}


@pytest.mark.parametrize("l_steps", [None, "auto"])
def test_rpe_estimates_equal_one_run_at_a_time(monkeypatch, l_steps):
    # the estimates unwrap the counts of the grid's one call, run by run, and
    # the ledger is charged run by run
    spec = random_spec(1, 2, seed=3, include_couplings=False)
    cut = adaptive_cutoff(spec, 1.0)
    cfg = derive_config(2, k_max=5, shots=30, l_steps=l_steps)
    betas = [[0.3], [0.5 + 0.5j], [0.3], [-0.8j]]
    tokens = [f"t{i}" for i in range(len(betas))]
    frame_z = (0.1 + 0.05j,)
    # an uneven ledger total first, so that a difference of running totals is
    # not the plain sum of a run's charges
    warm_up = ([(0.2,)], None, 0.1234567, [(3, "X", None)], 33, ["w"])
    batched = SimulatedDevice(spec, cut, master_seed=9)
    batched.run_shot_grid(*warm_up)
    grids = _recorded_grids(monkeypatch)
    c_hat, inconsistent = rpe_estimates(batched, betas, cfg, frame_z, tokens)
    assert len(grids) == 1
    (betas_sent, _, _, schedule, _, _), counts = grids[0]
    assert len(betas_sent) == len(betas) and len(schedule) == 2 * (cfg.k_max + 1)
    assert inconsistent.shape == (len(betas), cfg.k_max + 1)
    sequential = SimulatedDevice(spec, cut, master_seed=9)
    sequential.run_shot_grid(*warm_up)
    _replayed_grids(monkeypatch, counts)
    one_by_one = [
        rpe_estimates(sequential, [beta], cfg, frame_z, [token]) for beta, token in zip(betas, tokens)
    ]
    assert c_hat.tolist() == [c[0] for c, _ in one_by_one]
    assert inconsistent.tolist() == [mask[0].tolist() for _, mask in one_by_one]
    assert batched.ledger() == sequential.ledger()


def _equivalent_requests(betas, cfg, frame_z):
    """The ShotRequest each request of a grid stands for, run-major."""
    return [
        ShotRequest(
            kappa=2**j,
            t0=cfg.t0,
            beta=tuple(beta),
            basis=basis,
            l_steps=cfg.steps_for(2**j),
            frame_z=frame_z,
        )
        for beta in betas
        for j in range(cfg.k_max + 1)
        for basis in ("X", "Y")
    ]


@pytest.mark.parametrize("l_steps", [None, "auto"])
@pytest.mark.parametrize("frame_z", [None, (0.1 + 0.05j, -0.2j)])
def test_columnar_grid_equals_shot_requests_and_stream_oracle(l_steps, frame_z):
    cfg = derive_config(2, k_max=4, shots=40, l_steps=l_steps)
    betas = [(0.3 + 0j, 0.5j), (0j, -0.4 + 0j), (0.3 + 0j, 0.5j), (0.6 - 0.2j, 0.1 + 0j)]
    tokens = ["g0", "g1", "g2", "g3"]
    noise = NoiseModel(delta_beta=(0.01j,), state_prep_infidelity=0.05)

    def fresh():
        dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=17, noise=noise)
        # an uneven ledger total first
        dev.run_shot_grid([(0.2, 0j)], None, 0.1234567, [(3, "X", None)], 33, ["w"])
        return dev

    grid_dev = fresh()
    total = grid_dev.ledger().total_evolution_time
    rpe_estimates(grid_dev, betas, cfg, frame_z, tokens)
    requests = _equivalent_requests(betas, cfg, frame_z)
    # one probability() per request, the running ledger, and one binomial
    # call on the call's stream, built through numpy's own SeedSequence
    oracle_dev = fresh()
    width = 2 * (cfg.k_max + 1)
    p = np.array([oracle_dev.probability(req) for req in requests]).reshape(len(betas), width)
    for req in requests:
        total += cfg.shots * req.evolution_time
    assert grid_dev.ledger() == TimeLedger(total, 33 + len(requests) * cfg.shots)
    schedule = [(r.kappa, r.basis, r.l_steps) for r in requests[:width]]
    suffixes = [f":k{r.kappa}:{r.basis}" for r in requests[:width]]
    oracle_ones = shot_stream(17, tokens, suffixes).binomial(cfg.shots, 1.0 - p)
    counts = fresh().run_shot_grid(betas, frame_z, cfg.t0, schedule, cfg.shots, tokens)
    assert counts.shape == (len(betas), width)
    assert np.array_equal(counts, oracle_ones)


@pytest.mark.parametrize(
    "row, message",
    [
        ((0, "X", None), "kappa must be a positive integer"),
        ((1, "Z", None), "basis must be 'X' or 'Y'"),
        ((2, "Y", 0), "l_steps must be >= 1"),
    ],
)
def test_invalid_schedule_row_raises_the_shot_request_error(row, message):
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=2)
    schedule = [(1, "X", None), row]
    with pytest.raises(ValueError, match=message):
        dev.run_shot_grid([(0.1, 0.2)], None, 0.3, schedule, 30, ["a"])
    with pytest.raises(ValueError, match="t0 must be positive"):
        dev.run_shot_grid([(0.1, 0.2)], None, -0.3, schedule[:1], 30, ["a"])
    with pytest.raises(ValueError, match="need one token per beta"):
        dev.run_shot_grid([(0.1, 0.2)], None, 0.3, schedule[:1], 30, ["a", "b"])
    assert dev.ledger() == TimeLedger()


def test_rpe_estimates_exact_channel_asks_once_per_request(monkeypatch):
    cfg = derive_config(2, k_max=4, shots=None, l_steps=None)
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT)
    exact = _count_calls(monkeypatch, "probability")
    exact_grids = _count_calls(monkeypatch, "probability_grid")
    grids = _count_calls(monkeypatch, "run_shot_grid")
    c_hat, inconsistent = rpe_estimates(dev, [(0.2, 0.3j), (0.4, 0.1)], cfg, None, ["a", "b"])
    assert len(exact) == 2 * 2 * (cfg.k_max + 1) and grids == []
    assert len(exact_grids) == 1
    assert c_hat.shape == (2,) and not inconsistent.any()
    assert dev.ledger() == TimeLedger()
    with pytest.raises(ValueError):
        rpe_estimates(dev, [(0.2, 0.3j), (0.4, 0.1)], cfg, None, ["a"])


def _sent(batches):
    """(betas, tokens) of each recorded run_shot_grid call."""
    return [(list(args[0]), list(args[5])) for args in batches]


def _grid(stem, points):
    """(betas, tokens) a grid sends: each row as a tuple of Python complex,
    row i under the token f"{stem}{i}"."""
    rows = [tuple(complex(b) for b in row) for row in points]
    return rows, [f"{stem}{i}" for i in range(len(rows))]


def _joined(*parts):
    """(betas, tokens) of grids sent together, in order."""
    return [b for betas, _ in parts for b in betas], [t for _, tokens in parts for t in tokens]


def test_learners_make_one_device_call_per_learn(monkeypatch):
    # each token keys a request's shot stream, so the betas and tokens of
    # every run, the beta = 0 offset run first, are pinned here
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    line = [r * np.exp(1j * theta) for r, theta in single_mode_pipeline(2).points]
    grid = joint_grid(2, 2)
    iso = [np.where(np.arange(2) == m, grid, 0) for m in range(2)]
    batches = _count_calls(monkeypatch, "run_shot_grid")
    learn_single_mode(
        SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, cfg, mode=1, subtract_offset=True
    )
    offset = ([(0j, 0j)], ["single:m1:offset"])
    assert _sent(batches) == [_joined(offset, _grid("single:m1:p", [(0j, b) for b in line]))]
    batches.clear()
    learn_multimode_hierarchical(SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, cfg)
    stages = [_grid("hier:s0:g", iso[0]), _grid("hier:s1:g", iso[1]), _grid("hier:j:g", grid)]
    assert _sent(batches) == [_joined(*stages)]
    batches.clear()
    learn_multimode_hierarchical(
        SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, cfg, subtract_offset=True
    )
    assert _sent(batches) == [_joined(([(0j, 0j)], ["hier:offset"]), *stages)]
    batches.clear()
    learn_multimode_simultaneous(SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, cfg)
    assert _sent(batches) == [_grid("simul:j:g", grid)]
    batches.clear()
    learn_multimode_simultaneous(
        SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, cfg, subtract_offset=True, token="t"
    )
    assert _sent(batches) == [_joined(([(0j, 0j)], ["t:offset"]), _grid("t:j:g", grid))]
    batches.clear()
    one_mode = SimulatedDevice(HamiltonianSpec(1, 2, {single_key(1, 1): 0.5}), FockCutoff(n_max=16))
    delta = np.linspace(0.0, 1e-2, len(line)) * 1j
    learn_displacement_biased(one_mode, 2, cfg, delta)
    assert _sent(batches) == [_grid("spam", [(b + s,) for b, s in zip(line, delta)])]


def _measure_grid_by_grid(device, cfg, frame_z, offset_token, grids):
    """The learners' measurement step with one rpe_estimates call per grid,
    the offset run first in a call of its own."""
    offset = None
    if offset_token is not None:
        beta = [np.zeros(device.cutoff.modes)]
        offset = float(rpe_estimates(device, beta, cfg, frame_z, [offset_token])[0][0])
    values = [
        rpe_estimates(device, points, cfg, frame_z, [f"{stem}{i}" for i in range(len(points))])[0]
        for points, stem in grids
    ]
    return offset, values, {}


_LEARNERS = {
    "single": lambda dev, cfg, **kw: learn_single_mode(dev, 2, cfg, mode=1, **kw),
    "hierarchical": lambda dev, cfg, **kw: learn_multimode_hierarchical(dev, 2, 2, cfg, **kw),
    "simultaneous": lambda dev, cfg, **kw: learn_multimode_simultaneous(dev, 2, 2, cfg, **kw),
}


@pytest.mark.parametrize("subtract_offset", [False, True])
@pytest.mark.parametrize("shots", [20, None], ids=["shots", "exact"])
@pytest.mark.parametrize("learner", sorted(_LEARNERS))
def test_one_call_learn_equals_its_grids_sent_one_by_one(monkeypatch, learner, shots, subtract_offset):
    # the ledger is charged run by run, and a run's estimate unwraps its own
    # counts, so grids sent one by one that read the counts of the learn's
    # one call give the same learn
    cfg = derive_config(2, k_max=3 if shots else 5, shots=shots, l_steps=None)
    frame_z = (0.1 + 0.05j, -0.2j)

    def learn():
        dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=5)
        learned = _LEARNERS[learner](dev, cfg, frame_z=frame_z, subtract_offset=subtract_offset)
        ledger = dev.ledger()
        return (
            learned.estimates,
            learned.identity_offset,
            ledger.total_evolution_time.hex(),
            ledger.shot_count,
        )

    calls = _recorded_grids(monkeypatch)
    together = learn()
    assert len(calls) == (shots is not None)
    _replayed_grids(monkeypatch, calls[0][1] if calls else [])
    monkeypatch.setattr(protocol, "_measure", _measure_grid_by_grid)
    one_by_one = learn()
    assert together == one_by_one
    assert (together[1] != 0.0) == subtract_offset
    assert (together[3] > 0) == (shots is not None)


def test_offset_run_inconsistent_rounds_are_reported(monkeypatch):
    # every grid value is shifted by the beta = 0 estimate, so a jump in that
    # run is reported with the grid runs' jumps, under the offset's token
    cfg = derive_config(2, k_max=4, shots=20, l_steps=None)
    frame_z = (0.1 + 0.05j, -0.2j)
    calls = _recorded_grids(monkeypatch)
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=3)
    diagnostics = learn_single_mode(
        dev, 2, cfg, mode=1, frame_z=frame_z, subtract_offset=True
    ).diagnostics
    runs = diagnostics["inconsistent_runs"]
    assert calls[0][0][5][0] == "single:m1:offset"
    assert runs == _own_call_inconsistent_runs(calls, cfg)
    assert runs["single:m1:offset"] == [1]
    assert diagnostics["inconsistent_rounds"] == sum(map(len, runs.values()))


def test_two_learns_on_one_device_draw_as_on_two_fresh_devices(monkeypatch):
    # a learn's counts depend on the master seed and its own tokens, never on
    # what the device drew before
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    calls = _recorded_grids(monkeypatch)
    shared = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=4)
    for token in ("a", "b"):
        learn_multimode_simultaneous(shared, 2, 2, cfg, token=token)
    for token in ("a", "b"):
        fresh = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=4)
        learn_multimode_simultaneous(fresh, 2, 2, cfg, token=token)
    a, b, fresh_a, fresh_b = (counts for _, counts in calls)
    assert np.array_equal(a, fresh_a) and np.array_equal(b, fresh_b)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "betas", [[(0.1, 0.2), (0.3,)], [(0.1, 0.2, 0.3)], [0.1, 0.2]], ids=["ragged", "wide", "scalar"]
)
def test_rpe_estimates_needs_one_entry_per_mode(betas):
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=2)
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    tokens = [f"b{i}" for i in range(len(betas))]
    with pytest.raises(ValueError, match="the device has 2 modes"):
        rpe_estimates(dev, betas, cfg, None, tokens)
    assert dev.ledger() == TimeLedger()


def test_multimode_learners_report_inconsistent_rounds(monkeypatch):
    # 20 shots per basis are few enough that some rounds jump
    cfg = derive_config(2, k_max=3, shots=20, l_steps=None)
    calls = _recorded_grids(monkeypatch)
    for learner, token in ((learn_multimode_hierarchical, "h"), (learn_multimode_simultaneous, "s")):
        calls.clear()
        learned = learner(SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=1), 2, 2, cfg, token=token)
        runs = learned.diagnostics["inconsistent_runs"]
        assert runs == _own_call_inconsistent_runs(calls, cfg)
        assert learned.diagnostics["inconsistent_rounds"] == sum(map(len, runs.values())) > 0
    calls.clear()
    single = learn_single_mode(SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=1), 2, cfg)
    runs = single.diagnostics["inconsistent_runs"]
    assert runs == _own_call_inconsistent_runs(calls, cfg)
    assert runs and all(token.startswith("single:m0:p") and rounds for token, rounds in runs.items())
    assert sum(map(len, runs.values())) == single.diagnostics["inconsistent_rounds"]
    # the exact channel never jumps
    exact = derive_config(2, k_max=6, shots=None, l_steps=None)
    for learner in (learn_multimode_hierarchical, learn_multimode_simultaneous):
        learned = learner(SimulatedDevice(MULTI_SPEC, MULTI_CUT), 2, 2, exact)
        assert learned.diagnostics["inconsistent_rounds"] == 0
        assert learned.diagnostics["inconsistent_runs"] == {}


def _scalar_unwrap(p0, cfg):
    """One run unwrapped round by round with Python floats: the reference the
    grid unwrap reproduces bit for bit."""
    estimate, inconsistent = 0.0, []
    for j in range(cfg.k_max + 1):
        kappa = 2**j
        phi = math.atan2(1.0 - 2.0 * p0[2 * j + 1], 2.0 * p0[2 * j] - 1.0)
        base = phi / (kappa * cfg.t0)
        period = 2.0 * math.pi / (kappa * cfg.t0)
        candidate = base + period * round((estimate - base) / period)
        if j > 0 and abs(candidate - estimate) > math.pi / (3.0 * kappa * cfg.t0):
            inconsistent.append(j)
        estimate = candidate
    return estimate, inconsistent


@pytest.mark.parametrize("seed", range(6))
def test_grid_unwrap_equals_the_scalar_unwrap(seed):
    rng = np.random.default_rng(seed)
    k_max, shots = int(rng.integers(1, 9)), int(rng.integers(20, 200))
    cfg = derive_config(2, k_max=k_max, shots=shots)
    # uniform counts jump often; half-shot counts put p at exactly 0.5
    ones = rng.integers(0, shots + 1, size=(40, 2 * (k_max + 1)))
    ones[rng.random(ones.shape) < 0.2] = shots // 2
    p0 = (shots - ones) / shots
    estimates, inconsistent = _unwrap(p0, cfg)
    assert inconsistent.any()
    for i in range(len(p0)):
        expected = _scalar_unwrap(p0[i].tolist(), cfg)
        assert (estimates[i], np.flatnonzero(inconsistent[i]).tolist()) == expected



def _per_round_phases(p0, cfg):
    """_unwrap's per-round reference: each round's phase from its own map of
    math.atan2 over that round's columns."""
    runs = len(p0)
    phases = []
    for j in range(cfg.k_max + 1):
        y = 1.0 - 2.0 * p0[:, 2 * j + 1]
        x = 2.0 * p0[:, 2 * j] - 1.0
        phases.append(np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, runs))
    return phases


def _per_round_unwrap(p0, cfg):
    estimate = np.zeros(len(p0))
    inconsistent = np.zeros((len(p0), cfg.k_max + 1), dtype=bool)
    for j, phase in enumerate(_per_round_phases(p0, cfg)):
        kappa = 2**j
        base = phase / (kappa * cfg.t0)
        period = 2.0 * math.pi / (kappa * cfg.t0)
        candidate = base + period * np.rint((estimate - base) / period)
        if j > 0:
            inconsistent[:, j] = np.abs(candidate - estimate) > math.pi / (3.0 * kappa * cfg.t0)
        estimate = candidate
    return estimate, inconsistent


@pytest.mark.parametrize("runs", [15, 51, 433])
def test_one_phase_pass_equals_the_per_round_unwrap(runs):
    # K = 18 is the frame search's deepest plan; 15, 51 and 433 runs are an
    # order-2 row, a d = 4 grid and a larger grid
    shots = 50
    cfg = derive_config(4, k_max=18, shots=shots, l_steps=None)
    rng = np.random.default_rng(runs)
    ones = rng.integers(0, shots + 1, size=(runs, 2 * (cfg.k_max + 1)))
    ones[rng.random(ones.shape) < 0.2] = shots // 2
    p0 = (shots - ones) / shots
    estimates, inconsistent = _unwrap(p0, cfg)
    expected_estimates, expected_inconsistent = _per_round_unwrap(p0, cfg)
    assert np.array_equal(estimates, expected_estimates)
    assert np.array_equal(inconsistent, expected_inconsistent)
    assert inconsistent.any()


def test_hierarchical_offset_counts_each_shared_error_once():
    # acceptance test 10's spec, frames and schedule, with the two-mode prior.
    # The beta = 0 offset enters the coupling residual once, as
    # -1 + sum_m Phi_m P_m 1; counted in each single fit and again as its own
    # term, it gave every coupling a stderr of 0.0208.
    coupling = TermKey((0, 1), (1, 0), (0, 1))
    spec = HamiltonianSpec(
        2,
        2,
        {
            single_key(1, 1, 0): 1.0 + 0j,
            single_key(1, 1, 1): 0.7 + 0j,
            coupling: 0.3 + 0j,
            coupling.conjugate: 0.3 + 0j,
        },
    )
    true_z = tuple(complex(-frame_from_ratio(1.0, 1.0 / r).signed_r) for r in (1.2, 0.8))
    dev = SimulatedDevice(spec, FockCutoff(20, 2), master_seed=202, true_frame_z=true_z)
    cfg = derive_config(2, g_max=2.0, k_max=6, shots=100, l_steps=None, modes=2)
    learned = learn_multimode_hierarchical(
        dev, 2, 2, cfg, frame_z=true_z, subtract_offset=True, token="inv202"
    )
    couplings = [se for key, se in learned.stderr.items() if key.is_coupling]
    assert len(couplings) == 4
    assert all(round(se, 4) == 0.0124 for se in couplings)


def test_displacement_biased_learn_keeps_the_device_noise():
    # delta adds to the device's own displacement bias
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 0.8})
    cut = FockCutoff(n_max=16)
    cfg = derive_config(2, k_max=4, shots=None, l_steps=None)
    delta = np.full(len(single_mode_pipeline(2).points), 1e-3)
    own_bias = NoiseModel(delta_beta=(2e-3j,), state_prep_infidelity=0.2)
    biased = learn_displacement_biased(SimulatedDevice(spec, cut, noise=own_bias), 2, cfg, delta)
    clean = SimulatedDevice(spec, cut, noise=NoiseModel(state_prep_infidelity=0.2))
    assert biased == pytest.approx(learn_displacement_biased(clean, 2, cfg, delta + 2e-3j), abs=1e-12)
    assert biased != pytest.approx(learn_displacement_biased(clean, 2, cfg, delta), abs=1e-6)
    with pytest.raises(ValueError):
        learn_displacement_biased(clean, 2, cfg, delta[:-1])


# -- the multi-mode learners' plan ---------------------------------------------

_TEST6_CFG = derive_config(2, k_max=3, shots=50, l_steps=None)


def _public_stages(strategy, values):
    """A strategy's stages (points, values, keys) from the public joint_grid
    and admissible_keys, each stage cut from values in measurement order."""
    grid = joint_grid(2, 2)
    keys = admissible_keys(2, 2)
    if strategy == "hierarchical":
        stages = []
        for m in range(2):
            iso = np.zeros_like(grid)
            iso[:, m] = grid[:, m]
            stages.append((iso, [k for k in keys if k.modes == (m,)]))
        stages.append((grid, [k for k in keys if k.is_coupling]))
    else:
        stages = [(grid, keys)]
    return [(points, v, ks) for (points, ks), v in zip(stages, values, strict=True)]


@pytest.mark.parametrize("subtract_offset", [False, True])
@pytest.mark.parametrize("strategy", ["hierarchical", "simultaneous"])
def test_planned_learns_equal_staged_fit_on_the_same_values(monkeypatch, strategy, subtract_offset):
    # acceptance test 6's spec and schedule, at its first ten master seeds
    measured = []
    measure = protocol._measure

    def recorded(*args):
        measured.append(measure(*args))
        return measured[-1]

    monkeypatch.setattr(protocol, "_measure", recorded)
    eps_c = _TEST6_CFG.predicted_eps_c
    for seed in range(10):
        dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=seed)
        learned = _LEARNERS[strategy](dev, _TEST6_CFG, subtract_offset=subtract_offset)
        offset, values, _ = measured[-1]
        fits = staged_fit(_public_stages(strategy, values), offset)
        assert learned.estimates == {k: v for fit in fits for k, v in fit.estimates.items()}
        assert learned.stderr == {
            k: math.sqrt(v) for fit in fits for k, v in fit.coefficient_variances(eps_c).items()
        }
        residuals = list(learned.diagnostics["max_residual"].values())
        assert residuals == [fit.max_residual for fit in fits]


def test_two_hierarchical_learns_decompose_each_design_once(monkeypatch):
    protocol._strategy_plan.cache_clear()
    single_mode_pipeline(2)  # the per-mode grid's own pipeline, cached apart
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(args) or svd(*args, **kw))
    for seed in (1, 2):
        learn_multimode_hierarchical(
            SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=seed), 2, 2, _TEST6_CFG
        )
    assert len(calls) == 3  # the stages s0, s1 and j, once each


@pytest.mark.parametrize("subtract_offset", [False, True])
@pytest.mark.parametrize("strategy", ["hierarchical", "simultaneous"])
def test_the_cached_plan_is_read_only(strategy, subtract_offset):
    dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT)
    _LEARNERS[strategy](dev, _TEST6_CFG, subtract_offset=subtract_offset)
    stages, plan = protocol._strategy_plan(strategy, 2, 2, 0.2, 1.0, subtract_offset)
    assert all(isinstance(keys, tuple) for _, _, keys in stages)
    arrays = [points for _, points, _ in stages]
    for stage in plan:
        arrays += [stage.design, stage.pinv, stage.linear_map, *stage.prior_designs]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("strategy", ["hierarchical", "simultaneous"])
def test_what_a_caller_does_to_a_learn_cannot_reach_the_next(strategy):
    def learn():
        dev = SimulatedDevice(MULTI_SPEC, MULTI_CUT, master_seed=3)
        return _LEARNERS[strategy](dev, _TEST6_CFG, subtract_offset=True)

    first = learn()
    expected = (dict(first.estimates), dict(first.stderr), dict(first.diagnostics["max_residual"]))
    for mapping in (first.estimates, first.stderr, first.diagnostics["max_residual"]):
        for key in mapping:
            mapping[key] = 99.0
    first.diagnostics["max_residual"].clear()
    grid = joint_grid(2, 2)
    assert grid.flags.writeable
    grid *= 3.0
    admissible_keys(2, 2).clear()
    again = learn()
    assert (again.estimates, again.stderr, again.diagnostics["max_residual"]) == expected
