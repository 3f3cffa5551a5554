import math
from dataclasses import replace
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn import device as device_module
from bosonlearn import fockspace
from bosonlearn.device import NoiseModel, ShotRequest, SimulatedDevice, TimeLedger
from bosonlearn.fockspace import FockCutoff, adaptive_cutoff
from bosonlearn.hamiltonian import HamiltonianSpec, build_matrix, random_spec, single_key
from bosonlearn.oracles import dense_probability, literal_shot, shot_stream
from bosonlearn.protocol import derive_config, learn_single_mode

NUMBER_SPEC = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
CUT = FockCutoff(n_max=16)


def number_device(seed=0, noise=None):
    return SimulatedDevice(NUMBER_SPEC, CUT, master_seed=seed, noise=noise)


def request(beta, basis="X", kappa=1, t0=0.3, l_steps=None, **kwargs):
    return ShotRequest(kappa=kappa, t0=t0, beta=(beta,), basis=basis, l_steps=l_steps, **kwargs)


def test_shot_request_validation():
    with pytest.raises(ValueError):
        ShotRequest(kappa=0, t0=0.3, beta=(0j,), basis="X")
    with pytest.raises(ValueError):
        ShotRequest(kappa=1, t0=-0.1, beta=(0j,), basis="X")
    with pytest.raises(ValueError):
        ShotRequest(kappa=1, t0=0.3, beta=(0j,), basis="Z")
    with pytest.raises(ValueError):
        ShotRequest(kappa=1, t0=0.3, beta=(0j,), basis="X", l_steps=0)
    assert request(0.5j, kappa=4, t0=0.2).evolution_time == pytest.approx(0.8)


@pytest.mark.parametrize(
    "field, value", [("kappa", 1.5), ("kappa", 2.0), ("l_steps", 2.5), ("l_steps", 64.0)]
)
def test_shot_request_rejects_non_integer_kappa_and_l_steps(field, value):
    # probability() would raise the amplitude to a fractional power
    with pytest.raises(TypeError):
        request(0.5j, **{field: value})
    row = (value, "X", None) if field == "kappa" else (1, "X", value)
    dev = number_device()
    with pytest.raises(TypeError):
        dev.run_shot_grid([(0.5j,)], None, 0.3, [row], 30, ["a"])
    assert dev.ledger() == TimeLedger()
    assert request(0.5j, kappa=np.int64(2), l_steps=np.int64(64)).l_steps == 64


@pytest.mark.parametrize(
    "modes, beta, frame_z",
    [
        (1, (0.5, 0.9), None),
        (2, (0.5, 0.1, 0.7), None),
        (2, (0.5,), None),
        (1, (0.5,), (0.1, 0.2)),
        (2, (0.5, 0.1), (0.1,)),
    ],
)
def test_request_without_one_entry_per_mode_is_rejected(modes, beta, frame_z):
    dev = SimulatedDevice(random_spec(modes, 2, seed=1), FockCutoff(n_max=6, modes=modes))
    req = ShotRequest(kappa=1, t0=0.3, beta=beta, basis="X", frame_z=frame_z)
    name, entries = ("beta", len(beta)) if len(beta) != modes else ("frame_z", len(frame_z))
    message = f"{name} has {entries} entries but the device has {modes} modes"
    with pytest.raises(ValueError, match=message):
        dev.probability(req)
    with pytest.raises(ValueError, match=message):
        dev.run_shot_grid([beta], frame_z, 0.3, [(1, "X", None)], 30, ["a"])
    assert dev.ledger().total_evolution_time == 0.0
    assert dev.ledger().shot_count == 0


def test_noise_model_longer_than_the_device_is_rejected():
    spec = random_spec(2, 2, seed=1)
    cut = FockCutoff(n_max=6, modes=2)
    long = NoiseModel(delta_beta=(0.1, 0.2j, 0.3))
    message = "delta_beta has 3 entries but the device has 2 modes"
    with pytest.raises(ValueError, match=message):
        SimulatedDevice(spec, cut, noise=long)
    for delta_beta in ((0.1,), (0.1, 0.2j)):
        model = NoiseModel(delta_beta=delta_beta)
        assert SimulatedDevice(spec, cut, noise=model).noise == model


@pytest.mark.parametrize("true_frame_z", [(0.1,), (0.1, 0.2, 0.3), ()])
def test_true_frame_of_the_wrong_length_is_rejected(true_frame_z):
    message = f"true_frame_z has {len(true_frame_z)} entries but the device has 2 modes"
    with pytest.raises(ValueError, match=message):
        SimulatedDevice(random_spec(2, 2, seed=1), FockCutoff(n_max=6, modes=2), true_frame_z=true_frame_z)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(state_prep_infidelity=1.0)
    with pytest.raises(ValueError):
        NoiseModel(delta_beta=(complex("inf"),))
    nm = NoiseModel(delta_beta=(0.1 + 0.2j,))
    assert nm.executed_beta(np.array([1.0 + 0j]))[0] == pytest.approx(1.1 + 0.2j)


def test_ideal_probability_matches_constant_term_phase():
    dev = number_device()
    beta = 0.8
    c = abs(beta) ** 2
    t0 = 0.3
    for kappa in (1, 4, 16):
        px = dev.probability(request(beta, "X", kappa=kappa, t0=t0))
        py = dev.probability(request(beta, "Y", kappa=kappa, t0=t0))
        assert px == pytest.approx(0.5 * (1 + math.cos(kappa * t0 * c)), abs=1e-10)
        assert py == pytest.approx(0.5 * (1 - math.sin(kappa * t0 * c)), abs=1e-10)


def test_probability_does_not_charge_ledger():
    dev = number_device()
    dev.probability(request(0.5))
    assert dev.ledger().total_evolution_time == 0.0
    assert dev.ledger().shot_count == 0


def one_run(dev, beta, kappa, t0, shots, token):
    """Count of outcome 1 of one X-basis ideal request, as a one-run grid."""
    counts = dev.run_shot_grid([(beta,)], None, t0, [(kappa, "X", None)], shots, [token])
    assert counts.shape == (1, 1)
    return int(counts[0, 0])


def test_batch_charges_ledger_and_is_deterministic():
    dev = number_device(seed=7)
    ones = one_run(dev, 0.6, 2, 0.25, 100, "a")
    assert 0 <= ones <= 100
    assert dev.ledger().total_evolution_time == pytest.approx(100 * 2 * 0.25)
    assert dev.ledger().shot_count == 100
    assert one_run(number_device(seed=7), 0.6, 2, 0.25, 100, "a") == ones
    # one other seed may coincide, but the draws must depend on the seed
    by_seed = {one_run(number_device(seed=s), 0.6, 2, 0.25, 100, "a") for s in range(8, 16)}
    assert len(by_seed) > 1


def test_batch_mean_matches_probability():
    dev = number_device(seed=3)
    p = dev.probability(request(0.7, kappa=1, t0=0.4))
    ones = one_run(dev, 0.7, 1, 0.4, 40_000, "m")
    assert (40_000 - ones) / 40_000 == pytest.approx(p, abs=0.01)


def test_literal_shot_path_matches_batch_marginal():
    spec = random_spec(1, 2, seed=6, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.7)
    dev = SimulatedDevice(spec, cut, master_seed=1)
    req = request(0.6 + 0.2j, kappa=1, t0=0.3, l_steps=8)
    p = dev.probability(req)
    shots = 400
    h = build_matrix(spec, cut)
    ones = sum(literal_shot(h, cut, req, shot_stream(1, [f"s{i}"], [])) for i in range(shots))
    se = math.sqrt(p * (1 - p) / shots)
    assert abs((shots - ones) / shots - p) < 4 * se + 1e-3


def test_literal_shot_prepares_the_frame_state_of_the_device():
    # the prepared state is S(z)† D(beta)|0>; D(beta) S(z)†|0> reads about 10 SE off
    spec = HamiltonianSpec(
        1, 2, {single_key(1, 1): 1.0, single_key(2, 0): 0.3, single_key(0, 2): 0.3}
    )
    cut = FockCutoff(n_max=14)
    req = request(0.7, l_steps=1, frame_z=(0.3,))
    p = SimulatedDevice(spec, cut).probability(req)
    shots = 3000
    h = build_matrix(spec, cut)
    ones = sum(literal_shot(h, cut, req, shot_stream(1, [f"f{i}"], [])) for i in range(shots))
    se = math.sqrt(p * (1 - p) / shots)
    assert abs((shots - ones) / shots - p) < 4 * se


def test_run_shot_requires_finite_steps():
    h = build_matrix(NUMBER_SPEC, CUT)
    with pytest.raises(ValueError):
        literal_shot(h, CUT, request(0.5, l_steps=None), shot_stream(0, ["shot"], []))


def test_finite_step_amplitude_converges_to_ideal():
    spec = random_spec(1, 3, seed=2, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.8)
    dev = SimulatedDevice(spec, cut, master_seed=0)
    ideal = dev.probability(request(0.8, t0=0.3))
    bias = [abs(dev.probability(request(0.8, t0=0.3, l_steps=l)) - ideal) for l in (16, 256)]
    assert bias[1] < bias[0]
    assert bias[1] < 1e-3


def test_state_prep_infidelity_mixes_probability():
    req = request(0.9, kappa=3, t0=0.3)
    p = number_device().probability(req)
    mixed = number_device(noise=NoiseModel(state_prep_infidelity=0.2)).probability(req)
    assert mixed == pytest.approx(0.8 * p + 0.1, abs=1e-12)


def test_displacement_bias_shifts_constant_term():
    dev = number_device(noise=NoiseModel(delta_beta=(0.05,)))
    p = dev.probability(request(0.5, kappa=1, t0=0.3))
    expected = 0.5 * (1 + math.cos(0.3 * 0.55**2))
    assert p == pytest.approx(expected, abs=1e-10)


def test_true_frame_matches_explicit_conjugation():
    # oracle: the dense matrix conjugated by the embedded squeeze, S† H S
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0, single_key(2, 0): 0.2, single_key(0, 2): 0.2})
    cut = FockCutoff(n_max=40)
    true_z = (complex(-0.15),)
    dev = SimulatedDevice(spec, cut, master_seed=0, true_frame_z=true_z)
    for beta in (0j, 0.7 - 0.2j):
        for l_steps in (None, 1, 6):
            for basis in ("X", "Y"):
                req = request(beta, basis, kappa=3, l_steps=l_steps)
                expected = dense_probability(spec, cut, req, true_frame_z=true_z)
                assert abs(dev.probability(req) - expected) < 1e-12


@pytest.mark.parametrize(
    "modes, n_max, beta, frame_z",
    [
        (1, 30, (0.8 - 0.3j,), (0.2 - 0.1j,)),
        (2, 12, (0.7 - 0.2j, -0.3 + 0.5j), None),
        (2, 12, (0j, 0.6 + 0.4j), (0.15 + 0.05j, -0.2 + 0j)),
        (3, 6, (0.4 + 0.1j, 0j, -0.5j), (0j, 0.1 + 0j, -0.1 + 0.1j)),
    ],
)
def test_product_state_matches_embedded_operators(modes, n_max, beta, frame_z):
    # oracle: the joint-space state built with embedded D and S matrices; the
    # finite-L amplitude reads every eigenbasis weight of the state
    cut = FockCutoff(n_max=n_max, modes=modes)
    spec = random_spec(modes, 2, seed=5, sparsity=0.8)
    dev = SimulatedDevice(spec, cut)
    for l_steps in (None, 1, 4):
        for basis in ("X", "Y"):
            req = ShotRequest(kappa=1, t0=0.3, beta=beta, basis=basis, l_steps=l_steps, frame_z=frame_z)
            assert abs(dev.probability(req) - dense_probability(spec, cut, req)) < 1e-13


COMPLEX = st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False)
SQUEEZE = st.complex_numbers(max_magnitude=0.25, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), modes=st.integers(1, 3), seed=st.integers(0, 50))
def test_probability_matches_the_dense_oracle(data, modes, seed):
    n_max = {1: 24, 2: 10, 3: 5}[modes]
    cut = FockCutoff(n_max=n_max, modes=modes)
    spec = random_spec(modes, 2, seed=seed, sparsity=0.8)
    squeezes = st.tuples(*[SQUEEZE] * modes)
    true_z = data.draw(st.none() | squeezes, label="true_frame_z")
    frame_z = data.draw(st.none() | squeezes, label="frame_z")
    beta = data.draw(st.tuples(*[COMPLEX] * modes), label="beta")
    delta = data.draw(st.lists(st.complex_numbers(max_magnitude=0.05), max_size=modes), label="delta")
    noise = NoiseModel(delta_beta=tuple(delta), state_prep_infidelity=data.draw(st.floats(0.0, 0.3)))
    dev = SimulatedDevice(spec, cut, true_frame_z=true_z, noise=noise)
    executed = noise.executed_beta(beta)
    for l_steps in (None, 3):
        for basis in ("X", "Y"):
            req = ShotRequest(kappa=2, t0=0.35, beta=beta, basis=basis, l_steps=l_steps, frame_z=frame_z)
            exact = dense_probability(spec, cut, replace(req, beta=executed), true_frame_z=true_z)
            eps = noise.state_prep_infidelity
            assert abs(dev.probability(req) - ((1 - eps) * exact + 0.5 * eps)) < 1e-12


def test_ideal_requests_never_decompose_the_hidden_matrix(monkeypatch):
    eigh_dims = []
    builds = []
    eigh = np.linalg.eigh
    build = device_module.build_matrix

    def counted_eigh(a, *args, **kwargs):
        eigh_dims.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    cut = FockCutoff(n_max=8, modes=2)
    # the per-cutoff generator bases are shared and cached; build them first
    fockspace.displace_vector(0.1, np.eye(9)[0])
    fockspace.squeeze_vector(0.1, np.eye(9)[0])
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(device_module, "build_matrix", counted_build)
    spec = random_spec(2, 2, seed=3, sparsity=0.8)
    dev = SimulatedDevice(spec, cut, master_seed=1, true_frame_z=(0.1, -0.05j))
    frame_z = (0.05, 0j)
    schedule = [(k, b, None) for k in (1, 2, 4) for b in ("X", "Y")]
    for kappa, basis, _ in schedule:
        dev.probability(ShotRequest(kappa=kappa, t0=0.3, beta=(0.3, 0.2j), basis=basis, frame_z=frame_z))
    dev.run_shot_grid([(0.3, 0.2j), (0.6, 0.2j)], frame_z, 0.3, schedule, 30, ["a", "b"])
    dev.run_shot_grid([(0.1, 0.2), (0j, 0.4j)], None, 0.3, schedule[:2], 30, ["a", "b"])
    assert eigh_dims == [] and builds == []
    # the first finite-L request decomposes H once; later ones reuse it, and
    # the true frame reaches them through the per-mode factors
    for l_steps in (2, 5):
        dev.probability(ShotRequest(kappa=1, t0=0.3, beta=(0.3, 0.2j), basis="X", l_steps=l_steps, frame_z=frame_z))
        finite = [(k, b, l_steps) for k, b, _ in schedule]
        dev.run_shot_grid([(0.3, 0.2j), (0.6, 0.2j)], frame_z, 0.3, finite, 30, ["a", "b"])
    assert eigh_dims == [cut.dim] and len(builds) == 1


def test_matching_request_frame_recovers_frame_coefficients():
    # with the request frame equal to the hidden frame, the ideal phase is the
    # constant term of the frame-basis spec
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
    cut = FockCutoff(n_max=48)
    r = 0.2
    dev = SimulatedDevice(spec, cut, master_seed=0, true_frame_z=(complex(-r),))
    beta = 0.7
    p = dev.probability(
        ShotRequest(kappa=1, t0=0.3, beta=(beta,), basis="X", l_steps=None, frame_z=(complex(-r),))
    )
    assert p == pytest.approx(0.5 * (1 + math.cos(0.3 * beta**2)), abs=1e-8)


def test_cutoff_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        SimulatedDevice(NUMBER_SPEC, FockCutoff(n_max=8, modes=2))


def test_a_finite_l_request_above_the_dim_budget_raises_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(device_module, "build_matrix", lambda *args: built.append(args))
    spec = HamiltonianSpec(2, 2, {single_key(1, 1, 0): 1.0, single_key(1, 1, 1): 1.0})
    dev = SimulatedDevice(spec, FockCutoff(n_max=64, modes=2))
    req = ShotRequest(kappa=1, t0=0.3, beta=(0.1j, 0j), basis="X", l_steps=4)
    with pytest.raises(fockspace.CutoffError, match="4225-dim joint space"):
        dev.probability(req)
    assert built == []


def test_one_generator_eigendecomposition_per_cutoff(monkeypatch):
    # 200 requests over 20 distinct (beta, frame_z) states: one eigh for the
    # hidden matrix, one per generator basis, none per prepared state
    calls = []
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    fockspace._generator_basis.cache_clear()
    dev = SimulatedDevice(random_spec(1, 3, seed=2, include_couplings=False), FockCutoff(n_max=30))
    probabilities = set()
    for i in range(10):
        beta = 0.1 * (i + 1) * complex(math.cos(i), math.sin(i))
        for frame_z in (None, (0.1 - 0.05j,)):
            for kappa in range(1, 6):
                for basis in ("X", "Y"):
                    probabilities.add(
                        dev.probability(request(beta, basis, kappa=kappa, frame_z=frame_z))
                    )
    assert len(probabilities) > 100
    assert len(calls) <= 3


@pytest.mark.parametrize("states", [5, 50])
def test_new_factors_are_built_in_a_constant_number_of_passes(monkeypatch, states):
    # G new states sharing a frame: per mode one displacement, one frame
    # squeeze and one true-frame squeeze pass, whatever G is
    calls = []
    rotated_apply = fockspace._rotated_apply

    def counted(kind, r, theta, v, sign):
        calls.append((kind, len(v)))
        return rotated_apply(kind, r, theta, v, sign)

    monkeypatch.setattr(fockspace, "_rotated_apply", counted)
    spec = random_spec(2, 2, seed=3, sparsity=0.8)
    dev = SimulatedDevice(spec, FockCutoff(n_max=8, modes=2), true_frame_z=(0.1, -0.05j))
    betas = [(0.01 * (k + 1), 0.02j * (k + 1)) for k in range(states)]
    dev._state_energies([dev._state_key(beta, (0.05, 0.03j)) for beta in betas])
    assert len(calls) == 3 * 2
    assert [rows for _, rows in calls] == [states] * 6


@pytest.mark.parametrize("limit", [None, 3])
def test_a_device_serves_a_frame_as_a_fresh_device_after_other_frames(monkeypatch, limit):
    # displaced vacua are cached across frames and modes: after grids at
    # other frames, frame z reads exactly what a fresh device reads, and at a
    # cache limit of 3 the vacuum cache still holds at most 3 entries
    if limit is not None:
        monkeypatch.setattr(SimulatedDevice, "_CACHE_LIMIT", limit)
    spec = random_spec(2, 2, seed=3, sparsity=0.8)
    cut = FockCutoff(n_max=8, modes=2)

    def device():
        return SimulatedDevice(spec, cut, master_seed=4, true_frame_z=(0.1, -0.05j))

    # mode 1 repeats mode 0's displacements, so it reads mode 0's vacua
    points = [0.3 * k - 0.2j for k in range(1, 5)]
    betas = [(b, b) for b in points] + [(b, 0j) for b in points] + [(0j, -b) for b in points]
    schedule = [(1, "X", None), (2, "Y", None), (4, "X", 64)]
    tokens = [f"p{i}" for i in range(len(betas))]

    def outputs(dev, frame_z):
        probabilities = dev.probability_grid(betas, frame_z, 0.3, schedule)
        counts = dev.run_shot_grid(betas, frame_z, 0.3, schedule, 40, tokens)
        energies = dev._state_energies([dev._state_key(beta, frame_z) for beta in betas])
        assert len(dev._displaced) <= SimulatedDevice._CACHE_LIMIT
        return probabilities, counts, energies

    warm = device()
    for frame_z in [(0.05, 0.03j), None, (-0.1, 0j)]:
        outputs(warm, frame_z)
    if limit is None:
        assert set(warm._displaced) == {b for beta in betas for b in beta if b}
    z = (0.2, -0.1 + 0.05j)
    probabilities, counts, energies = outputs(warm, z)
    fresh = outputs(device(), z)
    assert np.array_equal(probabilities, fresh[0])
    assert np.array_equal(counts, fresh[1])
    assert energies == fresh[2]


def test_a_learn_at_a_new_frame_displaces_no_point_again(monkeypatch):
    # the frame search learns on one grid at frame after frame: only the
    # first learn displaces the grid points, every later one squeezes only
    calls = []
    rotated_apply = fockspace._rotated_apply

    def counted(kind, r, theta, v, sign):
        calls.append(kind)
        return rotated_apply(kind, r, theta, v, sign)

    monkeypatch.setattr(fockspace, "_rotated_apply", counted)
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0, single_key(2, 0): 0.1, single_key(0, 2): 0.1})
    dev = SimulatedDevice(spec, FockCutoff(n_max=24), true_frame_z=(complex(-0.5 * math.log(1.3)),))
    cfg = derive_config(2, g_max=2.0, k_max=3, shots=50, l_steps=None)
    learn_single_mode(dev, 2, cfg, frame_z=(0.1 + 0j,), subtract_offset=True, token="first")
    assert calls.count("displacement") == 1
    calls.clear()
    learn_single_mode(dev, 2, cfg, frame_z=(-0.05 + 0j,), subtract_offset=True, token="second")
    assert calls == ["squeeze", "squeeze"]


def test_batched_factors_equal_per_vector_factors():
    # one grid whose mode columns hold beta = 0, z = 0, a negative real beta
    # (theta = pi) and the true-frame squeeze: each energy equals the scalar
    # loop over per-vector tables, and edge_population is the largest
    # per-vector |v_top|^2 (scalar abs: np.abs rounds differently)
    spec = random_spec(2, 2, seed=5, sparsity=0.8)
    cut = FockCutoff(n_max=10, modes=2)
    true_z = (complex(-0.5 * math.log(1.3)), 0j)
    dev = SimulatedDevice(spec, cut, true_frame_z=true_z)
    betas = [(0j, 0.3), (-0.7, 0j), (0.9 - 0.2j, -1.0 + 0.67j), (-0.7, -0.4j)]
    frames = [None, (0.1j, 0j), (0j, -0.2)]
    keys = [dev._state_key(beta, frame_z) for beta in betas for frame_z in frames]
    energies = dev._state_energies(keys)
    tops = []
    for (beta, frame_z), energy in zip(keys, energies):
        tables = []
        for m in range(2):
            v = np.eye(cut.dim_per_mode, dtype=complex)[0]
            if beta[m]:
                v = fockspace.displace_vector(beta[m], v)
            if frame_z is not None and frame_z[m]:
                v = fockspace.squeeze_vector(frame_z[m], v, adjoint=True)
            tops.append(abs(v[-1]) ** 2)
            if true_z[m]:
                v = fockspace.squeeze_vector(true_z[m], v)
            tables.append(fockspace.moment_table(v, spec.max_order))
        assert energy == _scalar_energy(spec, tables)
    assert dev.edge_population == max(tops) > 0.0


def test_edge_population_reports_truncation_clipping():
    cut = FockCutoff(n_max=8)
    dev = SimulatedDevice(NUMBER_SPEC, cut)
    assert dev.edge_population == 0.0
    dev.probability(request(0j))
    assert dev.edge_population < 1e-15
    dev.probability(request(3.0 + 0j))
    assert dev.edge_population > 1e-3
    # a coherent state far inside the truncation stays near 0
    small = SimulatedDevice(NUMBER_SPEC, FockCutoff(n_max=40))
    small.probability(request(0.5 + 0j))
    assert small.edge_population < 1e-20


def test_clipped_probabilities_counts_each_clip(monkeypatch):
    # a Trotter amplitude that rounding pushed just past the unit circle
    amplitude = {"a": 1.0 + 1e-12 + 0j}
    monkeypatch.setattr(
        SimulatedDevice, "_finite_amplitude", lambda self, key, time, steps: amplitude["a"]
    )
    dev = number_device()
    finite = request(0.3, l_steps=4)
    dev.probability(request(0.3))
    assert dev.clipped_probabilities == 0  # an ideal phase never leaves [0, 1]
    assert dev.probability(finite) == 1.0
    assert dev.clipped_probabilities == 1
    # the Y basis reads Im a = 0, so p = 1/2 there and only the X requests clip
    dev.run_shot_grid([(0.3,)], None, 0.3, [(1, "X", 4), (1, "Y", 4), (1, "X", 4)], 20, ["c"])
    assert dev.clipped_probabilities == 3
    amplitude["a"] = -1.0 - 1e-12 + 0j
    assert dev.probability(finite) == 0.0
    assert dev.clipped_probabilities == 4
    dev.run_shot_grid([(0.3,)], None, 0.3, [(1, "X", 4), (2, "Y", 4)], 20, ["g"])
    assert dev.clipped_probabilities == 5


def _scalar_energy(spec, tables):
    """The term-by-term scalar loop that the batched energy reproduces bit for bit."""
    total = complex(spec.identity_offset)
    for key, coeff in spec.terms.items():
        term = complex(coeff)
        for mode, p, q in zip(key.modes, key.p, key.q):
            term *= tables[mode][p, q]
        total += term
    return float(total.real)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), modes=st.integers(1, 3), seed=st.integers(0, 50))
def test_state_energy_is_bit_identical_alone_and_in_a_grid(data, modes, seed):
    n_max = {1: 24, 2: 10, 3: 5}[modes]
    cut = FockCutoff(n_max=n_max, modes=modes)
    spec = random_spec(modes, 2, seed=seed, sparsity=0.8)
    spec.identity_offset = data.draw(st.sampled_from([0.0, -0.3]), label="offset")
    squeezes = st.tuples(*[SQUEEZE] * modes)
    true_z = data.draw(st.none() | squeezes, label="true_frame_z")
    # a matched frame makes beta = 0 the p = 0.5 knife edge: E is 0 up to rounding
    frame_z = data.draw(st.none() | st.just(true_z) | squeezes, label="frame_z")
    betas = data.draw(st.lists(st.tuples(*[COMPLEX] * modes), min_size=1, max_size=12), label="betas")
    betas.append((0j,) * modes)
    grid = SimulatedDevice(spec, cut, true_frame_z=true_z)
    keys = [grid._state_key(beta, frame_z) for beta in betas]
    energies = grid._state_energies(keys)
    for beta, key, energy in zip(betas, keys, energies):
        alone = SimulatedDevice(spec, cut, true_frame_z=true_z)
        assert alone._state_energies([key]) == [energy]
        tables = []
        for m in range(modes):
            v = np.eye(n_max + 1, dtype=complex)[0]
            if beta[m]:
                v = fockspace.displace_vector(beta[m], v)
            if frame_z is not None and frame_z[m]:
                v = fockspace.squeeze_vector(frame_z[m], v, adjoint=True)
            if true_z is not None and true_z[m]:
                v = fockspace.squeeze_vector(true_z[m], v)
            tables.append(fockspace.moment_table(v, spec.max_order))
        assert energy == _scalar_energy(spec, tables)
        req = ShotRequest(kappa=64, t0=0.3, beta=beta, basis="Y", frame_z=frame_z)
        assert alone.probability(req) == grid.probability(req)


# -- batched shot sampler ------------------------------------------------------


def test_negative_master_seed_raises_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=(-1, 5))
    with pytest.raises(ValueError):
        number_device(seed=-1).run_shot_grid([(0.5,)], None, 0.3, [(1, "X", None)], 10, ["a"])
    with pytest.raises(TypeError):
        number_device(seed=2.5).run_shot_grid([(0.5,)], None, 0.3, [(1, "X", None)], 10, ["a"])


def _oracle_grid(dev, ledger, betas, frame_z, schedule, shots, tokens):
    """The per-call oracle: the grid's exact probabilities and one binomial
    call on the call's stream, each request charged to ledger one by one,
    run-major."""
    p = dev.probability_grid(betas, frame_z, T0, schedule)
    suffixes = [f":k{kappa}:{basis}" for kappa, basis, _ in schedule]
    ones = shot_stream(dev.master_seed, tokens, suffixes).binomial(shots, 1.0 - p)
    for _ in betas:
        for kappa, _, _ in schedule:
            ledger.total_evolution_time += shots * (kappa * T0)
            ledger.shot_count += shots
    return ones


BATCH_SPEC = random_spec(2, 2, seed=4, sparsity=0.7)
BATCH_CUT = FockCutoff(n_max=10, modes=2)
T0 = 0.31
# a repeated run, and ideal and finite-L rows in both bases
BETAS = [(0.4 + 0.1j, 0.2j), (0.0j, 0.7 + 0j), (0.4 + 0.1j, 0.2j), (0.3 - 0.5j, 0.1 + 0j)]
FRAMES = [None, (0.15 + 0j, 0j), (0.1 - 0.05j, 0.2j)]
SCHEDULE = [(k, b, l) for k, l in ((1, None), (4, None), (2, 8), (8, 3)) for b in ("X", "Y")]


def _grid_args(frame_z, shots):
    return BETAS, frame_z, SCHEDULE, shots, [f"b{i}:{frame_z}" for i in range(len(BETAS))]


def _run_grid(dev, betas, frame_z, schedule, shots, tokens):
    return dev.run_shot_grid(betas, frame_z, T0, schedule, shots, tokens)


@pytest.mark.parametrize(
    "noise",
    [None, NoiseModel(delta_beta=(0.02 - 0.01j, 0.03j), state_prep_infidelity=0.07)],
)
@pytest.mark.parametrize("master_seed", [0, 12345, 2**40 + 7])
def test_run_shot_grid_equals_per_request_oracle(noise, master_seed):
    # every request's count is the per-call oracle's draw, and the ledger is
    # charged request by request
    def device():
        return SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=master_seed, noise=noise)

    for shots in (57, 200):
        grid, oracle, ledger = device(), device(), TimeLedger()
        for frame_z in FRAMES:
            ones = _run_grid(grid, *_grid_args(frame_z, shots))
            assert np.array_equal(ones, _oracle_grid(oracle, ledger, *_grid_args(frame_z, shots)))
            assert grid.ledger() == ledger
        # a run sent alone is a call of its own, drawn from that call's stream
        _, frame_z, schedule, _, tokens = args = _grid_args(FRAMES[1], shots)
        together = _run_grid(device(), *args)
        alone = [
            _run_grid(device(), [beta], frame_z, schedule, shots, [token])[0]
            for beta, token in zip(BETAS, tokens)
        ]
        for beta, token, row in zip(BETAS, tokens, alone):
            want = _oracle_grid(device(), TimeLedger(), [beta], frame_z, schedule, shots, [token])
            assert np.array_equal(row, want[0])
        assert not np.array_equal(np.array(alone), together)


def test_run_shot_grid_draws_with_one_binomial_call(monkeypatch):
    calls = []
    generator = np.random.Generator

    class Counted:
        def __init__(self, bit_generator):
            self.rng = generator(bit_generator)

        def binomial(self, n, p):
            calls.append(np.shape(p))
            return self.rng.binomial(n, p)

    monkeypatch.setattr(np.random, "Generator", Counted)
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=3)
    _run_grid(dev, *_grid_args(None, 30))
    _run_grid(dev, *_grid_args(None, 0))
    assert calls == [(len(BETAS), len(SCHEDULE))]


def test_run_shot_grid_with_zero_shots_draws_and_charges_nothing():
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=3)
    counts = _run_grid(dev, *_grid_args(None, 0))
    assert counts.shape == (len(BETAS), len(SCHEDULE)) and not counts.any()
    assert dev.ledger().total_evolution_time == 0.0
    assert dev.ledger().shot_count == 0
    assert _run_grid(dev, [], None, SCHEDULE, 10, []).shape == (0, len(SCHEDULE))
    assert _run_grid(dev, BETAS, None, [], 10, ["a"] * len(BETAS)).shape == (len(BETAS), 0)
    with pytest.raises(ValueError):
        _run_grid(dev, *_grid_args(None, -1))


@pytest.mark.parametrize("shots", [57, 200])
def test_run_shot_grid_counts_are_binomial(shots):
    # 1000 runs x 2 requests on the number spec, where p is (1 + cos phi)/2
    # in X and (1 - sin phi)/2 in Y at phi = t0 |beta|^2.  Phases near the
    # four odd multiples of pi/4 keep every q = 1 - p in [0.05, 0.95].  The
    # standardized counts z have mean 0 and E[z^2] = 1; each bound is the
    # 1e-3 two-sided normal quantile times the statistic's exact standard
    # error, so a correct sampler fails it once in 1000 seeds.
    t0, runs = 3.0, 1000
    phases = np.pi / 4 * (2 * np.arange(runs) % 8 + 1) + np.linspace(-0.3, 0.3, runs)
    betas = [(complex(math.sqrt(phi / t0)),) for phi in phases]
    schedule = [(1, "X", None), (1, "Y", None)]
    dev = SimulatedDevice(NUMBER_SPEC, FockCutoff(n_max=40), master_seed=2026)
    ones = dev.run_shot_grid(betas, None, t0, schedule, shots, [f"z{i}" for i in range(runs)])
    q = 1.0 - dev.probability_grid(betas, None, t0, schedule)
    assert 0.05 <= q.min() and q.max() <= 0.95
    npq = shots * q * (1 - q)
    z = ((ones - shots * q) / np.sqrt(npq)).ravel()
    quantile = 3.2905  # two-sided normal quantile at alpha = 1e-3
    # Var z = 1 and Var z^2 = 2 + (1 - 6 q (1 - q)) / (n q (1 - q)) per request
    excess = ((1 - 6 * q * (1 - q)) / npq).ravel()
    assert abs(z.mean()) < quantile / math.sqrt(z.size)
    assert abs((z**2).mean() - 1.0) < quantile * math.sqrt((2 + excess).sum()) / z.size


@pytest.mark.parametrize(
    "shots", [20.9, 20.0, np.float64(20.0)], ids=["fraction", "float", "numpy-float"]
)
def test_run_shot_grid_rejects_non_integer_shots(shots):
    # numpy's binomial would draw int(shots) shots and the ledger charge all of them
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=3)
    with pytest.raises(TypeError):
        _run_grid(dev, *_grid_args(None, shots))
    assert dev.ledger() == TimeLedger()
    counts = _run_grid(dev, *_grid_args(None, np.int64(20)))
    assert dev.ledger().shot_count == 20 * counts.size


def test_run_shot_grid_is_thread_safe():
    # Each call draws from a stream of its own; threads sharing a device must
    # each get their calls' per-call counts, and the ledger every charge.
    grids = [_grid_args(frame_z, 40) for frame_z in FRAMES]
    oracle = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=5)
    expected = [_oracle_grid(oracle, TimeLedger(), *args) for args in grids]
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=5)
    results: dict[int, list[list[np.ndarray]]] = {}

    def work(i):
        results[i] = [[_run_grid(dev, *args) for args in grids] for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(
        np.array_equal(count, want)
        for i in range(6)
        for counts in results[i]
        for count, want in zip(counts, expected)
    )
    assert dev.ledger().shot_count == 6 * 5 * len(FRAMES) * len(BETAS) * len(SCHEDULE) * 40


# -- exact grid ----------------------------------------------------------------

# ideal and finite-L rows in both bases
EXACT_SCHEDULE = [(k, b, l) for k, l in ((1, None), (2, 3), (8, None)) for b in ("X", "Y")]


@pytest.mark.parametrize(
    "noise", [NoiseModel(), NoiseModel(delta_beta=(0.03 - 0.02j,), state_prep_infidelity=0.1)]
)
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_probability_grid_equals_per_request_probability(modes, noise):
    cut = FockCutoff(n_max={1: 20, 2: 8, 3: 5}[modes], modes=modes)
    spec = random_spec(modes, 2, seed=6, sparsity=0.8)
    true_z = tuple(0.1j * (m + 1) for m in range(modes))
    # a repeated state, and the beta = 0 state
    betas = [tuple(complex(0.2 * (i + m), 0.1 * i - 0.3 * m) for m in range(modes)) for i in range(4)]
    betas += [betas[1], (0j,) * modes]
    for frame_z in (None, tuple(0.05 - 0.1j * m for m in range(modes))):
        grid = SimulatedDevice(spec, cut, true_frame_z=true_z, noise=noise)
        loop = SimulatedDevice(spec, cut, true_frame_z=true_z, noise=noise)
        expected = [
            [loop.probability(ShotRequest(k, T0, beta, b, l, frame_z)) for k, b, l in EXACT_SCHEDULE]
            for beta in betas
        ]
        assert grid.probability_grid(betas, frame_z, T0, EXACT_SCHEDULE).tolist() == expected
        assert grid.ledger() == TimeLedger()
    assert grid.probability_grid([], None, T0, EXACT_SCHEDULE).shape == (0, len(EXACT_SCHEDULE))
    with pytest.raises(ValueError):
        grid.probability_grid([(0.1,) * (modes + 1)], None, T0, EXACT_SCHEDULE)


def _count_energy_passes(monkeypatch) -> list[int]:
    """The number of states of each product_state_energy pass."""
    passes = []
    original = device_module.product_state_energy

    def counted(terms, tables):
        passes.append(len(tables[0]))
        return original(terms, tables)

    monkeypatch.setattr(device_module, "product_state_energy", counted)
    return passes


def test_each_call_runs_one_energy_pass_over_its_distinct_states(monkeypatch):
    # a device keeps no state energy across calls: each exact grid and each
    # shot call, repeated or not, runs its own pass over its distinct states,
    # and the exact grid's per-request probability() calls read its memo,
    # which holds the last grid's states alone
    passes = _count_energy_passes(monkeypatch)
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT)
    distinct = len(set(BETAS))
    dev.probability_grid(BETAS, FRAMES[0], T0, SCHEDULE)
    first = dev.probability_grid(BETAS, FRAMES[1], T0, SCHEDULE)
    assert passes == [distinct] * 2
    assert np.array_equal(dev.probability_grid(BETAS, FRAMES[1], T0, SCHEDULE), first)
    assert passes == [distinct] * 3
    assert set(dev._grid_states[0]) == {dev._state_key(beta, FRAMES[1]) for beta in BETAS}
    counts = _run_grid(dev, *_grid_args(FRAMES[1], 30))
    assert np.array_equal(_run_grid(dev, *_grid_args(FRAMES[1], 30)), counts)
    assert passes == [distinct] * 5


def test_a_schedule_without_an_ideal_row_computes_no_energy(monkeypatch):
    passes = _count_energy_passes(monkeypatch)
    finite = [(2, "X", 4), (8, "Y", 3)]
    tokens = [f"f{i}" for i in range(len(BETAS))]
    dev, oracle = SimulatedDevice(BATCH_SPEC, BATCH_CUT), SimulatedDevice(BATCH_SPEC, BATCH_CUT)
    expected = [[oracle.probability(ShotRequest(k, T0, beta, b, l)) for k, b, l in finite] for beta in BETAS]
    assert dev.probability_grid(BETAS, None, T0, finite).tolist() == expected
    want = _oracle_grid(oracle, TimeLedger(), BETAS, None, finite, 30, tokens)
    assert np.array_equal(dev.run_shot_grid(BETAS, None, T0, finite, 30, tokens), want)
    assert passes == []


def _vacuum_cache_outputs(betas, warm):
    """A device's exact and shot grids over betas, after a grid over warm
    betas, its displaced vacua of every beta entry, and the device."""
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=2)
    dev.probability_grid(warm, FRAMES[2], T0, SCHEDULE)
    probabilities = dev.probability_grid(betas, FRAMES[1], T0, SCHEDULE)
    counts = dev.run_shot_grid(betas, None, T0, SCHEDULE, 40, [f"v{i}" for i in range(len(betas))])
    vacua = dev._displaced_vacua([b for beta in betas for b in beta])
    return probabilities, counts, vacua, dev


@pytest.mark.parametrize("warm", [0, 3], ids=["cold", "part-cached"])
def test_a_call_with_more_new_betas_than_the_cache_limit_is_bit_identical(monkeypatch, warm):
    # 60 new betas against a vacuum-cache limit of 8, on a cold cache and
    # on one that holds vacua the call also reads: storing the new vacua
    # empties the cache, yet every vector and output equals an unbounded
    # device's, and the cache keeps at most 8 vacua
    betas = [(0.05 * i + 0.1j, -0.02 * i + 0j) for i in range(30)]
    expected = _vacuum_cache_outputs(betas, betas[:warm])
    monkeypatch.setattr(SimulatedDevice, "_CACHE_LIMIT", 8)
    *outputs, dev = _vacuum_cache_outputs(betas, betas[:warm])
    assert np.array_equal(outputs[0], expected[0])
    assert np.array_equal(outputs[1], expected[1])
    assert outputs[2].keys() == expected[2].keys()
    assert all(np.array_equal(outputs[2][b], expected[2][b]) for b in expected[2])
    assert 0 < len(dev._displaced) <= 8


def test_concurrent_exact_grids_on_one_device_read_a_fresh_devices_bits():
    # threads that replace each other's grid memo only recompute a state
    def device():
        return SimulatedDevice(BATCH_SPEC, BATCH_CUT)

    expected = [device().probability_grid(BETAS, frame_z, T0, SCHEDULE) for frame_z in FRAMES]
    dev = device()
    results: dict[int, list[np.ndarray]] = {}

    def work(i):
        results[i] = [dev.probability_grid(BETAS, frame_z, T0, SCHEDULE) for frame_z in FRAMES * 5]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(grid, expected[j % 3]) for i in range(4) for j, grid in enumerate(results[i]))
