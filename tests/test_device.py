import math

import numpy as np
import pytest

from bosonlearn import fockspace
from bosonlearn.device import NoiseModel, ShotRequest, SimulatedDevice
from bosonlearn.fockspace import (
    FockCutoff,
    adaptive_cutoff,
    displacement_matrix,
    squeeze_matrix,
    vacuum_state,
)
from bosonlearn.hamiltonian import HamiltonianSpec, build_matrix, random_spec, single_key

NUMBER_SPEC = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0})
CUT = FockCutoff(n_max=16)


def number_device(seed=0):
    return SimulatedDevice(NUMBER_SPEC, CUT, master_seed=seed)


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


def test_batch_charges_ledger_and_is_deterministic():
    dev = number_device(seed=7)
    req = request(0.6, kappa=2, t0=0.25, rng_token="a")
    counts = dev.run_shot_batch(req, 100)
    assert counts[0] + counts[1] == 100
    assert dev.ledger().total_evolution_time == pytest.approx(100 * 2 * 0.25)
    assert dev.ledger().shot_count == 100
    counts2 = SimulatedDevice(NUMBER_SPEC, CUT, master_seed=7).run_shot_batch(req, 100)
    assert counts == counts2
    # one other seed may coincide, but the draws must depend on the seed
    by_seed = {
        tuple(SimulatedDevice(NUMBER_SPEC, CUT, master_seed=s).run_shot_batch(req, 100).values())
        for s in range(8, 16)
    }
    assert len(by_seed) > 1


def test_batch_mean_matches_probability():
    dev = number_device(seed=3)
    req = request(0.7, kappa=1, t0=0.4, rng_token="m")
    p = dev.probability(req)
    counts = dev.run_shot_batch(req, 40_000)
    assert counts[0] / 40_000 == pytest.approx(p, abs=0.01)


def test_literal_shot_path_matches_batch_marginal():
    spec = random_spec(1, 2, seed=6, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.7)
    dev = SimulatedDevice(spec, cut, master_seed=1)
    req = request(0.6 + 0.2j, kappa=1, t0=0.3, l_steps=8)
    p = dev.probability(req)
    shots = 400
    ones = sum(
        SimulatedDevice(spec, cut, master_seed=1).run_shot(
            request(0.6 + 0.2j, kappa=1, t0=0.3, l_steps=8, rng_token=f"s{i}")
        )
        for i in range(shots)
    )
    se = math.sqrt(p * (1 - p) / shots)
    assert abs((shots - ones) / shots - p) < 4 * se + 1e-3


def test_run_shot_requires_finite_steps():
    with pytest.raises(ValueError):
        number_device().run_shot(request(0.5, l_steps=None))


def test_finite_step_amplitude_converges_to_ideal():
    spec = random_spec(1, 3, seed=2, include_couplings=False)
    cut = adaptive_cutoff(spec, 0.8)
    dev = SimulatedDevice(spec, cut, master_seed=0)
    ideal = dev.probability(request(0.8, t0=0.3))
    bias = [abs(dev.probability(request(0.8, t0=0.3, l_steps=l)) - ideal) for l in (16, 256)]
    assert bias[1] < bias[0]
    assert bias[1] < 1e-3


def test_state_prep_infidelity_mixes_probability():
    dev = number_device()
    req = request(0.9, kappa=3, t0=0.3)
    p = dev.probability(req)
    dev.set_noise(NoiseModel(state_prep_infidelity=0.2))
    assert dev.probability(req) == pytest.approx(0.8 * p + 0.1, abs=1e-12)
    dev.clear_noise()
    assert dev.probability(req) == pytest.approx(p, abs=1e-12)


def test_displacement_bias_shifts_constant_term():
    dev = number_device()
    dev.set_noise(NoiseModel(delta_beta=(0.05,)))
    p = dev.probability(request(0.5, kappa=1, t0=0.3))
    expected = 0.5 * (1 + math.cos(0.3 * 0.55**2))
    assert p == pytest.approx(expected, abs=1e-10)


def test_true_frame_matches_explicit_conjugation():
    spec = HamiltonianSpec(1, 2, {single_key(1, 1): 1.0, single_key(2, 0): 0.2, single_key(0, 2): 0.2})
    cut = FockCutoff(n_max=40)
    r = 0.15
    dev = SimulatedDevice(spec, cut, master_seed=0, true_frame_z=(complex(-r),))
    s = squeeze_matrix(-r, cut)
    h_manual = s.conj().T @ build_matrix(spec, cut) @ s
    assert np.max(np.abs(dev._h - 0.5 * (h_manual + h_manual.conj().T))) < 1e-12


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
    # oracle: the joint-space construction with embedded D and S matrices
    cut = FockCutoff(n_max=n_max, modes=modes)
    dev = SimulatedDevice(random_spec(modes, 2, seed=5, sparsity=0.8), cut)
    expected = vacuum_state(cut)
    for m, b in enumerate(beta):
        expected = displacement_matrix(b, cut, m) @ expected
    for m, z in enumerate(frame_z or ()):
        expected = squeeze_matrix(z, cut, m).conj().T @ expected
    phi = dev._prepared_state(np.array(beta), frame_z)
    assert np.max(np.abs(phi - expected)) < 1e-13


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


def test_noise_change_reaches_cached_state():
    spec = random_spec(1, 2, seed=6, include_couplings=False)
    dev = SimulatedDevice(spec, CUT)
    req = request(0.6 - 0.2j, kappa=3)
    clean = dev.probability(req)
    noise = NoiseModel(delta_beta=(0.1j,))
    dev.set_noise(noise)
    noisy = dev.probability(req)
    assert noisy == SimulatedDevice(spec, CUT, noise=noise).probability(req)
    assert noisy != clean
    dev.clear_noise()
    assert dev.probability(req) == clean


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
