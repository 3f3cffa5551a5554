import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlearn import fockspace
from bosonlearn.device import (
    NoiseModel,
    ShotRequest,
    SimulatedDevice,
    _entropy_keys,
    _philox_keys,
)
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


# -- batched shot sampler ------------------------------------------------------

MASTER_SEEDS = st.one_of(
    st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**100)
)
# SeedSequence drops zero high words, so small entropies give fewer words.
ENTROPIES = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**96 - 1),
    st.integers(0, 2**128 - 1),
)


def _words(e: int) -> list[int]:
    return [(e >> (32 * i)) & 0xFFFFFFFF for i in range(4)]


@settings(max_examples=60, deadline=None)
@given(master_seed=MASTER_SEEDS, entropies=st.lists(ENTROPIES, min_size=1, max_size=12))
def test_entropy_keys_match_seed_sequence(master_seed, entropies):
    keys = _entropy_keys(master_seed, np.array([_words(e) for e in entropies], dtype=np.uint32))
    for e, key in zip(entropies, keys):
        expected = np.random.SeedSequence(entropy=(master_seed, e)).generate_state(2, np.uint64)
        assert key.dtype == np.uint64
        assert np.array_equal(key, expected)


@settings(max_examples=30, deadline=None)
@given(master_seed=MASTER_SEEDS, tokens=st.lists(st.text(max_size=40), max_size=8))
def test_philox_keys_match_the_rng_oracle(master_seed, tokens):
    dev = SimulatedDevice(NUMBER_SPEC, FockCutoff(n_max=2), master_seed=master_seed)
    keys = _philox_keys(master_seed, tokens)
    assert keys.shape == (len(tokens), 2)
    for token, key in zip(tokens, keys):
        assert np.array_equal(dev._rng(token).bit_generator.state["state"]["key"], key)


def test_negative_master_seed_raises_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=(-1, 5))
    with pytest.raises(ValueError):
        _entropy_keys(-1, np.zeros((1, 4), dtype=np.uint32))
    with pytest.raises(ValueError):
        number_device(seed=-1).run_shot_batches([request(0.5, rng_token="a")], 10)
    with pytest.raises(TypeError):
        _entropy_keys(2.5, np.zeros((1, 4), dtype=np.uint32))


def _oracle_batches(dev, requests, shots):
    """One fresh _rng stream and one device.probability per request."""
    ones = []
    for req in requests:
        p = dev.probability(req)
        ones.append(int(dev._rng(req.rng_token or "batch").binomial(shots, 1.0 - p)))
        dev._charge(shots * req.evolution_time, shots)
    return ones


BATCH_SPEC = random_spec(2, 2, seed=4, sparsity=0.7)
BATCH_CUT = FockCutoff(n_max=10, modes=2)


def _batch_requests():
    betas = [(0.4 + 0.1j, 0.2j), (0.0j, 0.7 + 0j), (0.4 + 0.1j, 0.2j), (0.3 - 0.5j, 0.1 + 0j)]
    frames = [None, (0.15 + 0j, 0j), (0.1 - 0.05j, 0.2j)]
    out = []
    for i, beta in enumerate(betas):
        for frame_z in frames:
            for kappa, l_steps in ((1, None), (4, None), (2, 8), (8, 3)):
                for basis in ("X", "Y"):
                    token = f"b{i}:{frame_z}:k{kappa}:{basis}" if basis == "X" or kappa > 1 else ""
                    out.append(
                        ShotRequest(
                            kappa=kappa,
                            t0=0.31,
                            beta=beta,
                            basis=basis,
                            l_steps=l_steps,
                            frame_z=frame_z,
                            rng_token=token,
                        )
                    )
    return out


@pytest.mark.parametrize(
    "noise",
    [None, NoiseModel(delta_beta=(0.02 - 0.01j, 0.03j), state_prep_infidelity=0.07)],
)
@pytest.mark.parametrize("master_seed", [0, 12345, 2**40 + 7])
def test_run_shot_batches_equals_per_request_oracle(noise, master_seed):
    requests = _batch_requests()
    batch = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=master_seed, noise=noise)
    oracle = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=master_seed, noise=noise)
    ones = batch.run_shot_batches(requests, 57)
    assert ones == _oracle_batches(oracle, requests, 57)
    assert batch.ledger() == oracle.ledger()
    # a batch of one is run_shot_batch, and its stream does not depend on the batch
    single = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=master_seed, noise=noise)
    counts = [single.run_shot_batch(req, 57) for req in requests]
    assert [c[1] for c in counts] == ones
    assert all(c[0] + c[1] == 57 for c in counts)
    assert single.ledger() == batch.ledger()


def test_run_shot_batches_with_zero_shots_draws_and_charges_nothing():
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=3)
    assert dev.run_shot_batches(_batch_requests(), 0) == [0] * len(_batch_requests())
    assert dev.run_shot_batch(_batch_requests()[0], 0) == {0: 0, 1: 0}
    assert dev.ledger().total_evolution_time == 0.0
    assert dev.ledger().shot_count == 0
    assert dev.run_shot_batches([], 10) == []
    with pytest.raises(ValueError):
        dev.run_shot_batches(_batch_requests(), -1)


def test_run_shot_batches_is_thread_safe():
    # The device holds one Philox generator; threads sharing a device must
    # still each get their own requests' streams.
    requests = _batch_requests()
    expected = _oracle_batches(SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=5), requests, 40)
    dev = SimulatedDevice(BATCH_SPEC, BATCH_CUT, master_seed=5)
    results: dict[int, list[list[int]]] = {}

    def work(i):
        results[i] = [dev.run_shot_batches(requests, 40) for _ in range(5)]

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
    assert all(batch == expected for i in range(6) for batch in results[i])
    assert dev.ledger().shot_count == 6 * 5 * len(requests) * 40
