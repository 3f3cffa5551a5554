"""Black-box simulated quantum device.

Executes ancilla-controlled Trotterized displacement + random-phase sequences
against a hidden Hamiltonian and returns measurement bits.  The learner sees
only bits (or, in the sanctioned noiseless test mode, exact outcome
probabilities) and the evolution-time ledger; the hidden spec never leaks
through the public surface.

Shot statistics: with the phase angles theta_j drawn i.i.d. per Trotter step
and per shot, the expectation of the full L-step interference amplitude
factorizes, E[A] = a^L with a = <phi| e^{-iH kappa t0 / L} |phi> and
phi = S(z)† D(beta)|vac>.  Each measured bit is therefore exactly Bernoulli
with p = (1 +/- Re/Im a^L)/2, so batches are sampled from one binomial draw.

The hidden matrix is decomposed once, when the device is built.  A prepared
state phi is the Kronecker product of one single-mode vector per mode, built
from displacement and squeeze matrices that reuse one generator
eigendecomposition per cutoff (see fockspace), so no eigh runs per state.
Each distinct phi is projected onto the eigenbasis once, and its weights
|V† phi|^2 and energy <phi|H|phi> are cached under the exact executed values
(beta, frame_z), so every request for that state is a dict lookup plus one
phase.  Each projection also records the state's population of the top Fock
level (edge_population), a diagnostic of truncation clipping.

Shot sampling.  run_shot_batches serves many requests in one call, typically
every RPE run of a measurement grid: it looks up each distinct prepared
state's weights once, computes each probability with the same arithmetic as
probability(), draws one binomial per request, and charges the ledger per
request in request order.  Each request's draw comes from its own Philox
stream, keyed by
    SeedSequence(entropy=(master_seed, int(sha256(rng_token)[:16]))
                 ).generate_state(2, np.uint64),
so a draw depends only on the device seed and the request's token, never on
what else is in the batch.  The keys of a whole batch come from one
vectorised pass over uint32 words that repeats numpy's SeedSequence hash
(hashmix, mix, generate_state) bit for bit (_philox_keys); one device-held
Philox generator is then reset to each key with counter 0 and an empty
buffer, which is the state a fresh Philox(SeedSequence(...)) starts in.
run_shot_batch is the one-request case.

Oracles.  _rng builds that stream the slow way, through numpy's own
SeedSequence, and run_shot keeps the literal per-shot product on dense
joint-space matrices; both serve only as cross-checks of the batch sampler.
"""

from __future__ import annotations

import cmath
import hashlib
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .fockspace import (
    CutoffError,
    FockCutoff,
    displacement_matrix,
    herm_eig,
    rotation_phases,
    squeeze_matrix,
    vacuum_state,
)
from .hamiltonian import HamiltonianSpec, build_matrix, validate_hermitian


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> np.ndarray:
    """Little-endian 32-bit words of a non-negative integer; 0 is one word."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return np.array(words, dtype=np.uint32)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _seed_sequence_keys(words: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=row).generate_state(2, np.uint64) for each row.

    words is (n, L) uint32, one assembled entropy per row.  The hash constant
    advances with the call count only, never with the data, so every step is
    one numpy operation over all rows.
    """
    n, length = words.shape
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    const = _INIT_B
    state = np.empty((n, 4), dtype=np.uint32)
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _entropy_keys(master_seed: int, entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=(master_seed, e_i)).generate_state(2, np.uint64) per row.

    entropy is (n, 4) uint32: the little-endian words of each 128-bit e_i.
    SeedSequence drops the zero high words of e_i (keeping at least one), so
    rows are grouped by word count.
    """
    master = _uint32_words(master_seed)
    counts = np.ones(len(entropy), dtype=np.intp)
    for i in (1, 2, 3):
        counts[entropy[:, i] != 0] = i + 1
    keys = np.empty((len(entropy), 2), dtype=np.uint64)
    for count in range(1, 5):
        rows = np.flatnonzero(counts == count)
        if len(rows):
            words = np.hstack([np.tile(master, (len(rows), 1)), entropy[rows, :count]])
            keys[rows] = _seed_sequence_keys(words)
    return keys


def _philox_keys(master_seed: int, tokens: Sequence[str]) -> np.ndarray:
    """Philox keys of the shot streams of `tokens`, shape (len(tokens), 2).

    Token t's entropy is the first 16 bytes of sha256(t) read as a big-endian
    integer, as in SimulatedDevice._rng.
    """
    digests = b"".join(hashlib.sha256(t.encode()).digest()[:16] for t in tokens)
    entropy = np.frombuffer(digests, dtype=">u4").reshape(-1, 4)[:, ::-1].astype(np.uint32)
    return _entropy_keys(master_seed, entropy)


@dataclass(frozen=True)
class NoiseModel:
    """Displacement execution bias plus optional ancilla preparation infidelity.

    delta_beta is added to every requested displacement, per mode.  Shot noise
    is always on and is not a field here.
    """

    delta_beta: tuple[complex, ...] = ()
    state_prep_infidelity: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.state_prep_infidelity < 1.0:
            raise ValueError("state_prep_infidelity must be in [0, 1)")
        if any(not np.isfinite(d) for d in self.delta_beta):
            raise ValueError("delta_beta entries must be finite")

    def executed_beta(self, beta: tuple[complex, ...]) -> tuple[complex, ...]:
        """The displacement the device executes: beta plus delta_beta, per mode.

        Without a bias the input is returned untouched.
        """
        if not self.delta_beta:
            return beta
        shifted = list(beta)
        for m, d in enumerate(self.delta_beta[: len(shifted)]):
            shifted[m] += d
        return tuple(shifted)


@dataclass(frozen=True, slots=True)
class ShotRequest:
    """One interference experiment: kappa repetitions of the L-step sequence.

    l_steps = None requests the ideal (infinite-step) limit, where the
    amplitude is the pure phase e^{-i kappa t0 <phi|H|phi>}.  frame_z, when
    set, gives a squeezing parameter per mode; the vacuum, displacements, and
    phase rotations are all conjugated into that frame.
    """

    kappa: int
    t0: float
    beta: tuple[complex, ...]
    basis: str
    l_steps: int | None = None
    frame_z: tuple[complex, ...] | None = None
    rng_token: str = ""

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError("kappa must be a positive integer")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.l_steps is not None and self.l_steps < 1:
            raise ValueError("l_steps must be >= 1 when given")
        if self.basis not in ("X", "Y"):
            raise ValueError(f"basis must be 'X' or 'Y', got {self.basis!r}")

    @property
    def evolution_time(self) -> float:
        return self.kappa * self.t0


@dataclass
class TimeLedger:
    """Accumulated evolution time under the hidden Hamiltonian."""

    total_evolution_time: float = 0.0
    shot_count: int = 0


class SimulatedDevice:
    """Shot oracle around a hidden validated spec at a fixed truncation.

    true_frame_z, when set, declares that the spec's terms are written in a
    Bogoliubov frame: the physical matrix is S(z)† H_spec S(z) per mode.
    """

    def __init__(
        self,
        spec: HamiltonianSpec,
        cutoff: FockCutoff,
        master_seed: int = 0,
        true_frame_z: tuple[complex, ...] | None = None,
        noise: NoiseModel | None = None,
    ):
        validate_hermitian(spec, check_matrix=False)
        if cutoff.modes != spec.modes:
            raise ValueError("cutoff mode count does not match spec")
        self._spec = spec
        self.cutoff = cutoff
        self.master_seed = master_seed
        self._noise = noise or NoiseModel()
        h = build_matrix(spec, cutoff)
        if true_frame_z is not None:
            for m, z in enumerate(true_frame_z):
                if z:
                    s = squeeze_matrix(z, cutoff, m)
                    h = s.conj().T @ h @ s
            h = 0.5 * (h + h.conj().T)
        self._h = h
        self._w, self._v = herm_eig(h)
        self._vh = self._v.conj().T
        self._ledger = TimeLedger()
        self._ledger_lock = threading.Lock()
        self._phi_cache: dict[tuple, tuple[np.ndarray, float]] = {}
        self._phi_lock = threading.Lock()
        self._edge_population = 0.0
        # Built on the first shot draw: a device that serves only the exact
        # channel never loads numpy's Philox.
        self._shot_rng: np.random.Generator | None = None
        self._shot_lock = threading.Lock()

    # -- noise control ------------------------------------------------------

    def set_noise(self, model: NoiseModel) -> None:
        self._noise = model

    def clear_noise(self) -> None:
        self._noise = NoiseModel()

    def ledger(self) -> TimeLedger:
        with self._ledger_lock:
            return replace(self._ledger)

    def _charge(self, time: float, shots: int) -> None:
        with self._ledger_lock:
            self._ledger.total_evolution_time += time
            self._ledger.shot_count += shots

    # -- amplitude machinery -------------------------------------------------

    @property
    def edge_population(self) -> float:
        """Largest top-Fock-level population of any mode of any prepared state.

        Recorded once per distinct prepared state; a value far from 0 means
        the truncation clips the states the learner asked for.
        """
        return self._edge_population

    def _prepared_state(self, beta, frame_z) -> np.ndarray:
        """phi = S(z)† D(beta) |vac>, built as a Kronecker product over modes.

        Records the state's largest per-mode population of |n_max> in
        edge_population.
        """
        single = FockCutoff(n_max=self.cutoff.n_max)
        vs = [vacuum_state(single) for _ in range(self.cutoff.modes)]
        for m in range(self.cutoff.modes):
            if beta[m]:
                vs[m] = displacement_matrix(beta[m], single) @ vs[m]
        if frame_z is not None:
            for m, z in enumerate(frame_z):
                if z:
                    vs[m] = squeeze_matrix(z, single).conj().T @ vs[m]
        edge = max(abs(v[-1]) ** 2 for v in vs)
        with self._phi_lock:
            self._edge_population = max(self._edge_population, edge)
        phi = np.ones(1, dtype=complex)
        for v in vs:
            phi = np.kron(phi, v)
        return phi

    def _state_key(self, request: ShotRequest) -> tuple:
        """The prepared state of a request: its exact executed (beta, frame_z)."""
        beta = self._noise.executed_beta(request.beta)
        frame_z = request.frame_z
        return (tuple(beta), None if frame_z is None else tuple(frame_z))

    def _state_weights(self, key: tuple) -> tuple[np.ndarray, float]:
        """Eigenbasis weights |V† phi|^2 and energy of the prepared state, cached
        under its _state_key."""
        with self._phi_lock:
            hit = self._phi_cache.get(key)
        if hit is not None:
            return hit
        weights = np.abs(self._vh @ self._prepared_state(*key)) ** 2
        hit = (weights, float(weights @ self._w))
        with self._phi_lock:
            if len(self._phi_cache) > 4096:
                self._phi_cache.clear()
            self._phi_cache[key] = hit
        return hit

    def _probability(self, request: ShotRequest, weights: np.ndarray, energy: float) -> float:
        """Outcome-0 probability of the request on a prepared state's (weights, energy).

        The expected interference amplitude E_theta[A] is the pure phase
        e^{-i t E} in the ideal limit and a^L with a = weights . e^{-i w tau}
        at L Trotter steps.
        """
        if request.l_steps is None:
            amp = cmath.exp(-1j * request.evolution_time * energy)
        else:
            tau = request.evolution_time / request.l_steps
            amp = complex(weights @ np.exp(-1j * self._w * tau)) ** request.l_steps
        return self._basis_probability(amp, request.basis, self._noise.state_prep_infidelity)

    @staticmethod
    def _basis_probability(amp: complex, basis: str, infidelity: float) -> float:
        p = 0.5 * (1.0 + (amp.real if basis == "X" else amp.imag))
        p = min(max(p, 0.0), 1.0)
        return (1.0 - infidelity) * p + 0.5 * infidelity

    def probability(self, request: ShotRequest) -> float:
        """Exact outcome-0 probability; the sanctioned noiseless test channel.

        Does not touch the ledger: it stands in for the M -> infinity limit.
        """
        weights, energy = self._state_weights(self._state_key(request))
        return self._probability(request, weights, energy)

    # -- shot execution -------------------------------------------------------

    def _rng(self, token: str) -> np.random.Generator:
        """Oracle of a request's shot stream, built through numpy's SeedSequence."""
        digest = hashlib.sha256(token.encode()).digest()
        entropy = int.from_bytes(digest[:16], "big")
        seq = np.random.SeedSequence(entropy=(self.master_seed, entropy))
        return np.random.Generator(np.random.Philox(seq))

    def run_shot(self, request: ShotRequest) -> int:
        """One literal shot: fresh theta per Trotter step, full joint amplitude.

        Slow path kept as a physics cross-check of the batch sampler; the
        amplitude includes finite-L leakage out of the vacuum exactly.
        """
        if request.l_steps is None:
            raise ValueError("run_shot needs a concrete l_steps; use probability for the ideal limit")
        rng = self._rng(request.rng_token or "shot")
        beta = self._noise.executed_beta(request.beta)
        cut = self.cutoff
        dim = cut.dim
        d_op = np.eye(dim, dtype=complex)
        for m in range(cut.modes):
            if beta[m]:
                d_op = displacement_matrix(beta[m], cut, m) @ d_op
        if request.frame_z is not None:
            s_op = np.eye(dim, dtype=complex)
            for m, z in enumerate(request.frame_z):
                if z:
                    s_op = squeeze_matrix(z, cut, m) @ s_op
            d_op = d_op @ s_op.conj().T
        tau = request.evolution_time / request.l_steps
        evo = (self._v * np.exp(-1j * self._w * tau)) @ self._vh
        step_core = d_op.conj().T @ evo @ d_op
        state = vacuum_state(cut)
        for _ in range(request.l_steps):
            phases = np.ones(dim, dtype=complex)
            for m in range(cut.modes):
                phases = phases * rotation_phases(rng.uniform(0.0, 2.0 * np.pi), cut, m)
            state = np.conj(phases) * (step_core @ (phases * state))
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > 1e-9:
            raise CutoffError(f"state norm drift {abs(norm - 1.0):.2e}; cutoff inadequate")
        amp = complex(state[0])
        p = self._basis_probability(amp, request.basis, self._noise.state_prep_infidelity)
        self._charge(request.evolution_time, 1)
        return int(rng.uniform() >= p)

    def run_shot_batches(self, requests: Sequence[ShotRequest], shots: int) -> list[int]:
        """Count of outcome 1 over `shots` independent shots, for each request.

        Bits are i.i.d. Bernoulli with the exact theta-marginal probability,
        so one binomial draw per request reproduces the literal per-shot
        distribution.  Each distinct prepared state is looked up once per
        call; each request draws from its own stream (see the module
        docstring) and is charged to the ledger in request order.
        """
        if shots < 0:
            raise ValueError("shots must be >= 0")
        if shots == 0:
            return [0] * len(requests)
        states: dict[tuple, tuple[np.ndarray, float]] = {}
        probabilities = []
        for req in requests:
            key = self._state_key(req)
            state = states.get(key)
            if state is None:
                state = states[key] = self._state_weights(key)
            probabilities.append(self._probability(req, *state))
        keys = _philox_keys(self.master_seed, [req.rng_token or "batch" for req in requests])
        # A fresh Philox(seed) has counter 0 and an empty buffer (buffer_pos
        # at the buffer size, 4).
        fresh = {"counter": (0, 0, 0, 0), "key": None}
        reset = {
            "bit_generator": "Philox",
            "state": fresh,
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        ones = []
        with self._shot_lock:
            if self._shot_rng is None:
                self._shot_rng = np.random.Generator(np.random.Philox(0))
            rng = self._shot_rng
            philox = rng.bit_generator
            for req, p, key in zip(requests, probabilities, keys.tolist()):
                fresh["key"] = key
                philox.state = reset
                ones.append(int(rng.binomial(shots, 1.0 - p)))
                self._charge(shots * req.evolution_time, shots)
        return ones

    def run_shot_batch(self, request: ShotRequest, shots: int) -> dict[int, int]:
        """Counts of outcomes over `shots` independent shots of one request."""
        ones = self.run_shot_batches((request,), shots)[0]
        return {0: shots - ones, 1: ones}
