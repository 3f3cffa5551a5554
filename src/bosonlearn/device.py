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
level (edge_population), a diagnostic of truncation clipping.  run_shot keeps
the literal per-shot product on dense joint-space matrices as a slow
cross-check path.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import threading
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
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

    def _state_weights(self, beta, frame_z) -> tuple[np.ndarray, float]:
        """Eigenbasis weights |V† phi|^2 and energy of the prepared state, cached.

        The cache key is the exact executed values (beta, frame_z).
        """
        key = (tuple(beta), None if frame_z is None else tuple(frame_z))
        with self._phi_lock:
            hit = self._phi_cache.get(key)
        if hit is not None:
            return hit
        weights = np.abs(self._vh @ self._prepared_state(beta, frame_z)) ** 2
        hit = (weights, float(weights @ self._w))
        with self._phi_lock:
            if len(self._phi_cache) > 4096:
                self._phi_cache.clear()
            self._phi_cache[key] = hit
        return hit

    def _amplitude(self, request: ShotRequest) -> complex:
        """Expected interference amplitude E_theta[A] for the request."""
        beta = self._noise.executed_beta(request.beta)
        weights, energy = self._state_weights(beta, request.frame_z)
        if request.l_steps is None:
            return cmath.exp(-1j * request.evolution_time * energy)
        tau = request.evolution_time / request.l_steps
        a = complex(weights @ np.exp(-1j * self._w * tau))
        return a**request.l_steps

    @staticmethod
    def _basis_probability(amp: complex, basis: str, infidelity: float) -> float:
        p = 0.5 * (1.0 + (amp.real if basis == "X" else amp.imag))
        p = min(max(p, 0.0), 1.0)
        return (1.0 - infidelity) * p + 0.5 * infidelity

    def probability(self, request: ShotRequest) -> float:
        """Exact outcome-0 probability; the sanctioned noiseless test channel.

        Does not touch the ledger: it stands in for the M -> infinity limit.
        """
        amp = self._amplitude(request)
        return self._basis_probability(amp, request.basis, self._noise.state_prep_infidelity)

    # -- shot execution -------------------------------------------------------

    def _rng(self, token: str) -> np.random.Generator:
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

    def run_shot_batch(self, request: ShotRequest, shots: int) -> dict[int, int]:
        """Counts of outcomes over `shots` independent shots.

        Bits are i.i.d. Bernoulli with the exact theta-marginal probability,
        so one binomial draw reproduces the literal per-shot distribution.
        """
        if shots < 0:
            raise ValueError("shots must be >= 0")
        if shots == 0:
            return {0: 0, 1: 0}
        p = self.probability(request)
        rng = self._rng(request.rng_token or "batch")
        ones = int(rng.binomial(shots, 1.0 - p))
        self._charge(shots * request.evolution_time, shots)
        return {0: shots - ones, 1: ones}
