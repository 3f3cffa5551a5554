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

Ideal path.  In the ideal limit (l_steps = None) a is the pure phase
e^{-i t E} with E = <phi|H|phi>, and phi = ⊗_m v_m factorises E over modes.
A true frame enters the state, not the Hamiltonian: v_m = S(z_m)† D(beta_m)
|0> is carried to u_m = S(z_true,m) v_m, the mode's state in the spec's
frame, and E reads the (d+1) x (d+1) moment tables of the u_m.  No
joint-space matrix, vector or eigendecomposition is made.

Preparation.  A call prepares its distinct states once, for either channel
(_prepare): per mode, its factors in at most three stacked displace_vector
and squeeze_vector calls, whose per-row mat-vecs make a factor bit-identical
however many are built with it (one GEMM would round differently); then,
for an ideal row, one stacked moment_table and one (states x terms)
product_state_energy pass, and for a finite-L row each state's weights.
Only the displaced vacuum D(beta_m)|0>, which depends on neither the frame
nor the mode, outlives a call: cached under the executed beta_m, at most
_CACHE_LIMIT of them, it serves every mode of a joint grid and every learn
at a new frame (each step of bogoliubov's frame search).  Each factor
records the top-Fock-level population of v_m (edge_population), a
diagnostic of truncation clipping.

Bit-identity.  A state's energy does not depend on which other states share
its batch, and equals the term-by-term scalar loop bit for bit: the pass
multiplies complex numbers as separate real products and sums (numpy's
complex multiply may fuse them) and adds the terms with a sequential
cumulative sum, never a pairwise reduction.  So probabilities and ledgers do
not move when a grid is split or merged.  protocol's grid unwrap keeps the
same rule (math.atan2 per phase, since np.arctan2 rounds differently).

Finite-L path.  The first request with a concrete l_steps builds the spec's
matrix and decomposes it, once, under a lock.  A state's weights are
|V† phi|^2, with phi the Kronecker product of its factors u_m, and
a = weights . e^{-i w tau}.  The physical matrix S† H_spec S has
eigenvectors S† V, so the prepared psi = ⊗_m v_m has weights
|(S† V)† psi|^2 = |V† S psi|^2 = |V† phi|^2: no joint-space squeeze is
built.  A device that serves only ideal requests never decomposes H.  A
probability that rounding pushes out of [0, 1] is clipped and counted
(clipped_probabilities).

Requests.  Each channel serves a whole RPE grid in one call, as arrays: one
prepared state per run and one schedule row (kappa, basis, l_steps) per
request of a run.  probability_grid, the exact channel, prepares the grid's
states as the device's one grid memo, which the next exact grid replaces,
then asks probability(request), the channel's unit of work and its only
arithmetic, once per request; each reads its state from the memo, and one
that misses prepares its state and stores nothing (so threads that replace
each other's memo only recompute the same bits).  run_shot_grid, the shot
channel, computes the (runs x rows) probabilities of its prepared states in
one numpy pass with the arithmetic of probability(), draws the counts of the
whole grid with one numpy binomial call, and charges the ledger run-major
with a sequential running sum.  The call draws from one Philox stream of its
own, keyed by
    SeedSequence((master_seed, int(sha256(json.dumps([tokens, suffixes]))[:16])))
with suffixes[j] = f":k{kappa_j}:{basis_j}", the JSON being an injective
encoding of the call's run tokens and schedule.  So a call's counts are a
function of the master seed, the call's tokens and schedule, and its
probabilities, and nothing else: no generator is shared between calls, and
threads sharing a device need no lock to draw.  They do depend on how runs
are grouped into calls: a run sent alone draws other counts than the same
run sent with others.  protocol sends one call per learn, so a learn's counts
depend only on its own tokens and the master seed.  numpy's binomial mirrors
probabilities above 0.5, so the count of a request whose exact p is 0.5 (the
beta = 0 offset in a matched frame, whose energy is 0 up to rounding) still
depends on the sign of that rounding.  shots must be an integer: numpy's
binomial would truncate a fraction that the ledger still charges.

Oracles.  bosonlearn.oracles builds a call's stream from its public inputs
(shot_stream), computes probabilities on the dense joint space
(dense_probability), and keeps the literal per-shot product
(literal_shot).  They take only public inputs and serve as cross-checks, so
the device holds none of them.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .fockspace import (
    DIM_BUDGET,
    CutoffError,
    FockCutoff,
    TermColumns,
    displace_vector,
    herm_eig,
    moment_table,
    product_state_energy,
    squeeze_vector,
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


@dataclass(slots=True)
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

    def __post_init__(self) -> None:
        # kappa counts repetitions and l_steps is the power of the Trotter
        # amplitude, so operator.index rejects a fractional value of either
        if operator.index(self.kappa) < 1:
            raise ValueError("kappa must be a positive integer")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.l_steps is not None and operator.index(self.l_steps) < 1:
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

    # The displaced-vacuum cache is emptied before it would grow past this
    # many entries, and never holds more.
    _CACHE_LIMIT = 4096

    def __init__(
        self,
        spec: HamiltonianSpec,
        cutoff: FockCutoff,
        master_seed: int = 0,
        true_frame_z: tuple[complex, ...] | None = None,
        noise: NoiseModel | None = None,
    ):
        validate_hermitian(spec)
        # numpy's SeedSequence rejects a negative seed only at the first draw
        if operator.index(master_seed) < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {master_seed}")
        if cutoff.modes != spec.modes:
            raise ValueError("cutoff mode count does not match spec")
        if true_frame_z is not None and len(true_frame_z) != cutoff.modes:
            raise ValueError(
                f"true_frame_z has {len(true_frame_z)} entries but the device has {cutoff.modes} modes"
            )
        noise = noise or NoiseModel()
        if len(noise.delta_beta) > cutoff.modes:
            raise ValueError(
                f"delta_beta has {len(noise.delta_beta)} entries but the device has {cutoff.modes} modes"
            )
        self._spec = spec
        self._terms = TermColumns.of(spec)
        self.cutoff = cutoff
        self.master_seed = master_seed
        self._true_frame_z = None if true_frame_z is None else tuple(true_frame_z)
        self._noise = noise
        self._ledger = TimeLedger()
        self._ledger_lock = threading.Lock()
        # (w, V†) of the hidden matrix, built on the first finite-L request.
        self._eigenbasis: tuple[np.ndarray, np.ndarray] | None = None
        self._eigenbasis_lock = threading.Lock()
        self._displaced: dict[complex, np.ndarray] = {}
        # (energies, weights) of the last exact grid's states, see _prepare
        self._grid_states: tuple[dict, dict] = ({}, {})
        self._state_lock = threading.Lock()
        self._edge_population = 0.0
        self._clipped = 0

    # -- noise model and ledger ---------------------------------------------

    @property
    def noise(self) -> NoiseModel:
        """The noise model, fixed when the device is made."""
        return self._noise

    def ledger(self) -> TimeLedger:
        with self._ledger_lock:
            return replace(self._ledger)

    # -- prepared states -----------------------------------------------------

    @property
    def edge_population(self) -> float:
        """Largest top-Fock-level population of any mode of any prepared state.

        Recorded for each per-mode factor a call prepares; a value far from 0
        means the truncation clips the states the learner asked for.
        """
        return self._edge_population

    @property
    def clipped_probabilities(self) -> int:
        """How many outcome probabilities fell outside [0, 1] and were clipped.

        Only rounding at finite l_steps can push a probability out; a count
        far from 0 means the Trotter amplitude lost unitarity.
        """
        return self._clipped

    def _count_clipped(self, count: int) -> None:
        with self._state_lock:
            self._clipped += count

    def _state_key(self, beta, frame_z) -> tuple:
        """The prepared state of a request: its exact executed (beta, frame_z)."""
        beta = self._noise.executed_beta(beta)
        return (tuple(beta), None if frame_z is None else tuple(frame_z))

    def _displaced_vacua(self, betas: Sequence[complex]) -> dict[complex, np.ndarray]:
        """D(beta)|0> of each distinct beta, at the per-mode truncation.

        Cached vectors are looked up; the missing nonzero betas are displaced
        in one stacked displace_vector pass, whose rows do not depend on one
        another, so a cached vector equals a fresh one bit for bit.  beta = 0
        is the vacuum.  A cache that would pass _CACHE_LIMIT is emptied first;
        the result comes from the lookups and the new batch.  The vectors are
        read-only, as the cache shares them.  A dict lookup needs no lock.
        """
        vacua = {beta: self._displaced.get(beta) for beta in betas}
        new = [beta for beta, vector in vacua.items() if vector is None and beta]
        vacuum = np.zeros(self.cutoff.dim_per_mode, dtype=complex)
        vacuum[0] = 1.0
        if new:
            built = displace_vector(np.array(new, dtype=complex), np.tile(vacuum, (len(new), 1)))
            built.setflags(write=False)
            with self._state_lock:
                if len(self._displaced) + len(new) > self._CACHE_LIMIT:
                    self._displaced.clear()
                self._displaced.update(zip(new[: self._CACHE_LIMIT], built))
            vacua.update(zip(new, built))
        return {beta: vacuum if vector is None else vector for beta, vector in vacua.items()}

    def _mode_factors(self, mode: int, column: Sequence[tuple[complex, complex]]) -> np.ndarray:
        """u = S(z_true,mode) v of each distinct (beta, z) of column, stacked,
        with v = S(z)† D(beta)|0> on `mode`: one displacement pass over the
        betas not yet cached, one squeeze over the rows with z != 0, one into
        the true frame; a zero parameter skips its pass, as a lone vector's
        build does.  Records the top-level population of each v."""
        vacua = self._displaced_vacua([beta for beta, _ in column])
        v = np.stack([vacua[beta] for beta, _ in column])
        zs = np.array([z for _, z in column], dtype=complex)
        rows = np.flatnonzero(zs)
        if len(rows):
            v[rows] = squeeze_vector(zs[rows], v[rows], adjoint=True)
        z_true = self._true_frame_z[mode] if self._true_frame_z is not None else 0
        u = squeeze_vector(np.full(len(column), z_true, dtype=complex), v) if z_true else v
        # Scalar abs per entry: np.abs on an array rounds differently.
        top = max(abs(x) ** 2 for x in v[:, -1])
        with self._state_lock:
            self._edge_population = max(self._edge_population, top)
        return u

    def _prepare(self, keys: Sequence[tuple], ideal: bool, finite: bool) -> tuple[dict, dict]:
        """(energies, weights) of the distinct states of keys, each a dict by
        state: <phi|H|phi> if ideal, the finite-L weights |V† phi|^2 if
        finite, else empty.  Per mode, the factors are built in one stacked
        pass; the energies take one moment_table per mode and one
        product_state_energy pass, each state's weights one mat-vec with V†.
        A beta or frame_z without one entry per mode is rejected here, before
        any state is prepared, so a memo hit needs no check.
        """
        states = list(dict.fromkeys(keys))
        modes = self.cutoff.modes
        for state in states:
            for name, values in zip(("beta", "frame_z"), state):
                if values is not None and len(values) != modes:
                    raise ValueError(f"{name} has {len(values)} entries but the device has {modes} modes")
        if not states:
            return {}, {}
        factors, tables = [], []
        for m in range(modes):
            column = [(beta[m], 0 if frame_z is None else frame_z[m]) for beta, frame_z in states]
            index = {f: i for i, f in enumerate(dict.fromkeys(column))}
            u = self._mode_factors(m, list(index))
            rows = [index[f] for f in column]
            factors.append((u, rows))
            if ideal:
                tables.append(moment_table(u, self._spec.max_order)[rows])
        energies, weights = {}, {}
        if ideal:
            energies = dict(zip(states, product_state_energy(self._terms, tables).tolist()))
        if finite:
            v_dagger = self._eigen()[1]
            for i, state in enumerate(states):
                phi = functools.reduce(np.multiply.outer, [u[rows[i]] for u, rows in factors]).ravel()
                weights[state] = np.abs(v_dagger @ phi) ** 2
        return energies, weights

    def _state_energies(self, keys: Sequence[tuple]) -> list[float]:
        """<phi|H|phi> of each state, from one _prepare pass."""
        energies = self._prepare(keys, ideal=True, finite=False)[0]
        return [energies[key] for key in keys]

    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V†) of the spec's matrix, built on first use; the true frame
        reaches the finite-L path through the per-mode factors u_m.  A joint
        space above DIM_BUDGET raises CutoffError before anything is built."""
        with self._eigenbasis_lock:
            if self._eigenbasis is None:
                if self.cutoff.dim > DIM_BUDGET:
                    raise CutoffError(
                        f"the finite-L path needs the {self.cutoff.dim}-dim joint space, "
                        f"above the budget of {DIM_BUDGET} dims"
                    )
                w, v = herm_eig(build_matrix(self._spec, self.cutoff))
                self._eigenbasis = (w, v.conj().T)
            return self._eigenbasis

    def _finite_amplitude(self, weights: np.ndarray, time: float, l_steps: int) -> complex:
        """a^L with a = weights . e^{-i w tau}, tau = time / L."""
        tau = time / l_steps
        return complex(weights @ np.exp(-1j * self._eigen()[0] * tau)) ** l_steps

    # -- probabilities --------------------------------------------------------

    def probability(self, request: ShotRequest) -> float:
        """Exact outcome-0 probability; the sanctioned noiseless test channel.

        The expected interference amplitude E_theta[A] is the pure phase
        e^{-i t E} in the ideal limit and a^L at L Trotter steps.  The state
        is read from the last exact grid's memo, or prepared alone.  Does not
        touch the ledger: it stands in for the M -> infinity limit.
        """
        key = self._state_key(request.beta, request.frame_z)
        if request.l_steps is None:
            energy = self._grid_states[0].get(key)
            if energy is None:
                energy = self._state_energies([key])[0]
            amp = cmath.exp(-1j * request.evolution_time * energy)
        else:
            weights = self._grid_states[1].get(key)
            if weights is None:
                weights = self._prepare([key], ideal=False, finite=True)[1][key]
            amp = self._finite_amplitude(weights, request.evolution_time, request.l_steps)
        p = 0.5 * (1.0 + (amp.real if request.basis == "X" else amp.imag))
        if p < 0.0 or p > 1.0:
            self._count_clipped(1)
        infidelity = self._noise.state_prep_infidelity
        return (1.0 - infidelity) * min(max(p, 0.0), 1.0) + 0.5 * infidelity

    def probability_grid(
        self,
        betas: Sequence[tuple[complex, ...]],
        frame_z: tuple[complex, ...] | None,
        t0: float,
        schedule: Sequence[tuple[int, str, int | None]],
    ) -> np.ndarray:
        """Exact outcome-0 probability of every request of an RPE grid, shape
        (len(betas), len(schedule)); the exact twin of run_shot_grid.

        Run i prepares (betas[i], frame_z) and executes each schedule row
        (kappa, basis, l_steps) at t0.  The grid's states are prepared once
        and replace the device's grid memo; entry (i, j) is probability() of
        that ShotRequest, asked once per request.
        """
        ideal = [l_steps is None for _, _, l_steps in schedule]
        keys = [self._state_key(beta, frame_z) for beta in betas]
        self._grid_states = self._prepare(keys, any(ideal), not all(ideal))
        out = np.empty((len(betas), len(schedule)))
        for i, beta in enumerate(betas):
            out[i] = [
                self.probability(ShotRequest(kappa, t0, beta, basis, l_steps, frame_z))
                for kappa, basis, l_steps in schedule
            ]
        return out

    def _probabilities(self, keys, times, l_steps, is_x) -> np.ndarray:
        """Outcome-0 probability of every request of a grid in one numpy pass,
        with the arithmetic of probability(), shape (runs, rows): run i
        prepares the state keys[i], and its request j runs for times[j] at
        l_steps[j] Trotter steps (None: the ideal limit), in the X basis where
        is_x[j].  A schedule without an ideal row computes no energy."""
        ideal = [steps is None for steps in l_steps]
        energies, weights = self._prepare(keys, any(ideal), not all(ideal))
        if any(ideal):
            amp = np.exp(-1j * times * np.array([energies[key] for key in keys])[:, None])
        else:
            amp = np.empty((len(keys), len(times)), dtype=complex)
        for j, steps in enumerate(l_steps):
            if steps is not None:
                amp[:, j] = [self._finite_amplitude(weights[key], times[j], steps) for key in keys]
        p = 0.5 * (1.0 + np.where(is_x, amp.real, amp.imag))
        clipped = np.count_nonzero((p < 0.0) | (p > 1.0))
        if clipped:
            self._count_clipped(clipped)
        p = np.clip(p, 0.0, 1.0)
        infidelity = self._noise.state_prep_infidelity
        return (1.0 - infidelity) * p + 0.5 * infidelity

    # -- shot execution -------------------------------------------------------

    def run_shot_grid(
        self,
        betas: Sequence[tuple[complex, ...]],
        frame_z: tuple[complex, ...] | None,
        t0: float,
        schedule: Sequence[tuple[int, str, int | None]],
        shots: int,
        tokens: Sequence[str],
    ) -> np.ndarray:
        """Counts of outcome 1 over `shots` shots for every request of an RPE
        grid, shape (len(betas), len(schedule)).

        Run i prepares (betas[i], frame_z) and executes each schedule row
        (kappa, basis, l_steps) at t0 in turn.  Bits are i.i.d. Bernoulli
        with the exact theta-marginal probability p, so request (i, j) is
        one binomial(shots, 1 - p) draw; the call draws the whole grid,
        run-major, with one binomial call on its own stream (see the module
        docstring), so the counts equal oracles.shot_stream(master_seed,
        tokens, suffixes).binomial(shots, 1 - probability_grid(...)).  The
        ledger adds the charges shots * kappa_j * t0 one at a time, run-major
        (a cumulative sum is sequential), so its total is the one
        request-by-request charging gives.  Each row is validated once, as a
        ShotRequest.
        """
        if len(tokens) != len(betas):
            raise ValueError(f"need one token per beta: {len(betas)} betas, {len(tokens)} tokens")
        shots = operator.index(shots)
        if shots < 0:
            raise ValueError("shots must be >= 0")
        rows = [
            ShotRequest(kappa=kappa, t0=t0, beta=(), basis=basis, l_steps=l_steps, frame_z=frame_z)
            for kappa, basis, l_steps in schedule
        ]
        if shots == 0 or len(betas) * len(rows) == 0:
            return np.zeros((len(betas), len(rows)), dtype=np.int64)
        times = np.array([row.evolution_time for row in rows])
        probabilities = self._probabilities(
            [self._state_key(beta, frame_z) for beta in betas],
            times,
            [row.l_steps for row in rows],
            np.array([row.basis == "X" for row in rows]),
        )
        suffixes = [f":k{row.kappa}:{row.basis}" for row in rows]
        digest = hashlib.sha256(json.dumps([list(tokens), suffixes]).encode()).digest()
        seed = np.random.SeedSequence((self.master_seed, int.from_bytes(digest[:16], "big")))
        ones = np.random.Generator(np.random.Philox(seed)).binomial(shots, 1.0 - probabilities)
        with self._ledger_lock:
            total = self._ledger.total_evolution_time
            charges = np.tile(shots * times, len(betas))
            running = np.cumsum(np.concatenate(([total], charges)))
            self._ledger.total_evolution_time = float(running[-1])
            self._ledger.shot_count += shots * ones.size
        return ones
