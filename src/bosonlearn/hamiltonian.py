"""Finite-order bosonic Hamiltonians in normal-ordered form.

A Hamiltonian is a sparse map from per-mode operator powers to complex
coefficients, H = sum_terms g * prod_modes (b†_m)^p_m (b_m)^q_m, plus an
optional identity offset.  Alongside matrix construction this module gives the
displaced, phase-averaged constant term C(beta) that the learner targets
(constant_term); its matrix-level cross-checks live in bosonlearn.oracles.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .fockspace import FockCutoff, normal_ordered_factor

PAIRING_TOL = 1e-12


class HermiticityError(ValueError):
    """Raised when a spec's terms are not conjugate-paired."""


@dataclass(frozen=True)
class TermKey:
    """One normal-ordered monomial: powers (p, q) on each participating mode.

    modes is strictly increasing and non-negative; every listed mode carries
    p+q >= 1.
    """

    modes: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.modes) == len(self.p) == len(self.q)):
            raise ValueError("modes, p, q must have equal length")
        if len(self.modes) == 0:
            raise ValueError("a term must involve at least one mode")
        if any(m2 <= m1 for m1, m2 in zip(self.modes, self.modes[1:])):
            raise ValueError("modes must be strictly increasing")
        if self.modes[0] < 0:
            raise ValueError(f"modes must be non-negative, got {self.modes}")
        if any(pi < 0 or qi < 0 for pi, qi in zip(self.p, self.q)):
            raise ValueError("powers must be non-negative")
        if any(pi + qi == 0 for pi, qi in zip(self.p, self.q)):
            raise ValueError("every participating mode needs p+q >= 1")

    @property
    def order(self) -> int:
        return sum(self.p) + sum(self.q)

    @functools.cached_property
    def conjugate(self) -> "TermKey":
        return TermKey(self.modes, self.q, self.p)

    @property
    def is_self_conjugate(self) -> bool:
        return self.p == self.q

    @property
    def is_coupling(self) -> bool:
        return len(self.modes) > 1


def single_key(p: int, q: int, mode: int = 0) -> TermKey:
    return TermKey((mode,), (p,), (q,))


@dataclass
class HamiltonianSpec:
    """Hidden ground truth / learner output: term map with Hermitian pairing."""

    modes: int
    max_order: int
    terms: dict[TermKey, complex] = field(default_factory=dict)
    identity_offset: float = 0.0
    g_max: float = 1.0


def validate_hermitian(spec: HamiltonianSpec) -> HamiltonianSpec:
    """Return spec iff every term is in range and conjugate-paired; list
    unpaired terms otherwise.  Paired terms make build_matrix Hermitian."""
    offenders = []
    for key, coeff in spec.terms.items():
        if key.order == 0 or key.order > spec.max_order:
            raise ValueError(f"term {key} has order outside (0, {spec.max_order}]")
        if key.modes[-1] >= spec.modes:
            raise ValueError(f"term {key} references mode >= {spec.modes}")
        partner = spec.terms.get(key.conjugate)
        if partner is None or abs(np.conj(coeff) - partner) > PAIRING_TOL:
            offenders.append((key, key.conjugate))
    if offenders:
        raise HermiticityError(f"unpaired terms: {offenders}")
    return spec


def build_matrix(spec: HamiltonianSpec, cutoff: FockCutoff) -> np.ndarray:
    """Dense matrix of the spec at the given truncation.

    Each term is the Kronecker product of its per-mode factors b†^p b^q, with
    identities on the modes it does not touch.
    """
    if cutoff.modes != spec.modes:
        raise ValueError("cutoff mode count does not match spec")
    if cutoff.n_max < spec.max_order:
        raise ValueError(f"n_max={cutoff.n_max} below max order d={spec.max_order}")
    dim = cutoff.dim
    eye = np.eye(cutoff.dim_per_mode, dtype=complex)
    h = np.zeros((dim, dim), dtype=complex)
    for key, coeff in spec.terms.items():
        factors = [eye] * spec.modes
        for mode, p, q in zip(key.modes, key.p, key.q):
            factors[mode] = normal_ordered_factor(p, q, cutoff.n_max)
        h += coeff * functools.reduce(np.kron, factors)
    if spec.identity_offset:
        h += spec.identity_offset * np.eye(dim)
    return h


def constant_term(spec: HamiltonianSpec, beta) -> float:
    """C(beta) = sum over terms of g * prod (beta_m*)^p (beta_m)^q, identity excluded."""
    beta = np.asarray(beta, dtype=complex).ravel()
    if beta.size != spec.modes:
        raise ValueError(f"beta must have {spec.modes} entries")
    total = 0.0 + 0.0j
    for key, coeff in spec.terms.items():
        mono = 1.0 + 0.0j
        for mode, p, q in zip(key.modes, key.p, key.q):
            mono *= np.conj(beta[mode]) ** p * beta[mode] ** q
        total += coeff * mono
    scale = max(1.0, abs(total))
    if abs(total.imag) > 1e-12 * scale:
        raise ValueError(f"constant term has imaginary part {total.imag:.2e}; spec not Hermitian?")
    return float(total.real)


def admissible_keys(modes: int, d: int) -> list[TermKey]:
    """All term keys with 0 < total order <= d, singles and couplings."""
    keys: list[TermKey] = []
    for m in range(modes):
        for p in range(d + 1):
            for q in range(d + 1 - p):
                if p + q >= 1:
                    keys.append(single_key(p, q, m))
    if modes >= 2:
        from itertools import combinations

        for size in range(2, modes + 1):
            for subset in combinations(range(modes), size):
                keys.extend(_coupling_keys(subset, d))
    return keys


def _coupling_keys(subset: tuple[int, ...], d: int) -> list[TermKey]:
    keys = []

    def rec(i: int, budget: int, acc: list[tuple[int, int]]):
        if i == len(subset):
            keys.append(TermKey(subset, tuple(a for a, _ in acc), tuple(b for _, b in acc)))
            return
        remaining = len(subset) - i - 1
        for p in range(budget + 1):
            for q in range(budget + 1 - p):
                if p + q >= 1 and budget - p - q >= remaining:
                    rec(i + 1, budget - p - q, acc + [(p, q)])

    rec(0, d, [])
    return keys


def canonical_key(key: TermKey) -> TermKey:
    """Representative of a conjugate pair (lexicographically smaller of the two)."""
    conj = key.conjugate
    return key if (key.p, key.q) <= (conj.p, conj.q) else conj


def random_spec(
    modes: int,
    d: int,
    g_max: float = 1.0,
    sparsity: float = 1.0,
    seed: int = 0,
    include_couplings: bool = True,
) -> HamiltonianSpec:
    """Random Hermitian-paired spec with |g| <= g_max, deterministic under seed."""
    if modes < 1 or d < 1:
        raise ValueError(f"random_spec needs modes >= 1 and d >= 1, got modes {modes} and d {d}")
    rng = np.random.default_rng(seed)
    terms: dict[TermKey, complex] = {}
    canon = sorted(
        {canonical_key(k) for k in admissible_keys(modes, d) if include_couplings or not k.is_coupling},
        key=lambda k: (k.modes, k.p, k.q),
    )
    for key in canon:
        if rng.uniform() > sparsity:
            continue
        mag = g_max * rng.uniform(0.2, 1.0)
        if key.is_self_conjugate:
            coeff = complex(mag * rng.choice([-1.0, 1.0]))
        else:
            coeff = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        terms[key] = complex(coeff)
        terms[key.conjugate] = complex(np.conj(coeff))
    return validate_hermitian(HamiltonianSpec(modes=modes, max_order=d, terms=terms, g_max=g_max))


# ---------------------------------------------------------------------------
# Serialization: JSON document that round-trips exactly.


def spec_to_dict(spec: HamiltonianSpec) -> dict:
    return {
        "modes": spec.modes,
        "d": spec.max_order,
        "identity_offset": spec.identity_offset,
        "g_max": spec.g_max,
        "terms": [
            {
                "modes": list(k.modes),
                "p": list(k.p),
                "q": list(k.q),
                "re": v.real,
                "im": v.imag,
            }
            for k, v in sorted(spec.terms.items(), key=lambda kv: (kv[0].modes, kv[0].p, kv[0].q))
        ],
    }


def spec_from_dict(doc: dict) -> HamiltonianSpec:
    terms = {
        TermKey(*(tuple(map(operator.index, t[f])) for f in ("modes", "p", "q"))): complex(t["re"], t["im"])
        for t in doc["terms"]
    }
    return HamiltonianSpec(
        modes=operator.index(doc["modes"]),
        max_order=operator.index(doc["d"]),
        terms=terms,
        identity_offset=float(doc.get("identity_offset", 0.0)),
        g_max=float(doc.get("g_max", 1.0)),
    )


def save_spec(spec: HamiltonianSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)


def load_spec(path) -> HamiltonianSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
