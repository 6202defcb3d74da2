"""Seeded random model generation with a portable, documented PRNG.

The generator is SplitMix64 (public constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB), chosen so that any implementation
in any language can reproduce the exact instance stream from the 64-bit
seed. Uniform doubles take the top 53 bits of each output word.
``SplitMix64.next_u64`` is the scalar reference; ``uniforms`` computes the
same stream in counter form (Steele, Lea & Flood, OOPSLA 2014): the j-th
state after ``s`` is ``s + j * 0x9E3779B97F4A7C15`` mod 2^64, so k draws
are one uint64 array operation.

Draw order per SAP, fixed for reproducibility: n weight uniforms, then
(only if sparsity > 0) n sparsity uniforms, then one reward uniform. SAPs
are generated state by state, slot by slot. A row zeroed out entirely by
sparsity is repaired by forcing the self-loop weight to 1; repaired rows
are listed in the generation result.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .model import MdpModel
from .modelfile import _integer

PRNG_NAME = "splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# generate_model draws this many uniforms per chunk of SAPs (or one SAP's
# worth, if more), so the uint64 temporaries stay a few hundred KB at any n
_CHUNK_DRAWS = 1 << 16


class SplitMix64:
    """SplitMix64 PRNG; 64-bit state, full-period output mix."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniforms(self, k: int) -> np.ndarray:
        """The next k uniform doubles in [0, 1), each from the top 53 bits of a word."""
        if k < 0:
            raise ValueError("k must be non-negative")
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + k * _GOLDEN) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a random instance: sizes, gamma, reward range, sparsity, seed."""

    n: int
    saps_per_state: int
    gamma: float
    reward_range: tuple = (0.0, 1.0)
    sparsity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.saps_per_state < 1:
            raise ValueError("saps_per_state must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        lo, hi = self.reward_range
        if not lo <= hi:
            raise ValueError("reward_range must be ordered")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must be in [0, 1]")
        object.__setattr__(self, "reward_range", (float(lo), float(hi)))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "saps_per_state": self.saps_per_state,
            "gamma": self.gamma,
            "reward_range": list(self.reward_range),
            "sparsity": self.sparsity,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        """The spec a JSON object describes; n, saps_per_state and gamma are required.

        A missing key, or a value that does not convert, raises ValueError
        naming the key; a fractional n, saps_per_state or seed is refused, not
        truncated.
        """
        if not isinstance(d, dict):
            raise ValueError(f"spec must be an object, not {type(d).__name__}")
        values = {}
        for f in fields(cls):
            if f.name not in d:
                if f.default is MISSING:
                    raise ValueError(f"spec key {f.name!r} is missing")
                continue
            try:
                values[f.name] = _SPEC_READERS[f.name](d[f.name], f.name)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"spec key {f.name!r}: {exc}") from exc
        return cls(**values)


def _real(value, name: str) -> float:
    return float(value)


def _range(value, name: str) -> tuple:
    lo, hi = map(float, value)
    return lo, hi


_SPEC_READERS = {
    "n": _integer,
    "saps_per_state": _integer,
    "gamma": _real,
    "reward_range": _range,
    "sparsity": _real,
    "seed": _integer,
}


@dataclass
class GenerationResult:
    model: MdpModel
    spec: GeneratorSpec
    prng: str = PRNG_NAME
    repaired_rows: list = field(default_factory=list)


def generate_model(spec: GeneratorSpec) -> GenerationResult:
    """Deterministically generate a model from ``spec``.

    Each transition row samples independent uniform weights, zeroes entries
    per the sparsity probability, repairs all-zero rows by forcing a
    positive self-loop weight, then normalizes. Rewards are uniform in the
    reward range.
    """
    rng = SplitMix64(spec.seed)
    lo, hi = spec.reward_range
    n, per_state = spec.n, spec.saps_per_state
    m = n * per_state
    per_sap = n * (2 if spec.sparsity > 0.0 else 1) + 1
    chunk = max(1, _CHUNK_DRAWS // per_sap)
    states = np.arange(m) // per_state
    rewards = np.empty(m)
    probs = np.empty((m, n))
    repaired = []
    for first in range(0, m, chunk):
        block = slice(first, min(first + chunk, m))
        draws = rng.uniforms((block.stop - first) * per_sap).reshape(-1, per_sap)
        weights = draws[:, :n].copy()
        if spec.sparsity > 0.0:
            weights[draws[:, n : 2 * n] < spec.sparsity] = 0.0
        dead = np.flatnonzero(~np.any(weights > 0.0, axis=1))
        weights[dead, states[block][dead]] = 1.0
        repaired.extend(divmod(first + int(i), per_state) for i in dead)
        # rows are contiguous, so each sums in the same pairwise order as a lone row
        np.divide(weights, weights.sum(axis=1, keepdims=True), out=probs[block])
        rewards[block] = lo + draws[:, -1] * (hi - lo)
    model = MdpModel._from_arrays(n, spec.gamma, states, rewards, probs)
    return GenerationResult(model=model, spec=spec, repaired_rows=repaired)


def uniform_vector(rng: SplitMix64, n: int) -> np.ndarray:
    """n uniforms in [-1, 1) from ``rng``; used for random VI start vectors."""
    return -1.0 + rng.uniforms(n) * 2.0
