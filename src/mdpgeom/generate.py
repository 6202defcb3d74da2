"""Seeded random model generation with a portable, documented PRNG.

The generator is SplitMix64 (public constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB), chosen so that any implementation
in any language can reproduce the exact instance stream from the 64-bit
seed. Uniform doubles take the top 53 bits of each output word.
``SplitMix64.next_u64`` is the scalar reference; ``_uniform_rows`` computes
the same stream in counter form (Steele, Lea & Flood, OOPSLA 2014), row by
row: the j-th state after ``s`` is ``s + j * 0x9E3779B97F4A7C15`` mod 2^64,
so k draws from each of many start states are one (rows, k) uint64 array
operation. ``SplitMix64.uniforms`` and ``uniform_vector`` are its one-row
cases.

Draw order per SAP, fixed for reproducibility: n weight uniforms, then
(only if sparsity > 0) n sparsity uniforms, then one reward uniform. SAPs
are generated state by state, slot by slot. A row zeroed out entirely by
sparsity is repaired by forcing the self-loop weight to 1; repaired rows
are listed in the generation result. ``_generate`` draws the models of
many seeds together, as many whole models a pass as fit in
``_CHUNK_DRAWS`` uniforms; ``generate_model`` is its one-seed case.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .model import MdpModel
from .modelfile import _integer, _real

PRNG_NAME = "splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# _generate draws at most this many uniforms a pass: the whole models of
# consecutive seeds, or a chunk of one model's SAPs (one SAP's worth at
# least) when a model holds more, so the uint64 temporaries stay a few
# hundred KB at any n
_CHUNK_DRAWS = 1 << 16


def _states(seeds) -> np.ndarray:
    """The SplitMix64 state of each seed of ``seeds`` (any ints), as a uint64 vector."""
    return np.array([int(seed) & _MASK for seed in seeds], dtype=np.uint64)


def _uniform_rows(states: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) uniforms in [0, 1): row r holds the next k draws after state ``states[r]``."""
    z = np.arange(1, k + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z = z + states[:, None]
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


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

    def _advance(self, k: int) -> np.ndarray:
        # the state the next k draws start from, as a one-row state vector; steps past them
        if k < 0:
            raise ValueError("k must be non-negative")
        start = np.array([self._state], dtype=np.uint64)
        self._state = (self._state + k * _GOLDEN) & _MASK
        return start

    def uniforms(self, k: int) -> np.ndarray:
        """The next k uniform doubles in [0, 1), each from the top 53 bits of a word."""
        return _uniform_rows(self._advance(k), k)[0]


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
        lo, hi = map(float, self.reward_range)
        if not lo <= hi:
            raise ValueError("reward_range must be ordered")
        if not math.isfinite(hi - lo):  # also a bound that is infinite
            raise ValueError(f"reward_range [{lo!r}, {hi!r}] must be finite, and so must its width")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must be in [0, 1]")
        object.__setattr__(self, "reward_range", (lo, hi))

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
        truncated, and a JSON boolean is not read as 0 or 1.
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


def _range(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} {json.dumps(value)} is not a list of two numbers")
    return tuple(_real(bound, name) for bound in value)


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
    """Deterministically generate a model from ``spec``; the one-seed case of ``_generate``.

    Each transition row samples independent uniform weights, zeroes entries
    per the sparsity probability, repairs all-zero rows by forcing a
    positive self-loop weight, then normalizes. Rewards are uniform in the
    reward range.
    """
    ((model, repaired),) = _generate(spec, _states([spec.seed]))
    return GenerationResult(model=model, spec=spec, repaired_rows=repaired)


def _generate(spec: GeneratorSpec, states: np.ndarray) -> list:
    """(model, repaired rows) of ``spec`` drawn from each SplitMix64 state of ``states``, in order.

    ``spec.seed`` is not read. A pass draws the SAP rows of consecutive
    models together, at most _CHUNK_DRAWS uniforms: as many whole models as
    fit, or a chunk of one model's SAPs when one does not. Every step of a
    row is elementwise and contiguous rows sum in the same pairwise order
    as a lone row, so each model has the bits ``generate_model`` gives its
    seed alone. The models share one read-only ``sap_states``.
    """
    lo, hi = spec.reward_range
    n, per_state = spec.n, spec.saps_per_state
    m = n * per_state
    per_sap = n * (2 if spec.sparsity > 0.0 else 1) + 1
    chunk = max(1, _CHUNK_DRAWS // per_sap)  # SAPs a pass
    stack = max(1, chunk // m)  # models a pass
    sap_states = np.arange(m) // per_state
    sap_states.setflags(write=False)
    out = []
    for head in range(0, len(states), stack):
        block = states[head : head + stack]
        k = len(block)
        rewards, probs = np.empty(k * m), np.empty((k * m, n))
        repaired = [[] for _ in range(k)]
        for first in range(0, m, chunk):  # one pass whenever k > 1
            stop = min(first + chunk, m)
            width = stop - first
            skip = np.uint64(first * per_sap * _GOLDEN & _MASK)  # the draws of SAPs before first
            draws = _uniform_rows(block + skip, width * per_sap).reshape(-1, per_sap)
            weights = draws[:, :n].copy()
            if spec.sparsity > 0.0:
                weights[draws[:, n : 2 * n] < spec.sparsity] = 0.0
            dead = np.flatnonzero(~np.any(weights > 0.0, axis=1))
            saps = first + dead % width
            weights[dead, sap_states[saps]] = 1.0
            for row, sap in zip((dead // width).tolist(), saps.tolist()):
                repaired[row].append(divmod(sap, per_state))
            # the pass's rows of probs, [first, stop) of one model or all rows of whole ones;
            # rows are contiguous, so each sums in the same pairwise order as a lone row
            rows = slice(first, (k - 1) * m + stop)
            np.divide(weights, weights.sum(axis=1, keepdims=True), out=probs[rows])
            rewards[rows] = lo + draws[:, -1] * (hi - lo)
        out.extend(
            (MdpModel._from_arrays(n, spec.gamma, sap_states, r, p), fixed)
            for r, p, fixed in zip(rewards.reshape(k, m), probs.reshape(k, m, n), repaired)
        )
    return out


def _uniform_vectors(states: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) uniforms in [-1, 1), row r from SplitMix64 state ``states[r]``; random VI start vectors."""
    return -1.0 + _uniform_rows(states, n) * 2.0


def uniform_vector(rng: SplitMix64, n: int) -> np.ndarray:
    """n uniforms in [-1, 1) from ``rng``; the one-row case of ``_uniform_vectors``."""
    return _uniform_vectors(rng._advance(n), n)[0]
