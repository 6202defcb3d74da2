"""Finite MDP data model: SAPs, policies, induced kernels and the span seminorm.

States are indexed 0..n-1. The atomic unit is the SAP (state-action pair):
a state it is attached to, a deterministic reward, and a transition row.
A policy picks exactly one SAP per state, so it is both a state -> SAP map
and a set of SAPs. All objects are immutable value types; operations here
are pure functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EnumerationTooLargeError, InvalidPolicyError

# tolerance for "rows sum to 1" on input data; rows are never renormalized
ROW_SUM_TOL = 1e-12

# criterion tags carried by ValueVector
DISCOUNTED = "discounted-classical"
AVERAGE_BIAS = "average-bias"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Sap:
    """One state-action pair: attached state, reward, transition row."""

    state: int
    reward: float
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", int(self.state))
        object.__setattr__(self, "reward", float(self.reward))
        object.__setattr__(self, "probs", _readonly(np.atleast_1d(self.probs)))

    def __eq__(self, other):
        if not isinstance(other, Sap):
            return NotImplemented
        return (
            self.state == other.state
            and self.reward == other.reward
            and np.array_equal(self.probs, other.probs)
        )


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Finite MDP: ``n`` states, an ordered SAP list, and gamma in (0, 1].

    gamma = 1 selects the average-reward criterion. SAP order is the file
    order; every tie-break elsewhere refers to it, which keeps runs
    reproducible.
    """

    n: int
    saps: tuple
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "saps", tuple(self.saps))
        if self.n < 1:
            raise ValueError(f"state count must be positive, got {self.n}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not self.saps:
            raise ValueError("model has no SAPs")
        if not all(isinstance(a, Sap) for a in self.saps):
            raise TypeError("saps must be Sap instances")

    @property
    def m(self) -> int:
        """Number of SAPs."""
        return len(self.saps)

    @property
    def is_average_reward(self) -> bool:
        return self.gamma == 1.0

    # Cached dense views. These assume a model that passes validate_model;
    # they raise on ragged probability rows.
    @cached_property
    def sap_states(self) -> np.ndarray:
        a = np.array([s.state for s in self.saps], dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def sap_rewards(self) -> np.ndarray:
        return _readonly(np.array([s.reward for s in self.saps]))

    @cached_property
    def sap_probs(self) -> np.ndarray:
        return _readonly(np.vstack([s.probs for s in self.saps]))

    @cached_property
    def state_order(self) -> np.ndarray:
        """SAP indices sorted by state, ascending index within a state."""
        a = np.argsort(self.sap_states, kind="stable").astype(np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def state_ptr(self) -> np.ndarray:
        """CSR-style offsets into state_order, one segment per state."""
        counts = np.bincount(self.sap_states, minlength=self.n)
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        ptr.setflags(write=False)
        return ptr

    @cached_property
    def _owner_table(self) -> np.ndarray:
        """sap_states between two -1 sentinels: entry i + 1 is the state of SAP i."""
        a = np.concatenate(([-1], self.sap_states, [-1]))
        a.setflags(write=False)
        return a

    @cached_property
    def _state_ids(self) -> np.ndarray:
        a = np.arange(self.n)
        a.setflags(write=False)
        return a

    def saps_at(self, state: int) -> np.ndarray:
        """SAP indices attached to ``state``, ascending."""
        return self.state_order[self.state_ptr[state] : self.state_ptr[state + 1]]

    def __eq__(self, other):
        if not isinstance(other, MdpModel):
            return NotImplemented
        return (
            self.n == other.n
            and self.gamma == other.gamma
            and len(self.saps) == len(other.saps)
            and all(a == b for a, b in zip(self.saps, other.saps))
        )


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic stationary policy: one SAP index per state."""

    choice: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.choice, dtype=np.int64)).copy()
        a.setflags(write=False)
        object.__setattr__(self, "choice", a)

    def as_tuple(self) -> tuple:
        return tuple(int(i) for i in self.choice)

    def __contains__(self, sap_index: int) -> bool:
        return int(sap_index) in self.as_tuple()

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return np.array_equal(self.choice, other.choice)

    def __hash__(self):
        return hash(self.as_tuple())


@dataclass(frozen=True)
class ValueVector:
    """A length-n value vector tagged with the criterion it belongs to."""

    values: np.ndarray
    criterion: str

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))


def check_policy(model: MdpModel, pi: Policy) -> None:
    """Raise InvalidPolicyError unless ``pi`` picks one own-state SAP per state."""
    if pi.choice.shape != (model.n,):
        raise InvalidPolicyError(
            f"policy length {pi.choice.shape[0]} does not match n={model.n}"
        )
    # SAP index i reads entry i + 1; indices outside [0, m) clip onto a sentinel
    owners = model._owner_table.take(pi.choice + 1, mode="clip")
    bad = owners != model._state_ids
    s = int(bad.argmax())  # the first offending state, if any
    if bad[s]:
        idx = int(pi.choice[s])
        if not 0 <= idx < model.m:
            raise InvalidPolicyError(f"state {s}: SAP index {idx} out of range")
        raise InvalidPolicyError(
            f"state {s}: SAP {idx} is attached to state {model.saps[idx].state}"
        )


def validate_model(model: MdpModel) -> list:
    """Check the data-model invariants and return the violation report.

    An empty list means the model is valid. Stochasticity is checked at
    tolerance 1e-12 and rows are not repaired.
    """
    violations = []
    for i, sap in enumerate(model.saps):
        if not 0 <= sap.state < model.n:
            violations.append(f"sap {i}: state {sap.state} outside [0, {model.n})")
        if sap.probs.shape != (model.n,):
            violations.append(
                f"sap {i}: transition row has length {sap.probs.shape[0]}, expected {model.n}"
            )
            continue
        # written so that NaN, which compares false, fails both tests
        if not np.all((sap.probs >= -ROW_SUM_TOL) & (sap.probs <= 1.0 + ROW_SUM_TOL)):
            violations.append(f"sap {i}: transition entries outside [0, 1]")
        total = float(sap.probs.sum())
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            violations.append(f"sap {i}: row sum {total!r} != 1")
    covered = {sap.state for sap in model.saps if 0 <= sap.state < model.n}
    for s in range(model.n):
        if s not in covered:
            violations.append(f"state {s}: no SAP attached")
    return violations


def policy_kernel(model: MdpModel, pi: Policy) -> np.ndarray:
    """Transition kernel of the Markov chain induced by ``pi``.

    Row i is exactly the transition row of pi's SAP at state i.
    """
    check_policy(model, pi)
    return model.sap_probs[pi.choice]


def policy_rewards(model: MdpModel, pi: Policy) -> np.ndarray:
    """Reward vector of ``pi``: entry i is the reward of the SAP chosen at i."""
    check_policy(model, pi)
    return model.sap_rewards[pi.choice]


def span(v) -> float:
    """Span seminorm: max entry minus min entry. Zero iff the vector is constant."""
    a = np.asarray(v, dtype=np.float64)
    if a.size == 0:
        raise ValueError("span of an empty vector is undefined")
    return float(a.max() - a.min())


def enumerate_policies(model: MdpModel, cap: int = 10**6) -> Iterator[Policy]:
    """Yield every deterministic stationary policy exactly once.

    Policies come out in lexicographic order of their SAP-index vectors.
    Raises EnumerationTooLargeError when the policy count exceeds ``cap``.
    """
    per_state = []
    for s in range(model.n):
        ids = model.saps_at(s)
        if ids.size == 0:
            raise InvalidPolicyError(f"state {s}: no SAP attached")
        per_state.append([int(i) for i in ids])
    total = math.prod(len(ids) for ids in per_state)
    if total > cap:
        raise EnumerationTooLargeError(
            f"{total} policies exceed the enumeration cap {cap}"
        )
    for combo in itertools.product(*per_state):
        yield Policy(np.array(combo, dtype=np.int64))


def policy_count(model: MdpModel) -> int:
    """Number of deterministic stationary policies."""
    return math.prod(int(c) for c in np.bincount(model.sap_states, minlength=model.n))


def lowest_index_policy(model: MdpModel) -> Policy:
    """The policy choosing the lowest-index SAP at every state."""
    return Policy(np.array([int(model.saps_at(s)[0]) for s in range(model.n)], dtype=np.int64))
