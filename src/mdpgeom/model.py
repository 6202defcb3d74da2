"""Finite MDP data model: SAPs, policies, induced kernels and the span seminorm.

States are indexed 0..n-1. The atomic unit is the SAP (state-action pair):
a state it is attached to, a deterministic reward, and a transition row.
A model stores its SAPs as arrays. A policy picks exactly one SAP per state,
so it is both a state -> SAP map and a set of SAPs. All objects are
immutable value types; operations here are pure functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

import numpy as np

from .errors import (
    EnumerationTooLargeError, InvalidPolicyError, NonFiniteRewardError, ValidationFailedError
)

# tolerance for "rows sum to 1" on input data; rows are never renormalized
ROW_SUM_TOL = 1e-12

# criterion tags carried by ValueVector
DISCOUNTED = "discounted-classical"
AVERAGE_BIAS = "average-bias"


def _readonly(a, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _non_numbers(rows) -> list:
    """A violation for each transition row with a string or boolean entry, naming its first."""
    out = []
    for i, row in enumerate(rows):
        if {str, bool} & set(map(type, row)):
            entry = next(x for x in row if type(x) in (str, bool))
            out.append(f"sap {i}: transition entry {json.dumps(entry)} is not a number")
    return out


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

    def __reduce__(self):  # copies go through the constructor, which makes probs read-only
        return Sap, (self.state, self.reward, self.probs)

    def __eq__(self, other):
        if not isinstance(other, Sap):
            return NotImplemented
        return (
            self.state == other.state
            and self.reward == other.reward
            and np.array_equal(self.probs, other.probs)
        )


@dataclass(frozen=True, eq=False, init=False)
class MdpModel:
    """Finite MDP: ``n`` states, an ordered SAP list, and gamma in (0, 1].

    gamma = 1 selects the average-reward criterion. SAP order is the file
    order; every tie-break elsewhere refers to it, which keeps runs
    reproducible. Entry i of three read-only arrays describes SAP i:
    ``sap_states`` (int64, m), ``sap_rewards`` (float64, m) and
    ``sap_probs`` (float64, m x n). ``MdpModel(n, saps, gamma)`` stacks
    ``Sap``s, raising ValidationFailedError on rows of length other than n;
    ``saps`` is a view of ``Sap``s over the arrays, built on first read.
    The SAPs grouped by state (``_by_state``) are also built on first read,
    once: the greedy sweep's padded tables, policy enumeration,
    ``policy_count`` and ``lowest_index_policy`` all derive from them, and a
    model with other rewards (``_with_rewards``) or the same ``sap_states``
    (``_share_layout``) shares them. A state with no SAP makes each of these
    raise ValidationFailedError naming every such state.
    """

    n: int
    gamma: float
    sap_states: np.ndarray
    sap_rewards: np.ndarray
    sap_probs: np.ndarray

    def __init__(self, n: int, saps, gamma: float):
        saps = tuple(saps)
        if not all(isinstance(a, Sap) for a in saps):
            raise TypeError("saps must be Sap instances")
        self._store(
            n, gamma, [a.state for a in saps], [a.reward for a in saps], [a.probs for a in saps]
        )

    @classmethod
    def _from_arrays(cls, n: int, gamma: float, states, rewards, probs) -> MdpModel:
        """The model over per-SAP states, rewards and rows, sharing an (m, n) ``probs`` array."""
        model = cls.__new__(cls)
        model._store(n, gamma, states, rewards, probs)
        return model

    def _store(self, n, gamma, states, rewards, probs) -> None:
        n, gamma = int(n), float(gamma)
        if n < 1:
            raise ValueError(f"state count must be positive, got {n}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if len(states) == 0:
            raise ValueError("model has no SAPs")
        if not isinstance(probs, np.ndarray):  # rows to stack; an (m, n) matrix has no ragged row
            ragged = [
                f"sap {i}: transition row has length {len(row)}, expected {n}"
                for i, row in enumerate(probs)
                if len(row) != n
            ]
            if ragged:
                raise ValidationFailedError(ragged)
            rows, probs = probs, np.array(probs)  # no dtype: a string entry shows in the array's
            if probs.dtype.kind in "Ub":
                raise ValidationFailedError(_non_numbers(rows))
        try:
            states = _readonly(states, np.int64)
        except OverflowError:  # validate_model's message, for states an int64 cannot hold
            bad = [(i, s) for i, s in enumerate(states) if not 0 <= s < n]
            raise ValidationFailedError([f"sap {i}: state {s} outside [0, {n})" for i, s in bad])
        probs = _readonly(probs)
        if probs.shape != (states.size, n):
            raise ValueError(f"transition rows of shape {probs.shape}, not ({states.size}, {n})")
        vars(self).update(  # the frozen dataclass's fields, set once, here
            n=n, gamma=gamma, sap_states=states, sap_rewards=_readonly(rewards), sap_probs=probs
        )

    def __reduce__(self):  # copies go through _store, which makes the arrays read-only
        return MdpModel._from_arrays, (
            self.n, self.gamma, self.sap_states, self.sap_rewards, self.sap_probs
        )

    @property
    def m(self) -> int:
        """Number of SAPs."""
        return self.sap_states.size

    @property
    def is_average_reward(self) -> bool:
        return self.gamma == 1.0

    @cached_property
    def saps(self) -> tuple:
        """The SAPs as ``Sap`` objects over rows of ``sap_probs``, built on first read."""
        return tuple(map(Sap, self.sap_states.tolist(), self.sap_rewards.tolist(), self.sap_probs))

    @cached_property
    def _by_state(self) -> tuple:
        """The SAPs grouped by state, as read-only int64 ``(counts, order, starts)``:
        state s has ``counts[s]`` SAPs, ``order[starts[s]:starts[s] + counts[s]]``,
        ascending. Raises ValidationFailedError naming every SAP whose state is
        outside [0, n), as validate_model does, or else every state with no SAP."""
        states, n = self.sap_states, self.n
        bad = np.flatnonzero((states < 0) | (states >= n))
        if bad.size:  # bincount would miscount these as uncovered states, or raise
            raise ValidationFailedError(
                [f"sap {i}: state {states[i]} outside [0, {n})" for i in bad]
            )
        counts = np.bincount(states, minlength=n)
        if counts.min() == 0:
            uncovered = np.flatnonzero(counts == 0)
            raise ValidationFailedError([f"state {s}: no SAP attached" for s in uncovered])
        order = np.argsort(states, kind="stable")  # by state, ascending within one
        starts = np.cumsum(counts) - counts
        return tuple(_readonly(a, np.int64) for a in (counts, order, starts))

    @cached_property
    def _sweep_blocks(self) -> tuple:
        """The greedy sweep's ``(states, row_starts, table)`` blocks, one row per state:
        row i of ``table`` lists the SAPs of ``states[i]`` ascending, padded with its
        first SAP, from flat position ``row_starts[i]``. A block takes the next SAP
        count only while its table stays within twice its SAPs: equal counts make
        one (n, k) table, and skewed ones at most 2m entries."""
        counts, order, starts = self._by_state
        widths, held, saps = [], 0, 0  # each block's largest count; the last block's states, SAPs
        for k, mult in zip(*(a.tolist() for a in np.unique(counts, return_counts=True))):
            held, saps = held + mult, saps + mult * k
            if widths and held * k > 2 * saps:  # the last block would pad more than it holds
                widths.append(k)
                held, saps = mult, mult * k
            else:  # the last block (or the first) widens to k
                widths[-1:] = [k]
        blocks, lo = [], 0
        for k in widths:
            states = np.flatnonzero((counts > lo) & (counts <= k))
            cols = np.arange(k)
            table = order[starts[states, None] + np.where(cols < counts[states, None], cols, 0)]
            row_starts = np.arange(0, table.size, k)
            blocks.append(tuple(_readonly(a, np.int64) for a in (states, row_starts, table)))
            lo = k
        return tuple(blocks)

    def _with_rewards(self, rewards) -> MdpModel:
        """This model with other rewards, sharing every other array and table."""
        model = MdpModel._from_arrays(self.n, self.gamma, self.sap_states, rewards, self.sap_probs)
        model._share_layout(self)
        return model

    def _share_layout(self, other: MdpModel) -> None:
        """Take ``other``'s ``_by_state`` and ``_sweep_blocks``, built from n and ``sap_states``
        alone: ``other``'s must equal this model's. Raises as ``other``'s tables do."""
        vars(self).update((name, getattr(other, name)) for name in ("_by_state", "_sweep_blocks"))

    def saps_at(self, state: int) -> np.ndarray:
        """SAP indices attached to ``state``, ascending."""
        return np.flatnonzero(self.sap_states == state)

    def __eq__(self, other):
        if not isinstance(other, MdpModel):
            return NotImplemented
        return (
            self.n == other.n
            and self.gamma == other.gamma
            and np.array_equal(self.sap_states, other.sap_states)
            and np.array_equal(self.sap_rewards, other.sap_rewards)
            and np.array_equal(self.sap_probs, other.sap_probs)
        )


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic stationary policy: one SAP index per state."""

    choice: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.choice, dtype=np.int64)).copy()
        a.setflags(write=False)
        object.__setattr__(self, "choice", a)

    def __reduce__(self):  # copies go through __post_init__, which makes choice read-only
        return Policy, (self.choice,)

    def as_tuple(self) -> tuple:
        return tuple(int(i) for i in self.choice)

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return np.array_equal(self.choice, other.choice)

    def __hash__(self):
        return hash(self.as_tuple())


@dataclass(frozen=True, eq=False)
class ValueVector:
    """A length-n value vector tagged with the criterion it belongs to."""

    values: np.ndarray
    criterion: str

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    def __reduce__(self):  # copies go through __post_init__, which makes values read-only
        return ValueVector, (self.values, self.criterion)

    def __eq__(self, other):
        if not isinstance(other, ValueVector):
            return NotImplemented
        return self.criterion == other.criterion and np.array_equal(self.values, other.values)


def check_policy(model: MdpModel, pi: Policy) -> None:
    """Raise InvalidPolicyError unless ``pi`` picks one own-state SAP per state."""
    if pi.choice.shape != (model.n,):
        raise InvalidPolicyError(
            f"policy length {pi.choice.shape[0]} does not match n={model.n}"
        )
    in_range = (pi.choice >= 0) & (pi.choice < model.m)
    owners = model.sap_states.take(pi.choice, mode="clip")  # meaningful where in_range
    bad = ~in_range | (owners != np.arange(model.n))
    s = int(bad.argmax())  # the first offending state, if any
    if bad[s]:
        idx = int(pi.choice[s])
        if not in_range[s]:
            raise InvalidPolicyError(f"state {s}: SAP index {idx} out of range")
        raise InvalidPolicyError(f"state {s}: SAP {idx} is attached to state {owners[s]}")


def validate_model(model: MdpModel) -> list:
    """Check the data-model invariants and return the violation report.

    An empty list means the model is valid. Stochasticity is checked at
    tolerance 1e-12 and rows are not repaired.
    """
    n, states, probs = model.n, model.sap_states, model.sap_probs
    bad_state = (states < 0) | (states >= n)
    # written so that NaN, which compares false, fails both tests
    bad_entries = ~np.all((probs >= -ROW_SUM_TOL) & (probs <= 1.0 + ROW_SUM_TOL), axis=1)
    totals = probs.sum(axis=1)  # contiguous rows sum in the same order as a lone row
    bad_sum = ~(np.abs(totals - 1.0) <= ROW_SUM_TOL)
    violations = []
    for i in np.flatnonzero(bad_state | bad_entries | bad_sum).tolist():
        if bad_state[i]:
            violations.append(f"sap {i}: state {states[i]} outside [0, {n})")
        if bad_entries[i]:
            violations.append(f"sap {i}: transition entries outside [0, 1]")
        if bad_sum[i]:
            violations.append(f"sap {i}: row sum {float(totals[i])!r} != 1")
    uncovered = np.flatnonzero(~np.isin(np.arange(n), states)).tolist()
    violations.extend(f"state {s}: no SAP attached" for s in uncovered)
    return violations


def check_finite_rewards(model: MdpModel, pi: Policy | None = None) -> None:
    """Raise NonFiniteRewardError naming the first SAP whose reward is NaN or infinite.

    With ``pi``, only the SAPs that ``pi`` uses are checked, in state order.
    """
    saps = np.arange(model.m) if pi is None else pi.choice
    finite = np.isfinite(model.sap_rewards[saps])
    if not finite.all():
        i = int(saps[finite.argmin()])
        raise NonFiniteRewardError(f"sap {i}: reward {model.sap_rewards[i].item()!r} is not finite")


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


# the most policies that enumeration walks through
ENUMERATION_CAP = 10**6


def enumerate_policies(model: MdpModel) -> Iterator[Policy]:
    """Yield every deterministic stationary policy exactly once.

    Policies come out in lexicographic order of their SAP-index vectors
    (``itertools.product`` over each state's SAPs, ascending). Raises
    EnumerationTooLargeError above ENUMERATION_CAP policies, on the first draw.
    """
    total = policy_count(model)
    if total > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"{total} policies exceed the enumeration cap {ENUMERATION_CAP}")
    _, order, starts = model._by_state
    yield from map(Policy, product(*(saps.tolist() for saps in np.split(order, starts[1:]))))


def policy_count(model: MdpModel) -> int:
    """Number of deterministic stationary policies."""
    return math.prod(model._by_state[0].tolist())


def lowest_index_policy(model: MdpModel) -> Policy:
    """The policy choosing the lowest-index SAP at every state."""
    _, order, starts = model._by_state
    return Policy(order[starts])
