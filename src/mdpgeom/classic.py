"""Classical dynamic-programming solvers, kept independent of the geometry module.

These are the oracle routes: discounted evaluation and value iteration,
average-reward gain/bias evaluation, relative value iteration, and optimal
policy computation. Cross-checks between this module and the geometric one
are what the test suite is built on, so nothing here may import from
mdpgeom.geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    CriterionMismatchError,
    NotUnichainError,
    NumericalCheckError,
    SingularMatrixError,
)
from .linalg import solve_checked
from .model import (
    DISCOUNTED,
    MdpModel,
    Policy,
    ValueVector,
    enumerate_policies,
    lowest_index_policy,
    policy_kernel,
    span,
)
from .chains import classify_chain

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class GainBias:
    """Average-reward evaluation: scalar gain plus the anchored bias vector."""

    gain: float
    bias: np.ndarray
    anchor_state: int = 0


@dataclass
class SolveTrace:
    """Iterates and Bellman-residual spans of an iterative solve."""

    iterates: list = field(default_factory=list)
    residual_spans: list = field(default_factory=list)
    converged: bool = False


@dataclass(frozen=True)
class OptimalPolicyResult:
    """Optimal policy plus whether the optimum is unique at tolerance 1e-9.

    ``values`` carries V* for gamma < 1; ``gain`` the optimal gain at
    gamma = 1. ``skipped_multichain`` counts enumerated policies that had to
    be skipped at gamma = 1 because their kernel is not unichain.
    """

    policy: Policy
    unique: bool
    values: np.ndarray | None = None
    gain: float | None = None
    skipped_multichain: int = 0


def evaluate_discounted(model: MdpModel, pi: Policy) -> ValueVector:
    """Solve (I - gamma*P) V = R for gamma < 1.

    The solution must pass a componentwise backward-error check: each row's
    residual is at most RESIDUAL_TOL * (|A||V| + |R|). The bound scales with
    |V|, which grows like 1/(1 - gamma), so it holds as gamma -> 1.
    """
    if model.is_average_reward:
        raise CriterionMismatchError("discounted evaluation needs gamma < 1")
    p = policy_kernel(model, pi)  # checks pi
    r = model.sap_rewards[pi.choice]
    a = np.eye(model.n) - model.gamma * p
    v = solve_checked(a, r)
    residual = np.abs(v - r - model.gamma * (p @ v))
    limit = RESIDUAL_TOL * (np.abs(a) @ np.abs(v) + np.abs(r))
    if np.any(residual > limit):
        raise NumericalCheckError(
            f"discounted evaluation residual {residual.max():.3e} exceeds its backward-error bound"
        )
    return ValueVector(values=v, criterion=DISCOUNTED)


def evaluate_average(model: MdpModel, pi: Policy, anchor_state: int = 0) -> GainBias:
    """Solve (I - P) h + rho * 1 = R with h(anchor_state) = 0 at gamma = 1."""
    if not model.is_average_reward:
        raise CriterionMismatchError("average-reward evaluation needs gamma = 1")
    p = policy_kernel(model, pi)  # checks pi
    return _gain_bias(p, model.sap_rewards[pi.choice], anchor_state)


def _gain_bias(p: np.ndarray, r: np.ndarray, anchor_state: int = 0) -> GainBias:
    # evaluate_average on a policy's kernel and rewards, already looked up
    n = p.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.eye(n) - p
    a[:n, n] = 1.0
    a[n, anchor_state] = 1.0
    b = np.zeros(n + 1)
    b[:n] = r
    try:
        x = solve_checked(a, b)
    except SingularMatrixError as exc:
        raise NotUnichainError(
            "average-reward evaluation needs a unichain kernel"
        ) from exc
    h, rho = x[:n], float(x[n])
    residual = float(np.max(np.abs(r + p @ h - h - rho)))
    if residual > 1e-9:
        raise NotUnichainError(f"gain/bias residual {residual:.3e} exceeds 1e-9")
    return GainBias(gain=rho, bias=h, anchor_state=anchor_state)


def value_iteration(
    model: MdpModel,
    v0: np.ndarray | None = None,
    max_iters: int = 100_000,
    epsilon: float = 1e-10,
) -> tuple:
    """Discounted value iteration; returns (greedy policy, SolveTrace).

    Stops when span(V_{t+1} - V_t) <= epsilon * (1 - gamma) / gamma, the
    classical certificate for an epsilon-accurate value; ties in the
    maximization go to the lowest SAP index. Hitting max_iters is a clean
    stop with converged=False.
    """
    if model.is_average_reward:
        raise CriterionMismatchError("value iteration here is the gamma < 1 variant")
    gamma = model.gamma
    v = np.zeros(model.n) if v0 is None else np.asarray(v0, dtype=np.float64).copy()
    trace = SolveTrace(iterates=[v.copy()])
    threshold = epsilon * (1.0 - gamma) / gamma
    for _ in range(max_iters):
        maxq, _ = kernels.greedy_sweep_model(model, gamma, v)
        diff_span = span(maxq - v)
        trace.iterates.append(maxq.copy())
        trace.residual_spans.append(diff_span)
        v = maxq
        if diff_span <= threshold:
            trace.converged = True
            break
    _, greedy_ids = kernels.greedy_sweep_model(model, gamma, v)
    return Policy(greedy_ids), trace


def relative_value_iteration(
    model: MdpModel,
    v0: np.ndarray | None = None,
    anchor_state: int = 0,
    max_iters: int = 100_000,
    epsilon: float = 1e-9,
) -> tuple:
    """Classical RVI at gamma = 1; returns (policy, GainBias, SolveTrace).

    Each step applies the undiscounted Bellman max-operator and subtracts
    the anchor component; the gain estimate is the anchor component right
    before subtraction. Stops when the span of the Bellman residual drops
    to epsilon. Periodic optimal kernels may oscillate forever; that is
    reported as converged=False with the partial trace, not an exception.
    """
    if not model.is_average_reward:
        raise CriterionMismatchError("relative value iteration needs gamma = 1")
    u = np.zeros(model.n) if v0 is None else np.asarray(v0, dtype=np.float64).copy()
    trace = SolveTrace(iterates=[u.copy()])
    gain_estimate = 0.0
    for _ in range(max_iters):
        tu, _ = kernels.greedy_sweep_model(model, 1.0, u)
        residual_span = span(tu - u)
        gain_estimate = float(tu[anchor_state])
        u = tu - tu[anchor_state]
        trace.iterates.append(u.copy())
        trace.residual_spans.append(residual_span)
        if residual_span <= epsilon:
            trace.converged = True
            break
    _, greedy_ids = kernels.greedy_sweep_model(model, 1.0, u)
    return Policy(greedy_ids), GainBias(gain=gain_estimate, bias=u, anchor_state=anchor_state), trace


def classical_advantages(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """Per-SAP one-step advantages r + gamma * p @ V - V(state) for gamma < 1."""
    values = np.asarray(values, dtype=np.float64)
    return (
        model.sap_rewards
        + model.gamma * (model.sap_probs @ values)
        - values[model.sap_states]
    )


def _optimal_discounted(model: MdpModel) -> OptimalPolicyResult:
    # Howard policy iteration, ties to the lowest SAP index.
    pi = lowest_index_policy(model)
    for _ in range(10_000):
        v = evaluate_discounted(model, pi).values
        maxq, greedy_ids = kernels.greedy_sweep_model(model, model.gamma, v)
        q_current = (
            model.sap_rewards[pi.choice]
            + model.gamma * (model.sap_probs[pi.choice] @ v)
        )
        improve = maxq > q_current + 1e-12
        if not np.any(improve):
            break
        choice = pi.choice.copy()
        choice[improve] = greedy_ids[improve]
        pi = Policy(choice)
    else:  # pragma: no cover
        raise NumericalCheckError("policy iteration failed to terminate")
    # the loop stopped right after evaluating pi, so v holds pi's values
    adv = classical_advantages(model, v)
    member = np.zeros(model.m, dtype=bool)
    member[pi.choice] = True
    nonmember = adv[~member]
    unique = bool(nonmember.size == 0 or np.max(nonmember) < -1e-9)
    return OptimalPolicyResult(policy=pi, unique=unique, values=v)


def _optimal_average(model: MdpModel) -> OptimalPolicyResult:
    best_gain = -np.inf
    best_policy = None
    gains = []
    skipped = 0
    # enumerated policies are valid by construction, so they index the model directly
    for pi in enumerate_policies(model):
        kernel = model.sap_probs[pi.choice]
        if not classify_chain(kernel).is_unichain:
            skipped += 1
            continue
        rho = _gain_bias(kernel, model.sap_rewards[pi.choice]).gain
        gains.append(rho)
        if rho > best_gain + 1e-9:
            best_gain = rho
            best_policy = pi
    if best_policy is None:
        raise NotUnichainError("no unichain policy to optimize over at gamma = 1")
    within = sum(1 for g in gains if g >= best_gain - 1e-9)
    return OptimalPolicyResult(
        policy=best_policy,
        unique=within == 1,
        gain=best_gain,
        skipped_multichain=skipped,
    )


def optimal_policy(model: MdpModel) -> OptimalPolicyResult:
    """Optimal deterministic policy under the model's criterion.

    gamma < 1: Howard policy iteration. gamma = 1: exhaustive enumeration
    over unichain policies maximizing the gain (this module is the oracle;
    simplicity beats speed), with EnumerationTooLargeError above the
    enumeration cap of ``enumerate_policies``.
    """
    if model.is_average_reward:
        return _optimal_average(model)
    return _optimal_discounted(model)
