"""Classical dynamic-programming solvers, kept independent of the geometry module.

These are the oracle routes: discounted evaluation and value iteration,
average-reward gain/bias evaluation, relative value iteration, and optimal
policies by enumeration. Cross-checks between this module and the geometric
one are what the test suite is built on, so nothing here may import from
mdpgeom.geometry, whose policy iteration is the library's optimum for both
criteria.

The gamma = 1 enumeration is that search's fallback, for the models where
it cannot certify its optimum unique, and the oracle the tests compare it
with. It walks every policy, a chunk at a time: one reachability closure
classifies a chunk's kernels, each unichain kernel gets its own gain/bias
solve, and one expression checks the chunk's residuals. The result is that
of a loop over single policies, bit for bit.
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
    check_finite_rewards,
    enumerate_policies,
    policy_kernel,
    span,
    _policy_chunks,
)
from .chains import _classify

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
    be skipped at gamma = 1 because their kernel is not unichain; it is 0
    when ``geometry.optimal_policy`` certified its optimum with no enumeration.
    ``geometry.optimal_policy`` also sets ``advantages``, each SAP's against
    the optimum, and the optimum's ``geometry.PolicyVector`` and
    ``geometry.GeometryConstants`` as ``policy_vector`` and ``constants``.
    """

    policy: Policy
    unique: bool
    values: np.ndarray | None = None
    gain: float | None = None
    skipped_multichain: int = 0
    advantages: np.ndarray | None = None
    policy_vector: object | None = None
    constants: object | None = None


def evaluate_discounted(model: MdpModel, pi: Policy) -> ValueVector:
    """Solve (I - gamma*P) V = R for gamma < 1.

    The solution must pass a componentwise backward-error check: each row's
    residual is at most RESIDUAL_TOL * (|A||V| + |R|). The bound scales with
    |V|, which grows like 1/(1 - gamma), so it holds as gamma -> 1. Raises
    NonFiniteRewardError when a SAP that ``pi`` uses has a NaN or infinite
    reward.
    """
    if model.is_average_reward:
        raise CriterionMismatchError("discounted evaluation needs gamma < 1")
    p = policy_kernel(model, pi)  # checks pi
    check_finite_rewards(model, pi)
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
    """Solve (I - P) h + rho * 1 = R with h(anchor_state) = 0 at gamma = 1.

    The residual bound is 1e-9 times the largest of 1, |R| and |h|.
    Raises NonFiniteRewardError when a SAP that ``pi`` uses has a NaN or
    infinite reward, and ValueError for an anchor outside [0, n).
    """
    if not model.is_average_reward:
        raise CriterionMismatchError("average-reward evaluation needs gamma = 1")
    if not 0 <= anchor_state < model.n:
        raise ValueError(f"anchor state {anchor_state} outside [0, {model.n})")
    p = policy_kernel(model, pi)  # checks pi
    check_finite_rewards(model, pi)
    gains, biases = _gain_bias(p[None], model.sap_rewards[pi.choice][None], anchor_state)
    return GainBias(gain=float(gains[0]), bias=biases[0], anchor_state=anchor_state)


def _gain_bias(p: np.ndarray, r: np.ndarray, anchor_state: int = 0) -> tuple:
    """(gains (k,), biases (k, n)) of a stack of k kernels (k, n, n) with rewards (k, n).

    evaluate_average's solve, one ``solve_checked`` per kernel, then one
    residual check for the whole stack. Raises NotUnichainError for the first
    kernel, in stack order, whose solve is singular or whose residual is out
    of bounds.
    """
    k, n = r.shape
    a = np.zeros((k, n + 1, n + 1))
    a[:, :n, :n] = np.eye(n) - p
    a[:, :n, n] = 1.0
    a[:, n, anchor_state] = 1.0
    b = np.zeros((k, n + 1))
    b[:, :n] = r
    x = np.empty((k, n + 1))
    singular, solved = None, k
    for i in range(k):
        try:
            x[i] = solve_checked(a[i], b[i])
        except SingularMatrixError as exc:
            singular, solved = exc, i
            break
    p, r, h, rho = p[:solved], r[:solved], x[:solved, :n], x[:solved, n]
    residual = np.abs(_bellman_residuals(p, r, h, rho)).max(axis=1)
    # the floor is 1e-9; above it, the bound scales with the rewards and the bias
    limit = 1e-9 * np.maximum(1.0, np.maximum(np.abs(r).max(axis=1), np.abs(h).max(axis=1)))
    failed = np.flatnonzero(residual > limit)
    if failed.size:
        i = failed[0]
        raise NotUnichainError(f"gain/bias residual {residual[i]:.3e} exceeds {limit[i]:.3e}")
    if singular is not None:
        raise NotUnichainError("average-reward evaluation needs a unichain kernel") from singular
    return rho, h


def _bellman_residuals(p: np.ndarray, r: np.ndarray, h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """r + p @ h - h - rho for each kernel of a stack, bit for bit the per-kernel product."""
    return r + (p @ h[..., None])[..., 0] - h - rho[:, None]


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
    # the first policy with no classical advantage above rounding solves the
    # Bellman optimality equation (Puterman 1994, section 6.2)
    for pi in enumerate_policies(model):
        v = evaluate_discounted(model, pi).values
        adv = classical_advantages(model, v)
        if adv.max() <= 1e-9 * max(1.0, float(np.abs(v).max())):
            adv[pi.choice] = -np.inf
            return OptimalPolicyResult(policy=pi, unique=bool(adv.max() < -1e-9), values=v)
    raise NumericalCheckError("no policy passes the optimality certificate")


def _optimal_average(model: MdpModel) -> OptimalPolicyResult:
    best_gain = -np.inf
    best_policy = None
    near = np.empty(0)  # the gains within 1e-9 of the best so far, which only rises
    skipped = 0
    # enumerated policies are valid by construction, so they index the model
    # directly, and their kernels are rows of a validated model
    for block in _policy_chunks(model):
        kernels = model.sap_probs[block]
        unichain = _classify(kernels)[0] == 1
        skipped += block.shape[0] - int(np.count_nonzero(unichain))
        block = block[unichain]
        gains, _ = _gain_bias(kernels[unichain], model.sap_rewards[block])
        for i, rho in enumerate(gains.tolist()):
            if rho > best_gain + 1e-9:
                best_gain = rho
                best_policy = block[i]
        near = np.concatenate((near, gains))
        near = near[near >= best_gain - 1e-9]
    if best_policy is None:
        raise NotUnichainError("no unichain policy to optimize over at gamma = 1")
    return OptimalPolicyResult(
        policy=Policy(best_policy),
        unique=near.size == 1,
        gain=best_gain,
        skipped_multichain=skipped,
    )


def optimal_policy(model: MdpModel) -> OptimalPolicyResult:
    """Optimal deterministic policy under the model's criterion, by enumeration.

    Policies go in lexicographic order. gamma < 1: the first one whose
    classical advantages are at most 1e-9 * max(1, |V|); it is unique when
    the others' are below -1e-9. gamma = 1: over unichain policies, in
    chunks of ``POLICY_CHUNK_BYTES`` of kernels; a policy becomes the optimum
    when its gain exceeds the best before it by more than 1e-9, and the
    optimum is unique when no other unichain policy's gain is within 1e-9 of
    it. A gain/bias failure raises for the first failing policy in that
    order. EnumerationTooLargeError above ``ENUMERATION_CAP`` policies.
    Raises NonFiniteRewardError, naming the first SAP whose reward is NaN or
    infinite, before any solve.
    """
    check_finite_rewards(model)
    if model.is_average_reward:
        return _optimal_average(model)
    return _optimal_discounted(model)
