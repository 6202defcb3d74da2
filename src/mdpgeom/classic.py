"""Classical dynamic-programming solvers, kept independent of the geometry module.

These are the oracle routes: discounted evaluation, average-reward gain/bias
evaluation, one classical value iteration for both criteria, and optimal
policies by enumeration. Cross-checks between this module and the geometric
one are what the test suite is built on, so nothing here may import from
mdpgeom.geometry, whose policy iteration is the library's optimum for both
criteria, nor from mdpgeom.kernels, whose greedy sweep the advantage value
iteration runs: value iteration here takes its per-state maxima itself.

The gamma = 1 enumeration is the oracle the tests compare that search
with; the search never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
)
from .chains import _classify

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class GainBias:
    """Average-reward evaluation: scalar gain plus the anchored bias vector."""

    gain: float
    bias: np.ndarray
    anchor_state: int = 0


@dataclass(frozen=True)
class ValueIterationRun:
    """value_iteration's greedy policy at its last iterate u_T, its last readout (T u)(anchor)
    (0.0 before any step), its iterates u_0 .. u_T and its Bellman-residual spans."""

    policy: Policy
    gain: float
    iterates: list
    residual_spans: list
    converged: bool


@dataclass(frozen=True)
class OptimalPolicyResult:
    """Optimal policy plus whether the optimum is unique at tolerance 1e-9.

    ``values`` carries V* for gamma < 1; ``gain`` the optimal gain at
    gamma = 1, from one gain/bias solve of the optimum. ``skipped_multichain``
    is enumeration's count of the policies it skipped at gamma = 1 because
    their kernel is not unichain; it is always 0 from
    ``geometry.optimal_policy``, which enumerates nothing.
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
    gain, bias = _gain_bias(p, model.sap_rewards[pi.choice], anchor_state)
    return GainBias(gain=float(gain), bias=bias, anchor_state=anchor_state)


def _gain_bias(p: np.ndarray, r: np.ndarray, anchor_state: int = 0) -> tuple:
    """(gain, bias) of the kernel ``p`` with rewards ``r``: evaluate_average's solve and
    its residual check, either of which raises NotUnichainError."""
    n = r.size
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.eye(n) - p
    a[:n, n] = 1.0
    a[n, anchor_state] = 1.0
    try:
        x = solve_checked(a, np.append(r, 0.0))
    except SingularMatrixError as exc:
        raise NotUnichainError("average-reward evaluation needs a unichain kernel") from exc
    h, rho = x[:n], x[n]
    residual = np.abs(r + p @ h - h - rho).max()
    # the floor is 1e-9; above it, the bound scales with the rewards and the bias
    limit = 1e-9 * max(1.0, np.abs(r).max(), np.abs(h).max())
    if residual > limit:
        raise NotUnichainError(f"gain/bias residual {residual:.3e} exceeds {limit:.3e}")
    return rho, h


def value_iteration(
    model: MdpModel,
    v0: np.ndarray | None = None,
    anchor_state: int = 0,
    max_iters: int = 100_000,
    tol: float = 1e-10,
) -> ValueIterationRun:
    """Classical value iteration at any gamma, recentred at ``anchor_state``.

    Each step applies the Bellman max-operator, (T u)(s) the largest
    r(a) + gamma * p(a) @ u over the SAPs a of s, ties to the lowest SAP
    index, reads g = (T u)(anchor) and sets u = T u - g; the shift moves no
    span and no greedy pick. At gamma = 1 this is relative value iteration:
    g estimates the optimal gain and u the bias zero at the anchor. At
    gamma < 1, u tends to V* - V*(anchor) and g to (1 - gamma) * V*(anchor).
    Stops once span(T u - u) <= ``tol`` or, with converged=False, after
    ``max_iters`` steps, as a periodic optimal kernel at gamma = 1 may make
    it oscillate forever.
    """
    if not 0 <= anchor_state < model.n:
        raise ValueError(f"anchor state {anchor_state} outside [0, {model.n})")
    u = np.zeros(model.n) if v0 is None else np.asarray(v0, dtype=np.float64).copy()
    iterates, residual_spans, gain, converged = [u], [], 0.0, False
    for _ in range(max_iters):
        q, greedy = _bellman(model, u)
        tu = q[greedy]
        residual_spans.append(span(tu - u))
        gain = float(tu[anchor_state])
        u = tu - gain
        iterates.append(u)
        if residual_spans[-1] <= tol:
            converged = True
            break
    return ValueIterationRun(Policy(_bellman(model, u)[1]), gain, iterates, residual_spans, converged)


def _bellman(model: MdpModel, u: np.ndarray) -> tuple:
    """(q, greedy): every SAP's r + gamma * p @ u, and per state the first SAP of its maximum."""
    q = model.sap_rewards + model.gamma * (model.sap_probs @ u)
    return q, np.array([saps[q[saps].argmax()] for saps in map(model.saps_at, range(model.n))])


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
    best_gain, best_policy, skipped = -np.inf, None, 0
    near = []  # the gains within 1e-9 of the best so far, which only rises
    for pi in enumerate_policies(model):
        # enumerated policies are valid by construction, so they index the model
        # directly, and their kernels are rows of a validated model
        kernel = model.sap_probs[pi.choice]
        if _classify(kernel)[0] != 1:
            skipped += 1
            continue
        rho, _ = _gain_bias(kernel, model.sap_rewards[pi.choice])
        if rho > best_gain + 1e-9:
            best_gain, best_policy = rho, pi
            near = [g for g in near if g >= rho - 1e-9]
        if rho >= best_gain - 1e-9:
            near.append(rho)
    if best_policy is None:
        raise NotUnichainError("no unichain policy to optimize over at gamma = 1")
    return OptimalPolicyResult(
        policy=best_policy,
        unique=len(near) == 1,
        gain=float(best_gain),
        skipped_multichain=skipped,
    )


def optimal_policy(model: MdpModel) -> OptimalPolicyResult:
    """Optimal deterministic policy under the model's criterion, by enumeration.

    Policies go in lexicographic order. gamma < 1: the first one whose
    classical advantages are at most 1e-9 * max(1, |V|); it is unique when
    the others' are below -1e-9. gamma = 1: over unichain policies, one
    gain/bias solve each; a policy becomes the optimum when its gain exceeds
    the best before it by more than 1e-9, and the optimum is unique when no
    other unichain policy's gain is within 1e-9 of it. The first policy whose
    gain/bias evaluation fails raises. EnumerationTooLargeError above
    ``ENUMERATION_CAP`` policies. Raises NonFiniteRewardError, naming the first SAP whose reward is NaN or
    infinite, before any solve.
    """
    check_finite_rewards(model)
    if model.is_average_reward:
        return _optimal_average(model)
    return _optimal_discounted(model)
