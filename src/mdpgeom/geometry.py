"""Geometric view of an MDP: action vectors, policy vectors, advantages.

The construction replaces the classical value equation, which degenerates
at gamma = 1, by a shifted system that stays well posed across both
criteria. With C = n*gamma + (1 - gamma) and E the all-ones matrix, the
values v of a policy solve

    (I + gamma*E - gamma*P) (v / C) = R,

which at gamma = 1 reduces to (I + E - P)(v/C) = R and is solvable exactly
for unichain kernels. Each SAP gets an action vector whose coefficients sum
to -1; the advantage of a SAP with respect to a policy is the plain inner
product of its action vector with (1, v), with no case split on gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import classic, kernels
from .errors import (
    CriterionMismatchError,
    NotUnichainError,
    NumericalCheckError,
    SingularMatrixError,
)
from .linalg import solve, solve_checked
from .model import (
    AVERAGE_BIAS, DISCOUNTED, MdpModel, Policy, ValueVector, check_finite_rewards,
    lowest_index_policy, policy_kernel,
)

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ActionVector:
    """(height, coefficients) of one SAP; coefficients sum to -1 exactly."""

    height: float
    coeffs: np.ndarray


@dataclass(frozen=True)
class GeometryConstants:
    """Scalars attached to an evaluated policy: C, the value sum, and gamma."""

    C: float
    v_sigma: float
    gamma: float


@dataclass(frozen=True)
class PolicyVector:
    """(1, v(1), ..., v(n)) for an evaluated policy."""

    values: np.ndarray

    @property
    def lead(self) -> float:
        return 1.0


def mdp_constant(model: MdpModel) -> float:
    """C = n*gamma + (1 - gamma). Equals n at gamma = 1."""
    return model.n * model.gamma + (1.0 - model.gamma)


def action_vector(model: MdpModel, sap_index: int) -> ActionVector:
    """Action vector of one SAP.

    Coefficient i is gamma*(p_i - 1)/C, with an extra -1/C on the SAP's own
    state coordinate. The coefficients sum to -1 for every gamma in (0, 1].
    """
    c = mdp_constant(model)
    coeffs = model.gamma * (model.sap_probs[sap_index] - 1.0) / c
    coeffs[model.sap_states[sap_index]] -= 1.0 / c
    return ActionVector(height=float(model.sap_rewards[sap_index]), coeffs=coeffs)


def evaluate_policy(model: MdpModel, pi: Policy) -> tuple:
    """Solve the shifted value system for ``pi``; returns (PolicyVector, GeometryConstants).

    At gamma < 1, A = B + gamma*E with B = I - gamma*P is nonsingular, so no
    pivot test runs: the eigenvalues of gamma*P lie inside the unit disc, so
    det B > 0; B^-1 1 = 1/(1 - gamma) as P1 = 1, and the matrix determinant
    lemma gives det A = det B * (1 + gamma*n/(1 - gamma)) > 0. At gamma = 1
    a singular system means a multichain kernel: NotUnichainError. Each row's
    residual must be at most RESIDUAL_TOL * (|A||x| + |R|), the backward-error
    bound of ``classic.evaluate_discounted``, or NotUnichainError (gamma = 1)
    or NumericalCheckError is raised. Raises NonFiniteRewardError when a SAP
    that ``pi`` uses has a NaN or infinite reward.
    """
    n, gamma = model.n, model.gamma
    c = mdp_constant(model)
    p = policy_kernel(model, pi)  # checks pi
    check_finite_rewards(model, pi)
    r = model.sap_rewards[pi.choice]
    a = np.eye(n) + gamma * np.ones((n, n)) - gamma * p
    try:
        x = solve_checked(a, r) if model.is_average_reward else solve(a, r)
    except SingularMatrixError as exc:
        raise NotUnichainError("policy evaluation at gamma=1 needs a unichain kernel") from exc
    residual = np.abs(a @ x - r)
    # written so that a NaN residual fails
    if not np.all(residual <= RESIDUAL_TOL * (np.abs(a) @ np.abs(x) + np.abs(r))):
        error = NotUnichainError if model.is_average_reward else NumericalCheckError
        raise error(f"evaluation residual {residual.max():.3e} exceeds its backward-error bound")
    v = c * x
    consts = GeometryConstants(C=c, v_sigma=float(v.sum()), gamma=gamma)
    return PolicyVector(values=v), consts


def advantage(model: MdpModel, sap_index: int, pv: PolicyVector) -> float:
    """Inner product of a SAP's action vector with the policy vector."""
    if np.asarray(pv.values).shape != (model.n,):
        raise ValueError(
            f"policy vector has {np.asarray(pv.values).shape} values, expected ({model.n},)"
        )
    av = action_vector(model, sap_index)
    return float(av.height + av.coeffs @ pv.values)


def advantages(model: MdpModel, pv: PolicyVector) -> np.ndarray:
    """Advantages of every SAP with respect to one evaluated policy."""
    values = np.asarray(pv.values, dtype=np.float64)
    if values.shape != (model.n,):
        raise ValueError(
            f"policy vector has {values.shape} values, expected ({model.n},)"
        )
    vt = values / mdp_constant(model)
    base = model.sap_probs @ vt - vt.sum()
    return model.sap_rewards + model.gamma * base - vt[model.sap_states]


def to_classical_values(
    pv: PolicyVector, consts: GeometryConstants, model: MdpModel
) -> ValueVector:
    """Classical discounted values from the geometric ones (gamma < 1 only)."""
    if model.is_average_reward:
        raise CriterionMismatchError("classical discounted values need gamma < 1")
    c, gamma = consts.C, consts.gamma
    v = np.asarray(pv.values, dtype=np.float64)
    values = v / c + gamma * consts.v_sigma / (c * (1.0 - gamma))
    return ValueVector(values=values, criterion=DISCOUNTED)


def gain(consts: GeometryConstants) -> float:
    """Long-run average reward v_sigma / C (gamma = 1 only)."""
    if consts.gamma != 1.0:
        raise CriterionMismatchError("gain is defined at gamma = 1")
    return consts.v_sigma / consts.C


def bias(
    pv: PolicyVector, consts: GeometryConstants, anchor_state: int = 0
) -> ValueVector:
    """The bias representative with h(anchor_state) = 0 (gamma = 1 only).

    v / C itself solves the average-reward Bellman equation up to an
    additive constant; anchoring picks the reproducible member. Raises
    ValueError for an anchor outside [0, n).
    """
    if consts.gamma != 1.0:
        raise CriterionMismatchError("bias is defined at gamma = 1")
    h = np.asarray(pv.values, dtype=np.float64) / consts.C
    if not 0 <= anchor_state < h.size:
        raise ValueError(f"anchor state {anchor_state} outside [0, {h.size})")
    return ValueVector(values=h - h[anchor_state], criterion=AVERAGE_BIAS)


def normalize_rewards(model: MdpModel, pi_star: Policy) -> MdpModel:
    """Replace every SAP's reward by its advantage with respect to ``pi_star``.

    The result keeps states, SAP structure, transition rows and gamma.
    SAPs of ``pi_star`` end up with reward 0; if ``pi_star`` is optimal all
    other rewards are nonpositive. Advantages of every SAP with respect to
    every evaluable policy are identical in the original and the normalized
    model, which shares every array but the rewards, and the cached tables,
    with ``model``. Raises NonFiniteRewardError when a reward is NaN or infinite.
    """
    check_finite_rewards(model)
    pv, _ = evaluate_policy(model, pi_star)
    return model._with_rewards(advantages(model, pv))


def _gap(adv: np.ndarray, pi_star: Policy) -> float:
    """Negated maximum of ``adv`` over the SAPs outside ``pi_star``; inf if none exist."""
    outside = adv.copy()
    outside[pi_star.choice] = -np.inf
    return float(-outside.max())


def optimal_policy(model: MdpModel) -> classic.OptimalPolicyResult:
    """Optimal deterministic policy with its advantages, which ``normalize_rewards`` would give.

    gamma < 1: Howard policy iteration (Puterman 1994, section 6.4) on the
    advantages, which equal the classical ones. From the lowest-index policy
    a state switches to its best SAP (ties to the lowest index) when that
    beats the current SAP by more than 1e-12. The optimum is unique when its
    gap exceeds 1e-9; ``values`` is V* from the last solve. gamma = 1:
    ``classic.optimal_policy``'s enumeration. Raises NonFiniteRewardError,
    naming the first SAP whose reward is NaN or infinite, before any solve.
    """
    if model.is_average_reward:
        result = classic.optimal_policy(model)  # checks the rewards first
        pv, _ = evaluate_policy(model, result.policy)
        return replace(result, advantages=advantages(model, pv))
    check_finite_rewards(model)
    pi = lowest_index_policy(model)
    for _ in range(10_000):
        pv, consts = evaluate_policy(model, pi)
        adv = advantages(model, pv)
        best, greedy = kernels.greedy_by_state(model, adv)
        improve = best > adv[pi.choice] + 1e-12
        if not improve.any():
            break
        pi = Policy(np.where(improve, greedy, pi.choice))
    else:  # pragma: no cover
        raise NumericalCheckError("policy iteration failed to terminate")
    values = to_classical_values(pv, consts, model).values
    return classic.OptimalPolicyResult(pi, _gap(adv, pi) > 1e-9, values, advantages=adv)
