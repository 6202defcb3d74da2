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

from dataclasses import dataclass

import numpy as np

from .errors import (
    CriterionMismatchError,
    NotUnichainError,
    NumericalCheckError,
    SingularMatrixError,
)
from .linalg import solve_checked
from .model import AVERAGE_BIAS, DISCOUNTED, MdpModel, Policy, ValueVector, policy_kernel

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
    n: int


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
    sap = model.saps[sap_index]
    c = mdp_constant(model)
    coeffs = model.gamma * (sap.probs - 1.0) / c
    coeffs[sap.state] -= 1.0 / c
    return ActionVector(height=sap.reward, coeffs=coeffs)


def evaluate_policy(model: MdpModel, pi: Policy) -> tuple:
    """Solve the shifted value system for ``pi``; returns (PolicyVector, GeometryConstants).

    At gamma = 1 a singular system means the induced chain is not unichain
    and NotUnichainError is raised. At gamma < 1 the system is provably
    nonsingular for stochastic kernels.
    """
    n, gamma = model.n, model.gamma
    c = mdp_constant(model)
    p = policy_kernel(model, pi)  # checks pi
    r = model.sap_rewards[pi.choice]
    a = np.eye(n) + gamma * np.ones((n, n)) - gamma * p
    try:
        x = solve_checked(a, r)
    except SingularMatrixError as exc:
        if model.is_average_reward:
            raise NotUnichainError(
                "policy evaluation at gamma=1 needs a unichain kernel"
            ) from exc
        raise NumericalCheckError(
            "singular evaluation system at gamma < 1 on a stochastic kernel"
        ) from exc
    residual = float(np.max(np.abs(a @ x - r)))
    limit = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(r))))
    if residual > limit:
        if model.is_average_reward:
            raise NotUnichainError(
                f"evaluation residual {residual:.3e} exceeds {limit:.3e}"
            )
        raise NumericalCheckError(f"evaluation residual {residual:.3e} exceeds {limit:.3e}")
    v = c * x
    consts = GeometryConstants(C=c, v_sigma=float(v.sum()), gamma=gamma, n=n)
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
    additive constant; anchoring picks the reproducible member.
    """
    if consts.gamma != 1.0:
        raise CriterionMismatchError("bias is defined at gamma = 1")
    h = np.asarray(pv.values, dtype=np.float64) / consts.C
    return ValueVector(values=h - h[anchor_state], criterion=AVERAGE_BIAS)


def normalize_rewards(model: MdpModel, pi_star: Policy) -> MdpModel:
    """Replace every SAP's reward by its advantage with respect to ``pi_star``.

    The result keeps states, SAP structure, transition rows and gamma.
    SAPs of ``pi_star`` end up with reward 0; if ``pi_star`` is optimal all
    other rewards are nonpositive. Advantages of every SAP with respect to
    every evaluable policy are identical in the original and the normalized
    model.
    """
    pv, _ = evaluate_policy(model, pi_star)
    new_rewards = advantages(model, pv)
    saps = tuple(
        type(sap)(state=sap.state, reward=float(new_rewards[i]), probs=sap.probs)
        for i, sap in enumerate(model.saps)
    )
    return MdpModel(n=model.n, saps=saps, gamma=model.gamma)
