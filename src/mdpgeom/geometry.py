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
from .chains import _classify
from .errors import (
    CriterionMismatchError,
    NotUnichainError,
    NumericalCheckError,
    SingularMatrixError,
)
from .linalg import solve, solve_checked
from .model import (
    AVERAGE_BIAS, DISCOUNTED, ENUMERATION_CAP, MdpModel, Policy, ValueVector,
    check_finite_rewards, lowest_index_policy, policy_count, policy_kernel,
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


def _policy_iteration(model: MdpModel, pi: Policy):
    """Howard's loop on the advantages from ``pi``: (pi, pv, consts, adv) of its last round.

    Each round evaluates the policy, then a state switches to its best SAP
    (ties to the lowest index) when that beats the current one by more than
    1e-12. At gamma = 1 it returns None when an iterate's kernel is
    multichain or fails its evaluation, or when 10,000 rounds pass.
    """
    average = model.is_average_reward
    for _ in range(10_000):
        if average and _classify(model.sap_probs[pi.choice])[0] != 1:
            return None
        try:
            pv, consts = evaluate_policy(model, pi)
        except NotUnichainError:  # raised at gamma = 1 only
            return None
        adv = advantages(model, pv)
        best, greedy = kernels.greedy_by_state(model, adv)
        improve = best > adv[pi.choice] + 1e-12
        if not improve.any():
            return pi, pv, consts, adv
        pi = Policy(np.where(improve, greedy, pi.choice))
    if average:
        return None
    raise NumericalCheckError("policy iteration failed to terminate")  # pragma: no cover


def _rivals_below(model: MdpModel, pi: Policy, limit: float) -> bool:
    """Whether every policy other than ``pi`` has a gain below ``limit`` (gamma = 1).

    Any other policy uses some SAP a outside ``pi``. For each such a, Howard's
    loop restricted to the policies that use a (the other SAPs at a's state
    masked), warm-started from ``pi`` with a switched in, ends at the best
    gain among them: its advantages bound every such policy's gain. The runs
    go in one stack, a round at a time, until each ends. False as soon as a
    gain reaches ``limit`` (a run's gain only rises), or a run meets a
    multichain kernel, a singular solve or a residual above its bound.
    """
    states = model.sap_states
    outside = np.ones(model.m, dtype=bool)
    outside[pi.choice] = False
    saps = np.flatnonzero(outside)
    runs = np.arange(saps.size)
    choices = np.tile(pi.choice, (saps.size, 1))
    choices[runs, states[saps]] = saps
    masked = states == states[saps, None]
    masked[runs, saps] = False
    shift = np.eye(model.n) + 1.0  # I + E
    for _ in range(10_000):
        if not choices.size:
            return True
        p, r = model.sap_probs[choices], model.sap_rewards[choices]
        if np.any(_classify(p)[0] != 1):
            return False
        a = shift - p
        try:  # x = v / C of each run's policy
            x = np.array([solve_checked(ai, ri) for ai, ri in zip(a, r)])
        except SingularMatrixError:
            return False
        ax = (a @ x[..., None])[..., 0]
        bound = RESIDUAL_TOL * ((np.abs(a) @ np.abs(x)[..., None])[..., 0] + np.abs(r))
        gains = x.sum(axis=1)
        # written so that NaN fails
        if not (np.all(np.abs(ax - r) <= bound) and np.all(gains < limit)):
            return False
        adv = model.sap_rewards + (x @ model.sap_probs.T - gains[:, None]) - x[:, states]
        best, greedy = kernels.greedy_by_state(model, np.where(masked, -np.inf, adv))
        improve = best > np.take_along_axis(adv, choices, axis=1) + 1e-12
        going = improve.any(axis=1)
        choices, masked = np.where(improve, greedy, choices)[going], masked[going]
    return False


def _optimal_average(model: MdpModel) -> classic.OptimalPolicyResult:
    # the margin covers the rounding that the gain/bias residual bound allows
    run = _policy_iteration(model, lowest_index_policy(model))
    if run is not None:
        pi, pv, consts, adv = run
        margin = 1e-9 * max(1.0, float(np.abs(model.sap_rewards).max()))
        unique = _rivals_below(model, pi, gain(consts) - 1e-9 - margin)
        if unique or policy_count(model) > ENUMERATION_CAP:
            p, r = model.sap_probs[pi.choice], model.sap_rewards[pi.choice]
            try:
                gains, _ = classic._gain_bias(p[None], r[None])  # enumeration's bits
            except NotUnichainError:
                pass
            else:
                return classic.OptimalPolicyResult(
                    pi, unique, gain=float(gains[0]), advantages=adv, policy_vector=pv, constants=consts
                )
    result = classic.optimal_policy(model)
    pv, consts = evaluate_policy(model, result.policy)
    return replace(result, advantages=advantages(model, pv), policy_vector=pv, constants=consts)


def optimal_policy(model: MdpModel) -> classic.OptimalPolicyResult:
    """Optimal deterministic policy with its advantages, which ``normalize_rewards`` would give.

    Howard policy iteration (Puterman 1994, sections 6.4 and 8.6) on the
    advantages, which equal the classical ones at gamma < 1 and r + P h - h - g
    at gamma = 1. From the lowest-index policy a state switches to its best
    SAP (ties to the lowest index) when that beats the current SAP by more
    than 1e-12. The result carries the last round's advantages, policy vector
    and constants.

    gamma < 1: the optimum is unique when its gap exceeds 1e-9; ``values``
    is V* from the last solve.

    gamma = 1: every iterate must be unichain. The optimum is unique when
    every other policy's gain is more than 1e-9 + 1e-9 * max(1, max|r|)
    below its own, which a restricted run per SAP outside it checks
    (``_rivals_below``); ``gain`` has the bits of ``classic``'s gain/bias
    solve. A multichain iterate, a multichain policy in a restricted run, a
    failed check, a failed gain/bias solve or 10,000 rounds hand the search
    to ``classic.optimal_policy``'s enumeration, which is exact and picks the
    lexicographic-first optimum; ``skipped_multichain`` is its count, and 0
    when no enumeration ran. Above ``ENUMERATION_CAP`` policies a failed
    check, restricted runs included, returns Howard's policy with
    ``unique=False``; the other cases raise EnumerationTooLargeError
    (multichain policy iteration, Puterman section 9.2, is not implemented).

    Raises NonFiniteRewardError, naming the first SAP whose reward is NaN or
    infinite, before any solve.
    """
    check_finite_rewards(model)
    if model.is_average_reward:
        return _optimal_average(model)
    pi, pv, consts, adv = _policy_iteration(model, lowest_index_policy(model))
    values = to_classical_values(pv, consts, model).values
    return classic.OptimalPolicyResult(
        pi, _gap(adv, pi) > 1e-9, values, advantages=adv, policy_vector=pv, constants=consts
    )
