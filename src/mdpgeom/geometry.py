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
    check_finite_rewards, check_policy, lowest_index_policy, policy_count,
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

    The one-policy case of ``_evaluate``, after checking ``pi`` and that its SAPs' rewards are finite.
    """
    check_policy(model, pi)
    check_finite_rewards(model, pi)
    return _evaluated(model, mdp_constant(model) * _evaluate(model, pi.choice[None])[0])


def _evaluate(model: MdpModel, choices: np.ndarray) -> np.ndarray:
    """x = v / C of each policy in a (k, n) stack of SAP choices, one shifted solve per row.

    At gamma < 1, A = B + gamma*E with B = I - gamma*P is nonsingular, so no
    pivot test runs: the eigenvalues of gamma*P lie inside the unit disc, so
    det B > 0; B^-1 1 = 1/(1 - gamma) as P1 = 1, and the matrix determinant
    lemma gives det A = det B * (1 + gamma*n/(1 - gamma)) > 0. At gamma = 1
    a singular system means a multichain kernel: NotUnichainError. Each row's
    residual must be at most RESIDUAL_TOL * (|A||x| + |R|), the backward-error
    bound of ``classic.evaluate_discounted``, or NotUnichainError (gamma = 1)
    or NumericalCheckError is raised. A row's bits do not depend on the
    other rows.
    """
    n, gamma = model.n, model.gamma
    shift = np.full((n, n), gamma)  # I + gamma*E, as 1.0 + gamma on the diagonal
    shift.flat[:: n + 1] = 1.0 + gamma
    a = shift - gamma * model.sap_probs[choices]
    r = model.sap_rewards[choices]
    linear = solve_checked if model.is_average_reward else solve
    x = np.empty(r.shape)
    try:
        for i in range(x.shape[0]):
            x[i] = linear(a[i], r[i])
    except SingularMatrixError as exc:
        raise NotUnichainError("policy evaluation at gamma=1 needs a unichain kernel") from exc
    # one matrix-vector product per row: a 2-D product of stacked rows rounds differently
    residual = np.abs((a @ x[..., None])[..., 0] - r)
    bound = RESIDUAL_TOL * ((np.abs(a) @ np.abs(x)[..., None])[..., 0] + np.abs(r))
    if not (residual <= bound).all():  # written so that a NaN residual fails
        error = NotUnichainError if model.is_average_reward else NumericalCheckError
        raise error(f"evaluation residual {residual.max():.3e} exceeds its backward-error bound")
    return x


def _evaluated(model: MdpModel, v: np.ndarray) -> tuple:
    """(PolicyVector, GeometryConstants) of one policy's values ``v``."""
    return PolicyVector(v), GeometryConstants(mdp_constant(model), float(v.sum()), model.gamma)


def advantage(model: MdpModel, sap_index: int, pv: PolicyVector) -> float:
    """Inner product of a SAP's action vector with the policy vector."""
    if np.asarray(pv.values).shape != (model.n,):
        raise ValueError(f"policy vector has {np.asarray(pv.values).shape} values, expected ({model.n},)")
    av = action_vector(model, sap_index)
    return float(av.height + av.coeffs @ pv.values)


def advantages(model: MdpModel, pv: PolicyVector) -> np.ndarray:
    """Advantages of every SAP with respect to one evaluated policy."""
    values = np.asarray(pv.values, dtype=np.float64)
    if values.shape != (model.n,):
        raise ValueError(f"policy vector has {values.shape} values, expected ({model.n},)")
    return _advantages(model, values)


def _advantages(model: MdpModel, v: np.ndarray) -> np.ndarray:
    """Advantages of every SAP against the values ``v`` of one policy (n,) or a stack (k, n)."""
    vt = v / mdp_constant(model)
    # one matrix-vector product per row, as for a lone policy
    base = (model.sap_probs @ vt[..., None])[..., 0] - vt.sum(axis=-1, keepdims=True)
    return model.sap_rewards + model.gamma * base - vt.take(model.sap_states, axis=-1)


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


def _howard(
    model: MdpModel, choices: np.ndarray, masked: np.ndarray | None = None, limit: float | None = None
):
    """Howard's loop on the advantages over a (k, n) stack of policies, one round for all.

    Each round evaluates every policy, then a state switches to its best SAP
    (ties to the lowest index) when that beats its current one by more than
    1e-12; SAPs that the (k, m) mask ``masked`` marks are never picked. A run
    ends, and leaves the stack, when no state switches. Once every run has
    ended, returns (choices, v, advantages) of the runs that ended last: the
    optimum's, for one row. Returns None as soon as a gamma = 1 iterate is
    multichain or fails its evaluation, or a gain (the sum of v / C) is not
    below ``limit``, and after 10,000 rounds.
    """
    average, c = model.is_average_reward, mdp_constant(model)
    for _ in range(10_000):
        if average and np.any(_classify(model.sap_probs[choices])[0] != 1):
            return None
        try:
            x = _evaluate(model, choices)
        except NotUnichainError:  # raised at gamma = 1 only
            return None
        if limit is not None and not (x.sum(axis=1) < limit).all():  # written so that NaN fails
            return None
        v = c * x
        adv = _advantages(model, v)
        scores = adv if masked is None else np.where(masked, -np.inf, adv)
        best, greedy = kernels.greedy_by_state(model, scores)
        improve = best > adv[np.arange(len(choices))[:, None], choices] + 1e-12
        going = improve.any(axis=1)
        if not going.any():
            return choices, v, adv
        choices = np.where(improve, greedy, choices)[going]
        if masked is not None:
            masked = masked[going]
    return None


def _rivals_below(model: MdpModel, pi: Policy, limit: float) -> bool:
    """Whether every policy other than ``pi`` has a gain below ``limit`` (gamma = 1).

    Any other policy uses some SAP a outside ``pi``. For each such a, Howard's
    loop restricted to the policies that use a (the other SAPs at a's state
    masked), warm-started from ``pi`` with a switched in, ends at the best
    gain among them: its advantages bound every such policy's gain. The runs
    go in one stack through ``_howard``, which fails as soon as a gain
    reaches ``limit`` (a run's gain only rises).
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
    return _howard(model, choices, masked, limit) is not None


def optimal_policy(model: MdpModel) -> classic.OptimalPolicyResult:
    """Optimal deterministic policy with its advantages, which ``normalize_rewards`` would give.

    Howard policy iteration (Puterman 1994, sections 6.4 and 8.6) on the
    advantages, which equal the classical ones at gamma < 1 and r + P h - h - g
    at gamma = 1: the one-row run of ``_howard`` from the lowest-index policy.
    The result carries its last round's advantages, policy vector and constants.
    A search still running after 10,000 rounds hands over to enumeration.

    gamma < 1: the optimum is unique when its gap exceeds 1e-9; ``values``
    is V* from the last solve.

    gamma = 1: every iterate must be unichain. The optimum is unique when
    every other policy's gain is more than 1e-9 + 1e-9 * max(1, max|r|)
    below its own, which one stacked run of ``_howard`` checks
    (``_rivals_below``); ``gain`` is ``classic.evaluate_average``'s, which
    has enumeration's bits. A multichain iterate, a multichain policy in the check, a failed
    check or a failed gain/bias solve hand the search to
    ``classic.optimal_policy``'s enumeration, which is exact and picks the
    lexicographic-first optimum; ``skipped_multichain`` is its count, and 0
    when no enumeration ran. Above ``ENUMERATION_CAP`` policies a failed
    check returns Howard's policy with ``unique=False``; the other cases
    raise EnumerationTooLargeError (multichain policy iteration, Puterman
    section 9.2, is not implemented).

    Raises NonFiniteRewardError, naming the first SAP whose reward is NaN or
    infinite, before any solve.
    """
    check_finite_rewards(model)
    run = _howard(model, lowest_index_policy(model).choice[None])
    if run is not None:
        choices, v, adv = run[0][0], run[1][0], run[2][0]  # its one row
        pi, (pv, consts) = Policy(choices), _evaluated(model, v)
        if not model.is_average_reward:
            values = to_classical_values(pv, consts, model).values
            return classic.OptimalPolicyResult(
                pi, _gap(adv, pi) > 1e-9, values, advantages=adv, policy_vector=pv, constants=consts
            )
        # the margin covers the rounding that the gain/bias residual bound allows
        margin = 1e-9 * max(1.0, float(np.abs(model.sap_rewards).max()))
        unique = _rivals_below(model, pi, gain(consts) - 1e-9 - margin)
        if unique or policy_count(model) > ENUMERATION_CAP:
            try:
                rho = classic.evaluate_average(model, pi).gain  # enumeration's bits
            except NotUnichainError:
                pass
            else:
                return classic.OptimalPolicyResult(
                    pi, unique, gain=rho, advantages=adv, policy_vector=pv, constants=consts
                )
    result = classic.optimal_policy(model)
    pv, consts = evaluate_policy(model, result.policy)
    return replace(result, advantages=advantages(model, pv), policy_vector=pv, constants=consts)
