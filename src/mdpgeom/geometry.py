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

from . import classic, kernels
from .chains import _classify, _levels
from .errors import (
    CriterionMismatchError,
    NotUnichainError,
    NumericalCheckError,
    SingularMatrixError,
)
from .linalg import solve, solve_checked
from .model import (
    AVERAGE_BIAS, DISCOUNTED, MdpModel, Policy, ValueVector,
    check_finite_rewards, check_policy, lowest_index_policy,
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
    """x = v / C of each policy in a (k, n) stack of SAP choices of ``model``; raises the
    first row's error of ``_solve``."""
    x, errors = _solve(model, model.sap_probs[choices], model.sap_rewards[choices])
    _raise_first(errors)
    return x


def _solve(model: MdpModel, kernels: np.ndarray, rewards: np.ndarray) -> tuple:
    """(x, errors): x = v / C for each policy of a stack of models shaped like ``model``,
    given its (k, n, n) kernel and (k, n) rewards, one shifted solve per row.

    At gamma < 1, A = B + gamma*E with B = I - gamma*P is nonsingular, so no
    pivot test runs: the eigenvalues of gamma*P lie inside the unit disc, so
    det B > 0; B^-1 1 = 1/(1 - gamma) as P1 = 1, and the matrix determinant
    lemma gives det A = det B * (1 + gamma*n/(1 - gamma)) > 0. At gamma = 1
    a singular system means a multichain kernel: NotUnichainError. Each row's
    residual must be at most RESIDUAL_TOL * (|A||x| + |R|), the backward-error
    bound of ``classic.evaluate_discounted``, or NotUnichainError (gamma = 1)
    or NumericalCheckError is its error. ``errors[i]`` is None or the error of
    row i, whose x is then 0. A row's bits and its error do not depend on the
    other rows.

    ``kernels`` is consumed: A = (I + gamma*E) - gamma*P is built in it, with
    the rounding of that difference on every entry, gamma - gamma*p off the
    diagonal and (1 + gamma) - gamma*p on it, and then |A| replaces A. So a
    caller passes a fresh stack, such as rows gathered by fancy indexing.
    """
    gamma = model.gamma
    a = kernels
    a *= gamma
    diagonal = np.einsum("...ii->...i", a)  # a writeable view of each diagonal
    shifted = (1.0 + gamma) - diagonal
    np.subtract(gamma, a, out=a)
    diagonal[...] = shifted
    linear = solve_checked if model.is_average_reward else solve
    x = np.zeros(rewards.shape)
    errors = [None] * len(x)
    for i in range(len(x)):
        try:
            x[i] = linear(a[i], rewards[i])
        except SingularMatrixError as exc:
            errors[i] = _caused(NotUnichainError("policy evaluation at gamma=1 needs a unichain kernel"), exc)
        except Exception as exc:  # the row's own error, raised in row order by the caller
            errors[i] = exc
    # one matrix-vector product per row: a 2-D product of stacked rows rounds differently
    residual = np.abs((a @ x[..., None])[..., 0] - rewards)
    np.abs(a, out=a)
    bound = RESIDUAL_TOL * ((a @ np.abs(x)[..., None])[..., 0] + np.abs(rewards))
    within = residual <= bound
    if not within.all():  # written so that a NaN residual fails
        error = NotUnichainError if model.is_average_reward else NumericalCheckError
        for i in (~within.all(axis=-1)).nonzero()[0].tolist():
            if errors[i] is None:
                errors[i] = error(f"evaluation residual {residual[i].max():.3e} exceeds its backward-error bound")
            x[i] = 0.0
    return x, errors


def _caused(error: Exception, cause: Exception) -> Exception:
    """``error`` with ``cause`` as its cause, as ``raise error from cause`` sets it."""
    error.__cause__ = cause
    return error


def _raise_first(results) -> None:
    """Raise the first exception in ``results``, if any."""
    for result in results:
        if isinstance(result, Exception):
            raise result


def _stacked(arrays: list) -> np.ndarray:
    """The arrays stacked along a new first axis; a lone array is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


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
    return _stack_advantages(model, model.sap_probs, model.sap_rewards, v)


def _stack_advantages(model: MdpModel, probs, rewards, v: np.ndarray) -> np.ndarray:
    """_advantages with the transition rows ``probs`` and rewards ``rewards`` of a model
    shaped like ``model``, or of a (k, m, n), (k, m) stack of them, one row per row of ``v``."""
    vt = v / mdp_constant(model)
    # one matrix-vector product per row, as for a lone policy
    base = (probs @ vt[..., None])[..., 0] - vt.sum(axis=-1, keepdims=True)
    return rewards + model.gamma * base - vt.take(model.sap_states, axis=-1)


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
    SAPs of ``pi_star`` end up with reward 0. All other rewards are
    nonpositive when ``pi_star`` maximizes every state's advantage: an optimal
    policy at gamma < 1, and at gamma = 1 one that ``optimal_policy`` reports
    unique. A tied optimum at gamma = 1 keeps the optimal gain but not the
    bias on the states where it differs from the others, so some rewards can
    be positive. Advantages of every SAP with respect to
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


def _howard(models, choice: np.ndarray) -> list:
    """Howard's loop on the advantages of each of ``models``, from the policies of the
    (k, n) SAP ids ``choice``, one row per model, all rows in lockstep.

    The models share n, gamma and the SAP layout. Each round evaluates every
    row's policy (``_solve``, one solve per row), then a state switches to its
    best SAP (ties to the lowest index) when that beats its current one by more
    than 1e-12. A row retires in its first round in which no state switches,
    with (choice, v, advantages, recurrent) of that round; ``recurrent`` masks
    the policy's recurrent states at gamma = 1 and is None at gamma < 1. At
    gamma = 1 ``_unichain`` turns a multichain iterate into a unichain one
    before it is evaluated, or raises NotUnichainError when the optimum is
    multichain. A row also retires with the exception its search raises:
    that one, NumericalCheckError when a unichain iterate fails its
    evaluation, and NumericalCheckError after 10,000 rounds. Returns one
    result or exception per model, in order; a row's bits do not depend on
    the others.

    Advantages come from one matrix-vector product per row of the stacked
    transition rows, and selection from one ``kernels._select``
    through the stack's tables (``kernels._stack_tables``). Kernels, rewards
    and current advantages are gathered at the flat positions j*m + a of the
    stack row j's SAPs a. A lone model is not copied: its stack views its
    arrays, its tables are its ``_sweep_blocks``, and its positions are its
    SAP ids. ``order[j]`` is the model of stack row j; the rows left after a
    round move up.
    """
    head, k = models[0], len(models)
    average, c = head.is_average_reward, mdp_constant(head)
    probs, rewards = _stacked([m.sap_probs for m in models]), _stacked([m.sap_rewards for m in models])
    flat_probs, flat_rewards = probs.reshape(-1, head.n), rewards.reshape(-1)  # views, by flat position
    if k > 1:
        tables = all_tables = kernels._stack_tables(head, k)
        offsets = head.m * np.arange(k)[:, None]  # of each stack row's SAPs in the flat stack
    else:
        tables = head._sweep_blocks
    order, last, recurrent = list(range(k)), [None] * k, [None] * k
    results, choice = [None] * k, np.array(choice)
    for _ in range(10_000):
        live = len(order)
        errors = [None] * live
        if average:
            for j, i in enumerate(order):
                try:
                    choice[j], recurrent[j] = _unichain(models[i], choice[j], last[j])
                except Exception as exc:  # the row's own error, raised in row order by the caller
                    errors[j] = exc
        at = choice + offsets if live > 1 else choice
        x, solved = _solve(head, flat_probs[at], flat_rewards[at])
        if any(solved):
            for j, exc in enumerate(solved):
                if isinstance(exc, NotUnichainError):  # the iterate is unichain, so it failed numerically
                    exc = _caused(
                        NumericalCheckError(f"policy iteration could not evaluate a unichain policy: {exc}"), exc
                    )
                errors[j] = errors[j] or exc
        v = c * x
        adv = _stack_advantages(head, probs, rewards, v)
        greedy = np.empty(v.size, dtype=np.int64)
        best = kernels._select(adv.reshape(-1), tables, v.size, greedy).reshape(v.shape)
        improve = best > adv.take(at) + 1e-12
        switching = improve.any(axis=-1).tolist()
        retiring = any(errors) or not all(switching)
        if retiring:
            keep = []
            for j, i in enumerate(order):
                if errors[j] is not None:
                    results[i] = errors[j]
                elif not switching[j]:
                    results[i] = choice[j], v[j], adv[j], recurrent[j]
                else:
                    keep.append(j)
            if not keep:
                return results
        if average:
            last = [(choice[j], float(x[j].sum())) for j in range(live)]  # the policies and gains, v_sigma / C
        choice = np.where(improve, greedy.reshape(v.shape), choice)
        if retiring:
            probs, rewards, choice = probs[keep], rewards[keep], choice[keep]
            flat_probs, flat_rewards = probs.reshape(-1, head.n), rewards.reshape(-1)
            order, last, recurrent = ([a[j] for j in keep] for a in (order, last, recurrent))
            tables, offsets = kernels._first_rows(all_tables, len(keep)), offsets[: len(keep)]
    for i in order:
        results[i] = NumericalCheckError("policy iteration did not end within 10,000 rounds")
    return results


def _unichain(model: MdpModel, choice: np.ndarray, last: tuple | None) -> tuple:
    """(choice, recurrent mask) of a unichain policy at least as good as ``choice`` (gamma = 1).

    A unichain ``choice`` is returned as it is. ``last`` is None for the
    start, else (policy, gain) of the unichain iterate that ``choice``
    improves on. Let B be the states that every state can reach along the
    moves of all SAPs (``_sink``); every unichain policy's closed class lies
    in B. A closed class of ``choice`` other than ``last``'s contains a
    switched state, and its stationary law weights advantages that are 0 or
    above 1e-12, so it earns more than ``last``. If such a class lies
    outside B, the switches outside B are undone; when none are left, ``last``
    is optimal on B, whose states no SAP leaves, so no unichain policy earns
    more than it while that class does: the optimum is multichain and
    NotUnichainError says so. Otherwise the best closed class in B keeps its
    SAPs and every other state moves toward it (``_toward``).
    """
    p = model.sap_probs[choice]
    count, recurrent = _classify(p)
    if count == 1:
        return choice, recurrent
    sink = _sink(model)
    # each recurrent state reaches exactly its class: keep each class at its lowest state
    heads = np.flatnonzero(recurrent)
    reach = _levels((p > 0.0).astype(np.float32), heads[:, None] == np.arange(model.n)) >= 0
    classes = list(reach[reach.argmax(axis=1) == heads])
    outside = [cls for cls in classes if not (cls & sink).any()]
    if last is not None and outside:
        kept = np.where(sink, choice, last[0])
        if not np.array_equal(kept, last[0]):
            return _unichain(model, kept, None)  # its new classes contain a switched state in B
        beyond = max(_class_gain(model, choice, cls) for cls in outside)
        if not beyond > last[1] + 1e-9 * max(1.0, float(np.abs(model.sap_rewards).max())):
            raise NumericalCheckError(
                f"policy iteration at gamma=1 met a multichain policy that earns {beyond!r}, "
                f"within rounding of the gain {last[1]!r} of the policy it improves on"
            )
        raise NotUnichainError(
            f"the gamma=1 optimum is multichain: a policy earns {beyond:.6g} on a closed class that not "
            f"every state can reach, and no unichain policy earns more than {last[1]:.6g}"
        )
    inside = (cls for cls in classes if (cls & sink).any())
    best = max(inside, key=lambda cls: _class_gain(model, choice, cls))
    return _toward(model, choice, best), best


def _sink(model: MdpModel) -> np.ndarray:
    """Mask of the states that every state can reach along the moves of all SAPs: the one closed
    class of the support graph. When it has several, no policy is unichain: NotUnichainError."""
    count, sink = _classify(_successors(model))
    if count != 1:
        raise NotUnichainError(
            f"the gamma=1 optimum is multichain: no policy is unichain, as the moves of all SAPs "
            f"leave {count} closed classes"
        )
    return sink


def _class_gain(model: MdpModel, choice: np.ndarray, cls: np.ndarray) -> float:
    """Average reward of the policy ``choice`` on its closed class ``cls``: its stationary law mu
    solves mu (I + E - Q) = 1 for the class's kernel Q, nonsingular as Q is irreducible."""
    q = model.sap_probs[choice[cls]][:, cls]
    mu = solve_checked((np.eye(len(q)) + 1.0 - q).T, np.ones(len(q)))
    return float(mu @ model.sap_rewards[choice[cls]])


def _toward(model: MdpModel, choice: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``choice`` on the states ``target`` masks, which every state must be able to reach;
    every other state takes its lowest SAP with a successor one step closer to them."""
    level = _levels(_successors(model).T.astype(np.float32), target[None])[0]
    own = level[model.sap_states]
    step = np.flatnonzero(((model.sap_probs > 0.0) & (level < own[:, None])).any(axis=1))
    states, first = np.unique(model.sap_states[step], return_index=True)
    choice = choice.copy()
    choice[states] = step[first]
    return choice


def _successors(model: MdpModel) -> np.ndarray:
    """(n, n) mask of the moves s -> t that some SAP of state s makes with positive probability."""
    edges = np.zeros((model.n, model.n), dtype=bool)
    np.logical_or.at(edges, model.sap_states, model.sap_probs > 0.0)
    return edges


def _tied(model: MdpModel, pi: Policy, recurrent: np.ndarray) -> bool:
    """Whether a policy other than ``pi`` has ``pi``'s recurrent states as its
    only closed class and ``pi``'s SAPs there, which ties ``pi``'s gain exactly.

    Such a policy exists iff some SAP a other than ``pi``'s at a transient
    state s has a successor that can reach the recurrent states without
    entering s, every state free to pick any SAP.
    """
    transient = np.flatnonzero(~recurrent)
    if transient.size == 0:
        return False
    barred = transient[:, None] == np.arange(model.n)  # row i never enters transient[i]
    into = _successors(model).T.astype(np.float32)
    reach = _levels(into, np.broadcast_to(recurrent, barred.shape), barred) >= 0
    others = np.ones(model.m, dtype=bool)
    others[pi.choice] = False
    saps = np.flatnonzero(others & ~recurrent[model.sap_states])
    rows = np.searchsorted(transient, model.sap_states[saps])
    return bool(((model.sap_probs[saps] > 0.0) & reach[rows]).any())


def _first_tied(model: MdpModel, pi: Policy, recurrent: np.ndarray) -> Policy:
    """The lexicographic-first policy tied with ``pi`` as ``_tied`` defines ties.

    The recurrent states keep ``pi``'s SAPs. Each transient state, in index
    order, takes its lowest SAP with a successor that can still reach them
    without entering it, earlier states fixed and later ones free.
    """
    choice, into = pi.choice.copy(), _successors(model).T.astype(np.float32)
    for s in np.flatnonzero(~recurrent):
        reach = _levels(into, recurrent[None], np.arange(model.n) == s)[0] >= 0
        saps = model.saps_at(s)
        choice[s] = saps[((model.sap_probs[saps] > 0.0) & reach).any(axis=1).argmax()]
        into[:, s] = model.sap_probs[choice[s]] > 0.0
    return Policy(choice)


def optimal_policy(model: MdpModel) -> classic.OptimalPolicyResult:
    """Optimal deterministic policy with its advantages, which ``normalize_rewards`` would give.

    Howard policy iteration (Puterman 1994, sections 6.4 and 8.6) on the
    advantages, which equal the classical ones at gamma < 1 and r + P h - h - g
    at gamma = 1: ``_howard`` from the lowest-index policy. The result carries
    its last round's advantages, policy vector and constants. A search still
    running after 10,000 rounds raises NumericalCheckError.

    gamma < 1: the optimum is unique when its gap exceeds 1e-9; ``values``
    is V* from the last solve.

    gamma = 1: every iterate is unichain (``_unichain``). When the run ends,
    no SAP's advantage exceeds its state's own SAP's, which is 0 up to
    rounding, by more than 1e-12, so (g, h) solve the average-reward
    optimality equation and pi is gain-optimal against every policy,
    multichain ones included (Puterman 1994, section 8.4). Where a multichain
    policy earns more than every unichain one from some start state, the
    optimum is multichain and NotUnichainError says so (multichain policy
    iteration, Puterman section 9.2, is not implemented). pi is unique when
    its gap exceeds 1e-9 and no other policy shares its recurrent class and
    its SAPs there (``_tied``). Among such ties the result is the
    lexicographic-first one (``_first_tied``), evaluated once, which is
    enumeration's choice. ``gain`` is ``classic.evaluate_average``'s. So the
    advantages, the rewards ``normalize_rewards`` gives, are nonpositive up to
    1e-12 when ``unique`` is true; the first tied policy has the optimal gain
    but not the bias of Howard's pi where the two differ, and its own
    advantages can be positive.

    Raises NonFiniteRewardError, naming the first SAP whose reward is NaN or
    infinite, before any solve.
    """
    check_finite_rewards(model)
    found = _howard([model], lowest_index_policy(model).choice[None])[0]
    if isinstance(found, Exception):
        raise found
    pi, unique, v, adv = _optimum(model, *found)
    pv, consts = _evaluated(model, v)
    if not model.is_average_reward:
        values = to_classical_values(pv, consts, model).values
        return classic.OptimalPolicyResult(pi, unique, values, advantages=adv, policy_vector=pv, constants=consts)
    try:
        rho = classic.evaluate_average(model, pi).gain
    except NotUnichainError as exc:  # pi is unichain, so a solve failed numerically
        raise _evaluation_failed(exc) from exc
    return classic.OptimalPolicyResult(pi, unique, gain=rho, advantages=adv, policy_vector=pv, constants=consts)


def _optimum(model: MdpModel, choice, v, adv, recurrent) -> tuple:
    """(pi, unique, v, adv) of the optimum from the end of ``_howard``'s run on ``model``:
    its policy ``choice``, values ``v``, advantages ``adv`` and, at gamma = 1,
    ``recurrent`` mask. At gamma = 1 a tied optimum gives way to its first tied
    policy, evaluated once."""
    pi = Policy(choice)
    if not model.is_average_reward:
        return pi, _gap(adv, pi) > 1e-9, v, adv
    tied = _tied(model, pi, recurrent)
    if tied:
        pi = _first_tied(model, pi, recurrent)
        try:
            v = mdp_constant(model) * _evaluate(model, pi.choice[None])[0]
        except NotUnichainError as exc:  # pi is unichain, so a solve failed numerically
            raise _evaluation_failed(exc) from exc
        adv = _advantages(model, v)
    return pi, not tied and _gap(adv, pi) > 1e-9, v, adv


def _evaluation_failed(exc: NotUnichainError) -> NumericalCheckError:
    return NumericalCheckError(f"the evaluation of the gamma=1 optimum failed: {exc}")
