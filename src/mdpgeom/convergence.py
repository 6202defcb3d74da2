"""Advantage-based value iteration on the geometric values and its span analysis.

The update per state is v_{t+1}(s) = v_t(s) + C * max_a <a_plus, (1, v_t)>,
equivalently scaled-value iteration with a constant shift that the span
seminorm ignores. On a reward-normalized model with a unique optimal policy
whose kernel has an entrywise-positive power, the span of the iterate after
N steps contracts strictly better than gamma^N; this module computes the
constants of that bound (delta, omega, N, phi, tau) from a realized trace
and checks the inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import chains, geometry, kernels
from .chains import PrimitivityCertificate, classify_chain  # noqa: F401, mdpbench/test_bench.py reads it here
from .errors import AssumptionViolatedError, NonFiniteRewardError, NotUnichainError, ValidationFailedError
from .geometry import _gap, _raise_first, mdp_constant
from .model import MdpModel, Policy, _check_finite, check_finite_rewards, lowest_index_policy

SPAN_FLOOR = 1e-13
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ContractionConstants:
    """Constants of the N-step span bound, computed from a realized trace.

    phi and tau are None when the trace hit a numerically zero span before
    supplying N step inputs ("converged early"). degenerate marks tau
    outside (0, 1), which the bound does not interpret.
    """

    delta: float
    omega: float
    exponent: int
    phi: float | None
    tau: float | None
    degenerate: bool
    converged_early: bool


@dataclass(frozen=True)
class AssumptionDiagnostics:
    unique: bool
    unichain: bool
    aperiodic: bool

    @property
    def all_pass(self) -> bool:
        return self.unique and self.unichain and self.aperiodic


@dataclass
class ViRun:
    """Span trace of one advantage-VI run plus the greedy policy at each iterate.

    ``greedy`` is an int64 array of shape (len(spans), n): row t holds the
    greedy SAP id of each state at iterate t. It is None for a run that
    records its spans only.
    """

    spans: list
    greedy: np.ndarray | None
    final_values: np.ndarray
    early_stopped: bool

    @property
    def ratios(self) -> list:
        """One float per step, spans[t + 1] / spans[t]; a step runs only from a span
        of at least SPAN_FLOOR, so no ratio divides by zero."""
        return _ratios(self.spans)


def _ratios(spans: list) -> list:
    return [new / prev for prev, new in zip(spans, spans[1:])]


@dataclass
class ConvergenceReport:
    """Result of verify_contraction.

    ``greedy_policies`` is the verified run's int64 array of shape
    (len(span_trace), n): row t holds the greedy SAP ids at iterate t. A
    sweep trial's run records spans only, and its ``greedy_policies`` is None.
    ``per_step_ratios`` are the verified run's ``ViRun.ratios``, floats, and
    ``unnormalized_span_trace`` is the span trace of the same run on the raw
    ``model``. Both are computed on their first access, so a caller that
    never reads them (a sweep trial) never computes them; the raw run
    records spans only, no greedy picks. Without an optimal policy the
    verified run already is the raw run, and its trace is reused.
    """

    gamma: float
    v0: tuple
    diagnostics: AssumptionDiagnostics
    pi_star: tuple | None
    exponent: int | None
    span_trace: list
    greedy_policies: np.ndarray | None
    constants: ContractionConstants | None
    bound_satisfied: bool | None
    sanity_bound_satisfied: bool | None
    converged_early: bool
    # the input model and the run length, for the deferred raw run
    model: MdpModel = field(repr=False, compare=False)
    steps: int = field(repr=False, compare=False)

    @cached_property
    def per_step_ratios(self) -> list:
        return _ratios(self.span_trace)

    @cached_property
    def unnormalized_span_trace(self) -> list:
        if self.pi_star is None:
            return list(self.span_trace)
        model = self.model
        return _run_stack([model], [model.sap_rewards], [np.array(self.v0)], [self.steps], False)[0].spans


def vi_step(model: MdpModel, v: np.ndarray) -> tuple:
    """One advantage-VI step; returns (v_next, greedy Policy).

    Ties in the per-state maximization go to the lowest SAP index. A ``v``
    that is not n finite reals raises ValueError.
    """
    v = _vector(model.n, v, "v")
    c = mdp_constant(model)
    maxq, greedy_ids = kernels.greedy_sweep_model(model, model.gamma / c, v)
    v_next = c * maxq - model.gamma * float(v.sum())
    return v_next, Policy(greedy_ids)


def run_vi(model: MdpModel, v0: np.ndarray, steps: int) -> ViRun:
    """Iterate vi_step for ``steps`` steps, recording spans, ratios and greedy picks.

    Stops early once the span falls below SPAN_FLOOR; a constant v0
    terminates immediately with a single-entry trace. The greedy picks form
    an int64 array of one row per recorded span, fewer than steps + 1 after
    an early stop. A v0 that is not n finite reals raises ValueError.

    Iterates are re-centered to zero mean after each step. The raw update
    carries an unstable constant component (mean multiplier gamma*(1 - n)),
    while a constant shift of the iterate provably changes later iterates by
    constant vectors only: action-vector coefficients sum to -1, so a shift
    moves every advantage at a state by the same amount. Spans, ratios and
    greedy picks are therefore those of the raw trajectory, computed without
    the catastrophic cancellation the growing shift would cause.

    This is the one-row case of ``_run_stack``, the lockstep loop.
    """
    return _run_stack([model], [model.sap_rewards], [_vector(model.n, v0, "v0")], [steps])[0]


def _run_stack(models, rewards, v0s, budgets, greedy=True) -> list:
    """run_vi on the transition rows of each model with the per-SAP rewards
    of the same row of ``rewards`` (its own ``sap_rewards``, or pi*'s
    advantages), all in one step loop: one ViRun per model, in order. With
    ``greedy`` false the runs record spans only, and their ``greedy`` is
    None: no picks array is allocated, the sweep gathers no SAP ids, and no
    picks are copied when rows retire or move up.

    The models share n, gamma and the SAP layout, so C and the scale gamma/C
    are shared too, and so are the sweep's tables, which the first model
    builds; a step is one ``kernels.greedy_sweep`` call and row-wise
    reductions along the last axis, which round as 1-D ones do. A lone model
    is a stack of one, which views its arrays and its reward row rather than
    copying them: ``converge``'s runs take the path of a sweep chunk's.

    Stack row j records step t's span in ``spans[t, j]`` and, with
    ``greedy``, its greedy picks in ``picks[t, j*n : (j+1)*n]``; the sweep
    writes the picks of the rows in the stack into ``picks[t]``. A row
    retires after the sweep of its last iterate, at its step budget or when
    its span is below SPAN_FLOOR, and its ViRun, which views its records,
    is built then. Rows are ordered by budget, largest first, so a row at
    its budget leaves from the end of the stack and the others stay in
    place; a row stopping at the floor makes the stack copy the rows left,
    and move their records up, so a retired row whose records are
    overwritten keeps a copy.
    ``order[j]`` is the model of stack row j.
    """
    first = models[0]
    n, gamma = first.n, first.gamma
    c = mdp_constant(first)
    scale = gamma / c
    k = len(models)
    order = sorted(range(k), key=budgets.__getitem__, reverse=True)  # stable
    probs = geometry._stacked([models[i].sap_probs for i in order])
    rewards = geometry._stacked([rewards[i] for i in order])[:, :, None]
    v = np.array([v0s[i] for i in order], dtype=np.float64)
    tables = all_tables = kernels._stack_tables(first, k)
    budget = [max(budgets[i], 0) for i in order]  # of the stack's rows
    spans = np.empty((budget[0] + 1, k))
    picks = np.empty((budget[0] + 1, k * n), dtype=np.int64) if greedy else None
    runs = [None] * k
    at = slice(0, k)  # the stack's rows
    span_t = np.maximum.reduce(v, -1) - np.minimum.reduce(v, -1)
    spans[0, at] = span_t
    stop = budget[-1]  # the next step at which a row reaches its budget
    t = 0
    while True:
        maxq = kernels.greedy_sweep(probs, rewards, scale, v, tables, picks[t] if greedy else None)
        if t == stop or np.fmin.reduce(span_t) < SPAN_FLOOR:  # fmin: a NaN span hides no other
            live, done = [], []
            for j, b in enumerate(budget):
                (live if b > t and not spans[t, j] < SPAN_FLOOR else done).append(j)
            for j in done:
                rows = picks[: t + 1, j * n : (j + 1) * n] if greedy else None
                runs[order[j]] = ViRun(
                    spans[: t + 1, j].tolist(),
                    rows.copy() if greedy and j < len(live) else rows,  # its records are overwritten below
                    final_values=v[j],
                    early_stopped=budget[j] > t,
                )
            if not live:
                return runs
            at = slice(0, len(live))
            keep = at if live[-1] == len(live) - 1 else live
            if keep is live:  # a row above the last stopped at the floor: the rest move up
                spans[: t + 1, at] = spans[: t + 1, live]
                if greedy:
                    by_row = picks.reshape(len(picks), -1, n)
                    by_row[: t + 1, at] = by_row[: t + 1, live]
            probs, rewards, v, maxq = (a[keep] for a in (probs, rewards, v, maxq))
            budget, order = [budget[j] for j in live], [order[j] for j in live]
            tables = kernels._first_rows(all_tables, len(live))
            stop = budget[-1]
        total = np.add.reduce(v, -1, None, None, True)
        total *= gamma
        v = maxq * c
        v -= total
        v -= np.add.reduce(v, -1, None, None, True) / n  # the mean, as v.mean() rounds it
        span_t = np.maximum.reduce(v, -1) - np.minimum.reduce(v, -1)
        t += 1
        spans[t, at] = span_t


def _constants(
    model: MdpModel, cert: PrimitivityCertificate, delta: float, spans: list
) -> ContractionConstants:
    """Constants (delta, omega, N, phi, tau) of the raw span trace ``spans``, for a pi_star whose
    kernel is unichain with certificate ``cert`` and whose suboptimality gap ``delta`` is positive.

    phi is omega times one factor min(1, delta / (gamma * span)) per step input v_0 .. v_{N-1},
    a lower bound on a per-state interpolation coefficient in [0, 1]. Once delta > gamma * span
    no suboptimal SAP can be greedy and the factor is 1; uncapped, the bound is empirically false.
    phi and tau are None, and the run converged early, when the trace fell below the span floor
    before supplying N inputs.
    """
    n_steps = cert.exponent
    c = mdp_constant(model)
    input_spans = [s / c for s in spans[:n_steps]]
    converged_early = len(input_spans) < n_steps or any(
        s < SPAN_FLOOR / c for s in input_spans
    )
    phi = tau = None
    degenerate = False
    if not converged_early:
        factors = [min(1.0, delta / (model.gamma * s)) for s in input_spans]
        phi = cert.omega * math.prod(factors)
        tau = 1.0 - model.n * phi
        degenerate = not 0.0 < tau < 1.0
    return ContractionConstants(
        delta=delta,
        omega=cert.omega,
        exponent=n_steps,
        phi=phi,
        tau=tau,
        degenerate=degenerate,
        converged_early=converged_early,
    )


# byte budget of a sweep chunk: the trials that a sweep draws, plans and iterates together have
# (k, m, n) transition rows within it, unless a chunk holds one trial. Their one lockstep run
# records at most wielandt_bound(n) + 1 spans per row and no greedy picks, so with its
# transition stack it holds at most twice this budget for n >= 2, and three times at n = 1
VI_STACK_BYTES = 2**20


@dataclass
class _Plan:
    """What verify_contraction settles before its run: all that can raise."""

    model: MdpModel
    v0: np.ndarray
    diagnostics: AssumptionDiagnostics
    pi_star: Policy | None
    cert: PrimitivityCertificate | None
    rewards: np.ndarray  # pi_star's advantages, or the raw model's rewards without one
    steps: int
    delta: float | None  # pi_star's suboptimality gap when every diagnostic passes


def _plans(pairs: list, trace_steps) -> list:
    """The _Plan of each (model, v0) of ``pairs``, or the exception its planning raises, in order.

    The models share n, gamma and the SAP layout, and their plans are settled
    in lockstep, each stage once for the rows still planned: the start
    vectors (``_start``) and one finiteness test of the stacked rewards; one
    Howard search (``geometry._howard``) from the lowest-index policy, which
    reads the by-state tables of the first model only, and each optimum
    (``geometry._optimum``); the pi* kernels' stochasticity
    check and chain structure, one stacked ``chains._classify`` at gamma < 1
    and the search's recurrent masks at gamma = 1, where every iterate is
    unichain; one primitivity test (``chains._certificates``); and one
    stacked evaluation of pi* on the normalized rewards, pi*'s advantages
    from the search's last solve, for the gap of the rows whose diagnostics
    all pass (``_checked_gaps``). A plan carries those rewards beside its
    raw model, and no other model is built. A row leaves at its
    first error, the one that planning it alone raises, and its bits do not
    depend on the other rows. A sweep draws a chunk of trials together and
    hands it to ``_verify_chunk``, which plans it here in one call and then
    iterates it.
    """
    models = [model for model, _ in pairs]
    out, v0s = [None] * len(pairs), [None] * len(pairs)
    finite = np.isfinite(geometry._stacked([model.sap_rewards for model in models])).all(axis=-1)
    for i, (model, v0) in enumerate(pairs):
        try:
            v0s[i] = _start(model.n, v0)
            if not finite[i]:
                check_finite_rewards(model)
        except Exception as exc:  # a row's own error, raised in row order by the caller
            out[i] = exc
    rows = [i for i, plan in enumerate(out) if plan is None]
    if not rows:
        return out
    try:
        start = lowest_index_policy(models[rows[0]]).choice
    except ValidationFailedError as exc:  # a state without SAPs: so in every model of the layout
        return [exc if plan is None else plan for plan in out]
    optima = {}  # row -> (pi*, unique, pi*'s advantages, recurrent mask or None)
    for i, found in zip(rows, geometry._howard([models[i] for i in rows], np.tile(start, (len(rows), 1)))):
        try:
            if isinstance(found, Exception):
                raise found
            pi_star, unique, _, adv = geometry._optimum(models[i], *found)
            optima[i] = pi_star, unique, adv, found[3]
        except NotUnichainError:
            # a multichain optimum at gamma = 1: report the failed diagnostics with
            # an informational run on the raw model instead of crashing
            diagnostics = AssumptionDiagnostics(unique=False, unichain=False, aperiodic=False)
            steps = trace_steps or chains.wielandt_bound(models[i].n)
            out[i] = _Plan(models[i], v0s[i], diagnostics, None, None, models[i].sap_rewards, steps, None)
        except Exception as exc:
            out[i] = exc
    rows = list(optima)
    if not rows:
        return out
    kernels = geometry._stacked([models[i].sap_probs[optima[i][0].choice] for i in rows])
    errors = chains._stochastic_errors(kernels)
    if any(errors):
        for i, exc in zip(rows, errors):
            if exc is not None:
                out[i] = exc
        kernels = kernels[[exc is None for exc in errors]]
        rows = [i for i, exc in zip(rows, errors) if exc is None]
        if not rows:
            return out
    if models[rows[0]].is_average_reward:  # every iterate of the search is unichain, with its mask
        unichain, recurrent = np.ones(len(rows), dtype=bool), np.array([optima[i][3] for i in rows])
    else:
        counts, recurrent = chains._classify(kernels)
        unichain = counts == 1
    certs = chains._certificates(kernels, unichain & recurrent.all(axis=-1))
    passing = []
    for j, i in enumerate(rows):
        pi_star, unique, adv, _ = optima[i]
        cert = certs[j] if isinstance(certs[j], PrimitivityCertificate) else None
        diagnostics = AssumptionDiagnostics(unique, bool(unichain[j]), aperiodic=cert is not None)
        steps = max(cert.exponent if cert else 0, trace_steps or 0) or chains.wielandt_bound(models[i].n)
        out[i] = _Plan(models[i], v0s[i], diagnostics, pi_star, cert, adv, steps, None)
        if diagnostics.all_pass:
            passing.append(j)
    if passing:
        passed = [out[rows[j]] for j in passing]
        deltas = _checked_gaps(
            [plan.model for plan in passed],
            [plan.rewards for plan in passed],
            [plan.pi_star for plan in passed],
            kernels if len(passing) == len(rows) else kernels[passing],
        )
        for j, delta in zip(passing, deltas):
            if isinstance(delta, Exception):
                out[rows[j]] = delta
            else:
                out[rows[j]].delta = delta
    return out


def _start(n: int, v0) -> np.ndarray:
    """``v0`` as n finite float64 values, e_0 for None; a ValueError names what is wrong."""
    if v0 is None:
        v0 = np.zeros(n)
        v0[0] = 1.0
        return v0
    return _vector(n, v0, "v0")


def _vector(n: int, v, name: str) -> np.ndarray:
    """``v`` as n finite float64 values; a ValueError names the argument ``name`` and what is wrong."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    finite = np.isfinite(v)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{name}[{i}] is {v[i].item()!r}, not finite")
    return v


def _checked_gaps(models: list, rewards: list, policies: list, kernels: np.ndarray) -> list:
    """The suboptimality gap of each policy ``pi`` on its model's transition rows with the
    rewards of the same row of ``rewards`` (the negated largest advantage of a SAP outside
    ``pi``; inf when there is none), or the exception it raises, from one stacked evaluation
    of the policies' (k, n, n) ``kernels``, which it consumes. A gap that is not positive
    raises AssumptionViolatedError("uniqueness").

    The models share n, gamma and the SAP layout. Each policy is checked
    valid, so evaluate_policy's policy check cannot fail; its rewards check
    runs on the rows whose policy rewards are not all finite, which are then
    solved from zeros.
    """
    head = models[0]
    probs = geometry._stacked([model.sap_probs for model in models])
    rewards = geometry._stacked(rewards)
    own = rewards[np.arange(len(models))[:, None], np.array([pi.choice for pi in policies])]
    out = [None] * len(models)
    finite = np.isfinite(own)
    if not finite.all():
        for j in (~finite.all(axis=-1)).nonzero()[0].tolist():
            try:
                _check_finite(rewards[j], policies[j].choice)
            except NonFiniteRewardError as exc:
                out[j] = exc
                own[j] = 0.0
    x, errors = geometry._solve(head, kernels, own)
    adv = geometry._stack_advantages(head, probs, rewards, mdp_constant(head) * x)
    for j, pi in enumerate(policies):
        if out[j] is None:
            delta = _gap(adv[j], pi)
            out[j] = errors[j] or (AssumptionViolatedError("uniqueness") if delta <= 1e-12 else delta)
    return out


def _report(plan: _Plan, run: ViRun) -> ConvergenceReport:
    constants = bound = sanity = None
    converged_early = False
    gamma, cert = plan.model.gamma, plan.cert
    if plan.diagnostics.all_pass:
        constants = _constants(plan.model, cert, plan.delta, run.spans)
        converged_early = constants.converged_early
        n_steps = constants.exponent
        span_n = run.spans[n_steps] if len(run.spans) > n_steps else run.spans[-1]
        span_0 = run.spans[0]
        sanity = bool(span_n <= gamma**n_steps * span_0 + BOUND_SLACK)
        if constants.converged_early:
            bound = bool(run.spans[-1] <= BOUND_SLACK)
        elif constants.degenerate:
            bound = None
        else:
            bound = bool(span_n <= gamma**n_steps * constants.tau * span_0 + BOUND_SLACK)

    return ConvergenceReport(
        gamma=gamma,
        v0=tuple(plan.v0.tolist()),
        diagnostics=plan.diagnostics,
        pi_star=plan.pi_star.as_tuple() if plan.pi_star is not None else None,
        exponent=cert.exponent if cert is not None else None,
        span_trace=run.spans,
        greedy_policies=run.greedy,
        constants=constants,
        bound_satisfied=bound,
        sanity_bound_satisfied=sanity,
        converged_early=converged_early,
        model=plan.model,
        steps=plan.steps,
    )


def verify_contraction(
    model: MdpModel,
    v0: np.ndarray | None = None,
    trace_steps: int | None = None,
) -> ConvergenceReport:
    """Full pipeline: optimal policy, diagnostics, normalization, VI run, bound check.

    Diagnostic failures produce an informational report with
    bound_satisfied=None, never an exception. The verified run takes the
    normalized rewards, pi*'s advantages; the raw model's span trace, for
    comparison, is run when the report's ``unnormalized_span_trace`` is
    first read. ``v0`` defaults to e_0 (1 at state 0, 0 elsewhere); a v0
    that is not n finite reals raises ValueError.
    ``trace_steps`` extends the recorded trace beyond the N steps the bound
    itself needs. This is the one-pair case of ``_verify_chunk``.
    """
    (report,) = _verify_chunk([(model, v0)], trace_steps)
    return report


def _verify_chunk(pairs: list, trace_steps: int | None = None, greedy: bool = True) -> list:
    """verify_contraction(model, v0, trace_steps) of each (model, v0) of ``pairs``, in order.

    The models share n, gamma and the SAP layout. ``_plans`` settles the
    chunk in lockstep, and the first error in pair order is raised, as when
    each pair is verified alone. The value iterations of all the plans then
    run in one ``_run_stack``; a sweep's chunk fits it within twice
    VI_STACK_BYTES. With ``greedy`` false (a sweep, whose rows read no
    greedy policy) the runs record spans only, and each report's
    ``greedy_policies`` is None.
    """
    plans = _plans(pairs, trace_steps)
    _raise_first(plans)
    models, rewards = [p.model for p in plans], [p.rewards for p in plans]
    runs = _run_stack(models, rewards, [p.v0 for p in plans], [p.steps for p in plans], greedy)
    return list(map(_report, plans, runs))


def _chunk_size(m: int, n: int) -> int:
    # the pairs of a chunk whose models have m SAPs over n states: as many as
    # have (k, m, n) transition rows within VI_STACK_BYTES, and at least one
    return max(1, VI_STACK_BYTES // (8 * m * n))
