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
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import chains, kernels
from .chains import PrimitivityCertificate, check_stochastic, classify_chain, primitivity_certificate
from .errors import AssumptionViolatedError, NotPrimitiveError, NotUnichainError
from .geometry import _gap, advantages, evaluate_policy, mdp_constant, optimal_policy
from .model import MdpModel, Policy, policy_kernel

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

    ``ratios`` holds one float per step, spans[t + 1] / spans[t]; a step runs
    only from a span of at least SPAN_FLOOR, so no ratio divides by zero.
    ``greedy`` is an int64 array of shape (len(spans), n): row t holds the
    greedy SAP id of each state at iterate t.
    """

    spans: list
    ratios: list
    greedy: np.ndarray
    final_values: np.ndarray
    early_stopped: bool


@dataclass
class ConvergenceReport:
    """Result of verify_contraction.

    ``per_step_ratios`` are the verified run's ``ViRun.ratios``, floats.
    ``greedy_policies`` is the verified run's int64 array of shape
    (len(span_trace), n): row t holds the greedy SAP ids at iterate t.
    ``unnormalized_span_trace`` is the span trace of the same run on the raw
    ``model``. It is computed on its first access, so a caller that never
    reads it (a sweep trial) never runs it. Without an optimal policy the
    verified run already is the raw run, and its trace is reused.
    """

    gamma: float
    v0: tuple
    diagnostics: AssumptionDiagnostics
    pi_star: tuple | None
    exponent: int | None
    span_trace: list
    per_step_ratios: list
    greedy_policies: np.ndarray
    constants: ContractionConstants | None
    bound_satisfied: bool | None
    sanity_bound_satisfied: bool | None
    converged_early: bool
    # the input model and the run length, for the deferred raw run
    model: MdpModel = field(repr=False, compare=False)
    steps: int = field(repr=False, compare=False)

    @cached_property
    def unnormalized_span_trace(self) -> list:
        if self.pi_star is None:
            return list(self.span_trace)
        return run_vi(self.model, np.array(self.v0), self.steps).spans


def vi_step(model: MdpModel, v: np.ndarray) -> tuple:
    """One advantage-VI step; returns (v_next, greedy Policy).

    Ties in the per-state maximization go to the lowest SAP index.
    """
    v = np.asarray(v, dtype=np.float64)
    c = mdp_constant(model)
    maxq, greedy_ids = kernels.greedy_sweep_model(model, model.gamma / c, v)
    v_next = c * maxq - model.gamma * float(v.sum())
    return v_next, Policy(greedy_ids)


def run_vi(model: MdpModel, v0: np.ndarray, steps: int) -> ViRun:
    """Iterate vi_step for ``steps`` steps, recording spans, ratios and greedy picks.

    Stops early once the span falls below SPAN_FLOOR; a constant v0
    terminates immediately with a single-entry trace. The greedy picks form
    an int64 array of one row per recorded span, fewer than steps + 1 after
    an early stop.

    Iterates are re-centered to zero mean after each step. The raw update
    carries an unstable constant component (mean multiplier gamma*(1 - n)),
    while a constant shift of the iterate provably changes later iterates by
    constant vectors only: action-vector coefficients sum to -1, so a shift
    moves every advantage at a state by the same amount. Spans, ratios and
    greedy picks are therefore those of the raw trajectory, computed without
    the catastrophic cancellation the growing shift would cause.

    This is the one-row case of ``_run_stack``, the lockstep loop.
    """
    return _run_stack([model], [v0], [steps])[0]


def _run_stack(models, v0s, budgets) -> list:
    """run_vi on each model, all in one step loop: one ViRun per model, in order.

    The models share n, gamma and the SAP layout, so C and the scale gamma/C
    are shared too, and a step is one ``kernels.greedy_sweep_stack`` call and
    row-wise reductions along the last axis, which round as 1-D ones do. A
    lone model is not stacked: its arrays stay 1-D, its sweep is
    ``kernels.greedy_sweep`` and its row sums are scalars, so a lone run
    makes no more numpy calls per step than a loop of its own.

    Stack row j records step t's span in ``spans[t, j]`` and its greedy
    picks in ``picks[t, j*n : (j+1)*n]``; the sweep writes the picks of the
    rows in the stack into ``picks[t]``. A row retires after the sweep of its
    last iterate, at its step budget or when its span is below SPAN_FLOOR,
    and its ViRun, which views its records, is built then. Rows are ordered
    by budget, largest first, so a row at its budget leaves from the end of
    the stack and the others stay in place; a row stopping at the floor
    makes the stack copy the rows left, and move their records up, so a
    retired row whose records are overwritten keeps a copy. ``order[j]`` is
    the model of stack row j.
    """
    first = models[0]
    n, gamma = first.n, first.gamma
    c = mdp_constant(first)
    scale = gamma / c
    k = len(models)
    if k > 1:
        order = sorted(range(k), key=budgets.__getitem__, reverse=True)  # stable
        probs = np.stack([models[i].sap_probs for i in order])
        rewards = np.stack([models[i].sap_rewards for i in order])[:, :, None]
        v = np.array([v0s[i] for i in order], dtype=np.float64)
        tables = all_tables = kernels._stack_tables(first, k)
        least = np.fmin.reduce  # fmin: a NaN span does not hide another's
        stacked, sweep = True, kernels.greedy_sweep_stack
    else:
        order = [0]
        probs, rewards = first.sap_probs, first.sap_rewards
        v = np.array(v0s[0], dtype=np.float64)
        tables = first._sweep_blocks
        least = float  # a lone row's span is a scalar
        stacked, sweep = False, kernels.greedy_sweep
    budget = [max(budgets[i], 0) for i in order]  # of the stack's rows
    spans = np.empty((budget[0] + 1, k))
    picks = np.empty((budget[0] + 1, k * n), dtype=np.int64)
    runs = [None] * k
    at = slice(0, k)  # the stack's rows
    span_t = np.maximum.reduce(v, -1) - np.minimum.reduce(v, -1)
    spans[0, at] = span_t
    stop = budget[-1]  # the next step at which a row reaches its budget
    t = 0
    while True:
        maxq = sweep(probs, rewards, scale, v, tables, picks[t])
        if t == stop or least(span_t) < SPAN_FLOOR:
            live, done = [], []
            for j, b in enumerate(budget):
                (live if b > t and not spans[t, j] < SPAN_FLOOR else done).append(j)
            for j in done:
                trace = spans[: t + 1, j].tolist()
                greedy = picks[: t + 1, j * n : (j + 1) * n]
                runs[order[j]] = ViRun(
                    trace,
                    [new / prev for prev, new in zip(trace, trace[1:])],
                    greedy.copy() if j < len(live) else greedy,  # its records are overwritten below
                    final_values=v[j] if stacked else v,
                    early_stopped=budget[j] > t,
                )
            if not live:
                return runs
            at = slice(0, len(live))
            keep = at if live[-1] == len(live) - 1 else live
            if keep is live:  # a row above the last stopped at the floor: the rest move up
                spans[: t + 1, at] = spans[: t + 1, live]
                by_row = picks.reshape(len(picks), -1, n)
                by_row[: t + 1, at] = by_row[: t + 1, live]
            probs, rewards, v, maxq = (a[keep] for a in (probs, rewards, v, maxq))
            budget, order = [budget[j] for j in live], [order[j] for j in live]
            tables = kernels._first_rows(all_tables, len(live))
            stop = budget[-1]
        total = np.add.reduce(v, -1, None, None, stacked)
        total *= gamma
        v = maxq * c
        v -= total
        v -= np.add.reduce(v, -1, None, None, stacked) / n  # the mean, as v.mean() rounds it
        span_t = np.maximum.reduce(v, -1) - np.minimum.reduce(v, -1)
        t += 1
        spans[t, at] = span_t


def suboptimality_gap(model: MdpModel, pi_star: Policy) -> float:
    """Negated maximum advantage of SAPs outside ``pi_star``; inf if none exist."""
    pv, _ = evaluate_policy(model, pi_star)
    return _gap(advantages(model, pv), pi_star)


def contraction_constants(
    model: MdpModel, pi_star: Policy, spans: list
) -> ContractionConstants:
    """Constants (delta, omega, N, phi, tau) for a realized span trace.

    ``spans`` are spans of the raw iterates v_t (the C scaling cancels where
    it should). phi multiplies omega by one factor per step over the N step
    inputs v_0 .. v_{N-1}, each factor min(1, delta / (gamma * span)). The
    factor is a lower bound on a per-state interpolation coefficient that
    lives in [0, 1]: once delta exceeds gamma times the current span, no
    suboptimal SAP can be greedy anywhere, the step follows the optimal
    kernel exactly, and the factor is 1. Without the cap the product claims
    more contraction than the iteration guarantees and the bound is
    empirically false.

    When the trace went below the span floor before supplying N inputs, phi
    and tau are reported as None and the run is marked converged early.

    Raises AssumptionViolatedError naming the failed diagnostic when the
    kernel of ``pi_star`` is not unichain, has no entrywise-positive power,
    or the suboptimality gap is not positive.
    """
    kernel = policy_kernel(model, pi_star)
    if not classify_chain(kernel).is_unichain:
        raise AssumptionViolatedError("unichain")
    try:
        cert = primitivity_certificate(kernel)
    except NotPrimitiveError as exc:
        raise AssumptionViolatedError("aperiodicity") from exc
    return _constants(model, cert, _checked_gap(model, pi_star), spans)


def _checked_gap(model: MdpModel, pi_star: Policy) -> float:
    """suboptimality_gap, raising AssumptionViolatedError when it is not positive."""
    delta = suboptimality_gap(model, pi_star)
    if delta <= 1e-12:
        raise AssumptionViolatedError("uniqueness")
    return delta


def _constants(
    model: MdpModel, cert: PrimitivityCertificate, delta: float, spans: list
) -> ContractionConstants:
    # contraction_constants once pi_star's kernel is known to be unichain
    # with certificate ``cert`` and ``delta`` is its positive suboptimality gap
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


# byte budget of one lockstep run: its (k, m, n) transition stack and (steps + 1, k * n) greedy picks
VI_STACK_BYTES = 2**20


@dataclass
class _Plan:
    """What verify_contraction settles before its run: all that can raise."""

    model: MdpModel
    v0: np.ndarray
    diagnostics: AssumptionDiagnostics
    pi_star: Policy | None
    cert: PrimitivityCertificate | None
    run_model: MdpModel  # normalized against pi_star, or the raw model without one
    steps: int
    delta: float | None  # pi_star's suboptimality gap when every diagnostic passes


def _plan(model: MdpModel, v0, trace_steps) -> _Plan:
    if v0 is None:
        v0 = np.zeros(model.n)
        v0[0] = 1.0
    v0 = np.asarray(v0, dtype=np.float64)
    pi_star = cert = delta = None
    try:
        optimal = optimal_policy(model)
    except NotUnichainError:
        # a multichain optimum at gamma = 1: report the failed diagnostics with
        # an informational run on the raw model instead of crashing
        diagnostics = AssumptionDiagnostics(unique=False, unichain=False, aperiodic=False)
        run_model, steps = model, trace_steps or chains.wielandt_bound(model.n)
    else:
        pi_star = optimal.policy
        kernel = policy_kernel(model, pi_star)
        unichain = classify_chain(kernel).is_unichain
        # the normalized rewards are pi_star's advantages, from the search's last solve
        run_model = model._with_rewards(optimal.advantages)
        unique = optimal.unique and _gap(run_model.sap_rewards, pi_star) > 1e-9
        try:
            cert = primitivity_certificate(kernel)
        except NotPrimitiveError:
            pass
        diagnostics = AssumptionDiagnostics(unique, unichain, aperiodic=cert is not None)
        steps = max(cert.exponent if cert else 0, trace_steps or 0) or chains.wielandt_bound(model.n)
        if diagnostics.all_pass:
            delta = _checked_gap(run_model, pi_star)
    return _Plan(model, v0, diagnostics, pi_star, cert, run_model, steps, delta)


def _report(plan: _Plan, run: ViRun) -> ConvergenceReport:
    constants = bound = sanity = None
    converged_early = False
    gamma, cert = plan.model.gamma, plan.cert
    if plan.diagnostics.all_pass:
        constants = _constants(plan.run_model, cert, plan.delta, run.spans)
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
        v0=tuple(float(x) for x in plan.v0),
        diagnostics=plan.diagnostics,
        pi_star=plan.pi_star.as_tuple() if plan.pi_star is not None else None,
        exponent=cert.exponent if cert is not None else None,
        span_trace=run.spans,
        per_step_ratios=run.ratios,
        greedy_policies=run.greedy,
        constants=constants,
        bound_satisfied=bound,
        sanity_bound_satisfied=sanity,
        converged_early=converged_early,
        model=plan.model,
        steps=plan.steps,
    )


def _reports(plans: list) -> list:
    # phases two and three: one lockstep run for every plan, then each report
    runs = _run_stack([p.run_model for p in plans], [p.v0 for p in plans], [p.steps for p in plans])
    return [_report(plan, run) for plan, run in zip(plans, runs)]


def verify_contraction(
    model: MdpModel,
    v0: np.ndarray | None = None,
    trace_steps: int | None = None,
) -> ConvergenceReport:
    """Full pipeline: optimal policy, diagnostics, normalization, VI run, bound check.

    Diagnostic failures produce an informational report with
    bound_satisfied=None, never an exception. The verified run happens on
    the reward-normalized model; the raw model's span trace, for
    comparison, is run when the report's ``unnormalized_span_trace`` is
    first read. ``v0`` defaults to e_0 (1 at state 0, 0 elsewhere).
    ``trace_steps`` extends the recorded trace beyond the N steps the bound
    itself needs.
    """
    plan = _plan(model, v0, trace_steps)
    return _report(plan, run_vi(plan.run_model, plan.v0, plan.steps))


def _verify_contractions(pairs) -> Iterator[ConvergenceReport]:
    """verify_contraction(model, v0) for each (model, v0) of ``pairs``, in order.

    Each pair is planned as it is drawn: the optimal policy, diagnostics,
    step count and gap, so a model that raises does so in pair order, and a
    lazy ``pairs`` interleaves building and planning. Consecutive plans whose
    run models share n, gamma and the SAP layout, and whose stacked rows fit
    VI_STACK_BYTES, form a chunk, and each chunk's value iterations run in
    lockstep in one ``_run_stack``; the reports equal verify_contraction's.
    """
    chunk, longest = [], 0
    for model, v0 in pairs:
        plan = _plan(model, v0, None)
        longest = max(longest, plan.steps)
        if chunk and not _joins(chunk, plan.run_model, longest):
            yield from _reports(chunk)
            chunk, longest = [], plan.steps
        chunk.append(plan)
    if chunk:
        yield from _reports(chunk)


def _joins(chunk: list, run_model: MdpModel, longest: int) -> bool:
    # whether a run on run_model joins the chunk's stack, whose runs then take
    # up to ``longest`` steps
    head = chunk[0].run_model
    return (
        run_model.n == head.n
        and run_model.gamma == head.gamma
        and np.array_equal(run_model.sap_states, head.sap_states)
        and (len(chunk) + 1) * 8 * head.n * (head.m + longest + 1) <= VI_STACK_BYTES
    )


def product_expansion_check(matrices, tol: float = 1e-10) -> bool:
    """Check that prod(P_t - E) - prod(P_t) has identical rows.

    E is the all-ones matrix; inputs must be row-stochastic and of one size.
    """
    mats = [check_stochastic(p) for p in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("matrices must share one dimension")
    e = np.ones((n, n))
    shifted = mats[0] - e
    plain = mats[0].copy()
    for m in mats[1:]:
        shifted = shifted @ (m - e)
        plain = plain @ m
    e_prime = shifted - plain
    return bool(np.max(np.abs(e_prime - e_prime[0])) <= tol)
