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

from . import chains, kernels
from .chains import PrimitivityCertificate, check_stochastic, classify_chain, primitivity_certificate
from .errors import AssumptionViolatedError, NotPrimitiveError, NotUnichainError
from .geometry import _gap, advantages, evaluate_policy, mdp_constant, optimal_policy
from .model import MdpModel, Policy, policy_kernel, span

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
    terminates immediately with a single-entry trace. The greedy picks go
    into one preallocated (steps + 1, n) int64 array, and the run returns
    the rows it filled: one per recorded span, fewer than steps + 1 after
    an early stop.

    Iterates are re-centered to zero mean after each step. The raw update
    carries an unstable constant component (mean multiplier gamma*(1 - n)),
    while a constant shift of the iterate provably changes later iterates by
    constant vectors only: action-vector coefficients sum to -1, so a shift
    moves every advantage at a state by the same amount. Spans, ratios and
    greedy picks are therefore those of the raw trajectory, computed without
    the catastrophic cancellation the growing shift would cause.
    """
    v = np.asarray(v0, dtype=np.float64).copy()
    spans = [span(v)]
    ratios = []
    greedy = np.empty((max(steps, 0) + 1, model.n), dtype=np.int64)
    gamma = model.gamma
    c = mdp_constant(model)
    scale = gamma / c
    t = 0
    early_stopped = False
    while t < steps:
        prev = spans[-1]
        if prev < SPAN_FLOOR:
            early_stopped = True
            break
        maxq, greedy[t] = kernels.greedy_sweep_model(model, scale, v)
        v = c * maxq - gamma * float(v.sum())
        v -= v.sum() / v.size  # v.mean()'s bits, without its Python-level wrapper
        new_span = float(v.max() - v.min())
        ratios.append(new_span / prev if prev > 0.0 else None)
        spans.append(new_span)
        t += 1
    # greedy policy at the final iterate, so every recorded vector has one
    _, greedy[t] = kernels.greedy_sweep_model(model, scale, v)
    return ViRun(spans, ratios, greedy[: t + 1], final_values=v, early_stopped=early_stopped)


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
    return _constants(model, cert, suboptimality_gap(model, pi_star), spans)


def _constants(
    model: MdpModel, cert: PrimitivityCertificate, delta: float, spans: list
) -> ContractionConstants:
    # contraction_constants once pi_star's kernel is known to be unichain
    # with certificate ``cert`` and ``delta`` is its suboptimality gap
    if delta <= 1e-12:
        raise AssumptionViolatedError("uniqueness")
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
    if v0 is None:
        v0 = np.zeros(model.n)
        v0[0] = 1.0
    v0 = np.asarray(v0, dtype=np.float64)
    gamma = model.gamma

    pi_star = cert = None
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

    run = run_vi(run_model, v0, steps)

    constants = bound = sanity = None
    converged_early = False
    if diagnostics.all_pass:
        constants = _constants(run_model, cert, suboptimality_gap(run_model, pi_star), run.spans)
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
        v0=tuple(float(x) for x in v0),
        diagnostics=diagnostics,
        pi_star=pi_star.as_tuple() if pi_star is not None else None,
        exponent=cert.exponent if cert is not None else None,
        span_trace=run.spans,
        per_step_ratios=run.ratios,
        greedy_policies=run.greedy,
        constants=constants,
        bound_satisfied=bound,
        sanity_bound_satisfied=sanity,
        converged_early=converged_early,
        model=model,
        steps=steps,
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
