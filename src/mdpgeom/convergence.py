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

import numpy as np

from . import classic, kernels
from .chains import PrimitivityCertificate, check_stochastic, classify_chain, primitivity_certificate
from .errors import AssumptionViolatedError, NotPrimitiveError, NotUnichainError
from .geometry import advantages, evaluate_policy, mdp_constant, normalize_rewards
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
    """Span trace of one advantage-VI run plus the greedy policy at each iterate."""

    spans: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    greedy: list = field(default_factory=list)
    final_values: np.ndarray | None = None
    early_stopped: bool = False


@dataclass
class ConvergenceReport:
    gamma: float
    v0: tuple
    diagnostics: AssumptionDiagnostics | None
    pi_star: tuple | None
    exponent: int | None
    span_trace: list
    per_step_ratios: list
    greedy_policies: list
    unnormalized_span_trace: list
    constants: ContractionConstants | None
    bound_satisfied: bool | None
    sanity_bound_satisfied: bool | None
    converged_early: bool


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
    terminates immediately with a single-entry trace.

    Iterates are re-centered to zero mean after each step. The raw update
    carries an unstable constant component (mean multiplier gamma*(1 - n)),
    while a constant shift of the iterate provably changes later iterates by
    constant vectors only: action-vector coefficients sum to -1, so a shift
    moves every advantage at a state by the same amount. Spans, ratios and
    greedy picks are therefore those of the raw trajectory, computed without
    the catastrophic cancellation the growing shift would cause.
    """
    v = np.asarray(v0, dtype=np.float64).copy()
    run = ViRun()
    run.spans.append(span(v))
    c = mdp_constant(model)
    for _ in range(steps):
        if run.spans[-1] < SPAN_FLOOR:
            run.early_stopped = True
            break
        maxq, greedy_ids = kernels.greedy_sweep_model(model, model.gamma / c, v)
        run.greedy.append(Policy(greedy_ids))
        v = c * maxq - model.gamma * float(v.sum())
        v -= v.mean()
        new_span = span(v)
        prev = run.spans[-1]
        run.ratios.append(new_span / prev if prev > 0.0 else None)
        run.spans.append(new_span)
    # greedy policy at the final iterate, so every recorded vector has one
    _, greedy_ids = kernels.greedy_sweep_model(model, model.gamma / c, v)
    run.greedy.append(Policy(greedy_ids))
    run.final_values = v
    return run


def suboptimality_gap(model: MdpModel, pi_star: Policy) -> float:
    """Negated maximum advantage of SAPs outside ``pi_star``; inf if none exist."""
    pv, _ = evaluate_policy(model, pi_star)
    return _gap(advantages(model, pv), pi_star)


def _gap(adv: np.ndarray, pi_star: Policy) -> float:
    # suboptimality_gap on the advantages with respect to pi_star
    member = np.zeros(adv.size, dtype=bool)
    member[pi_star.choice] = True
    nonmember = adv[~member]
    if nonmember.size == 0:
        return math.inf
    return float(-np.max(nonmember))


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
    if converged_early:
        phi = None
        tau = None
        degenerate = False
    else:
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


def _wielandt(n: int) -> int:
    return n * n - 2 * n + 2


def verify_contraction(
    model: MdpModel,
    v0: np.ndarray | None = None,
    trace_steps: int | None = None,
) -> ConvergenceReport:
    """Full pipeline: optimal policy, diagnostics, normalization, VI run, bound check.

    Diagnostic failures produce an informational report with
    bound_satisfied=None, never an exception. The verified run happens on
    the reward-normalized model; the raw model's span trace is recorded
    alongside for comparison. ``trace_steps`` extends the recorded trace
    beyond the N steps the bound itself needs.
    """
    if v0 is None:
        v0 = np.zeros(model.n)
        v0[0] = 1.0
    v0 = np.asarray(v0, dtype=np.float64)
    gamma = model.gamma

    try:
        optimal = classic.optimal_policy(model)
    except NotUnichainError:
        # no unichain policy at gamma = 1: report the failed diagnostic
        # with an informational raw trace instead of crashing
        raw = run_vi(model, v0, trace_steps or _wielandt(model.n))
        return ConvergenceReport(
            gamma=gamma,
            v0=tuple(float(x) for x in v0),
            diagnostics=AssumptionDiagnostics(unique=False, unichain=False, aperiodic=False),
            pi_star=None,
            exponent=None,
            span_trace=list(raw.spans),
            per_step_ratios=list(raw.ratios),
            greedy_policies=[g.as_tuple() for g in raw.greedy],
            unnormalized_span_trace=list(raw.spans),
            constants=None,
            bound_satisfied=None,
            sanity_bound_satisfied=None,
            converged_early=False,
        )
    pi_star = optimal.policy
    kernel = policy_kernel(model, pi_star)
    unichain = classify_chain(kernel).is_unichain
    # at gamma = 1 optimal_policy returns only unichain policies, so pi_star
    # is evaluable at every gamma; the normalized rewards are its advantages
    normalized = normalize_rewards(model, pi_star)
    unique = optimal.unique and _gap(normalized.sap_rewards, pi_star) > 1e-9

    cert = None
    try:
        cert = primitivity_certificate(kernel)
    except NotPrimitiveError:
        pass
    diagnostics = AssumptionDiagnostics(
        unique=unique, unichain=unichain, aperiodic=cert is not None
    )

    exponent = cert.exponent if cert is not None else None
    steps = max(exponent or 0, trace_steps or 0) or _wielandt(model.n)

    run = run_vi(normalized, v0, steps)
    raw_run = run_vi(model, v0, steps)

    constants = None
    bound = None
    sanity = None
    converged_early = False
    if diagnostics.all_pass:
        constants = _constants(normalized, cert, suboptimality_gap(normalized, pi_star), run.spans)
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
        pi_star=pi_star.as_tuple(),
        exponent=exponent,
        span_trace=list(run.spans),
        per_step_ratios=list(run.ratios),
        greedy_policies=[g.as_tuple() for g in run.greedy],
        unnormalized_span_trace=list(raw_run.spans),
        constants=constants,
        bound_satisfied=bound,
        sanity_bound_satisfied=sanity,
        converged_early=converged_early,
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
