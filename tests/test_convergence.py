import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mdpgeom import (
    AssumptionViolatedError,
    MdpModel,
    Policy,
    advantages,
    evaluate_policy,
    normalize_rewards,
    optimal_policy,
    run_vi,
    span,
    verify_contraction,
    vi_step,
)

from mdpgeom import chains, classic, convergence, geometry, kernels, model
from mdpgeom.chains import PrimitivityCertificate, classify_chain
from mdpgeom.errors import NonFiniteRewardError, NotUnichainError, ValidationFailedError
from mdpgeom.generate import GeneratorSpec, _generate, _states
from mdpgeom.model import lowest_index_policy

from conftest import count_calls, make_model, product_expansion_check, random_instance, random_stochastic


def stepwise_run(model, v0, steps):
    """run_vi as a loop over vi_step: (spans, ratios, greedy rows, early_stopped, final values)."""
    v = np.asarray(v0, dtype=np.float64).copy()
    spans, ratios, greedy = [span(v)], [], []
    early_stopped = False
    for _ in range(steps):
        if spans[-1] < convergence.SPAN_FLOOR:
            early_stopped = True
            break
        v, pi = vi_step(model, v)
        greedy.append(pi.choice)
        v -= v.mean()
        ratios.append(span(v) / spans[-1])
        spans.append(span(v))
    greedy.append(vi_step(model, v)[1].choice)
    return spans, ratios, np.array(greedy), early_stopped, v


def raw_rewards(models):
    """Each model's own rewards, the reward rows of a lockstep run on the raw models."""
    return [m.sap_rewards for m in models]


def assert_run_equals_stepwise(run, model, v0, steps):
    # bit for bit: spans, ratios, greedy rows, early stop and final values
    spans, ratios, greedy, early_stopped, final = stepwise_run(model, v0, steps)
    assert run.spans == spans
    assert run.ratios == ratios
    assert all(type(r) is float for r in run.ratios)
    assert run.greedy.dtype == np.int64
    assert run.greedy.shape == (len(spans), model.n)
    np.testing.assert_array_equal(run.greedy, greedy)
    assert run.early_stopped == early_stopped
    assert run.final_values.tobytes() == final.tobytes()


@st.composite
def tied_models(draw):
    """Small models whose SAPs share rewards and rows, so greedy ties are common."""
    n = draw(st.integers(1, 5))
    gamma = draw(st.sampled_from([0.5, 0.9, 1.0]))
    rows = [np.eye(n)[0], np.full(n, 1.0 / n), np.eye(n)[n - 1]]
    saps = []
    for s in range(n):
        for _ in range(draw(st.integers(1, 3))):
            reward = draw(st.sampled_from([0.0, 0.5, 1.0]))
            saps.append((s, reward, rows[draw(st.integers(0, 2))]))
    return make_model(n, gamma, saps)


@st.composite
def stacked_runs(draw, rows=None, layout=None):
    """Models sharing n, gamma and a SAP layout, with a v0 and a step budget each.

    SAP counts per state may be skewed, which splits the greedy sweep into
    several blocks. Rows of the identity and the uniform row make ties and
    runs that reach the span floor; a v0 is random, constant or of span
    about 1e-12, and a budget may be 0 or negative. ``rows`` fixes the
    number of models (1 to 6 otherwise). ``layout`` "uniform" gives every
    state one SAP count, and "skewed" gives one state 4 to 6 SAPs beside at
    least three states with one, so the sweep has two blocks; the SAP order
    is shuffled in both.
    """
    if layout is None:
        n = draw(st.integers(1, 5))
        counts = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    elif layout == "uniform":
        n = draw(st.integers(1, 5))
        counts = [draw(st.integers(1, 4))] * n
    else:
        n = draw(st.integers(4, 6))
        counts = [1] * n
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(4, 6))
    gamma = draw(st.sampled_from([0.5, 0.9, 1.0]))
    states = draw(st.permutations([s for s in range(n) for _ in range(counts[s])]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed_rows = [np.eye(n)[0], np.full(n, 1.0 / n), np.eye(n)[n - 1]]
    models, v0s, budgets = [], [], []
    for _ in range(rows or draw(st.integers(1, 6))):
        saps = []
        for s in states:
            pick = rng.integers(4)
            row = fixed_rows[pick] if pick < 3 else rng.dirichlet(np.ones(n))
            saps.append((s, [0.0, 0.5, 1.0, rng.random()][rng.integers(4)], row))
        models.append(make_model(n, gamma, saps))
        kind = draw(st.sampled_from(["random", "constant", "tiny"]))
        v0 = {"random": rng.standard_normal(n), "constant": np.full(n, 2.0)}.get(kind)
        v0s.append(rng.standard_normal(n) * 1e-12 if v0 is None else v0)
        budgets.append(draw(st.integers(-1, 40)))
    return models, v0s, budgets


class TestViStep:
    def test_single_sap_swap_from_zero(self, swap_model):
        # v1(s) = C * max_a(r + p.v0/C - v0_sum/C) = C * r = (4, 0)
        v1, greedy = vi_step(swap_model, np.zeros(2))
        np.testing.assert_allclose(v1, [4.0, 0.0], atol=1e-12)
        assert greedy.as_tuple() == (0, 1)

    def test_fixed_point_on_normalized(self, swap_plus_selfloop):
        star = Policy([0, 1])
        norm = normalize_rewards(swap_plus_selfloop, star)
        pv, _ = evaluate_policy(norm, star)
        # the evaluated values of the optimal policy in the normalized model
        v_star = pv.values
        np.testing.assert_allclose(v_star, 0.0, atol=1e-12)
        v_next, greedy = vi_step(norm, v_star)
        np.testing.assert_allclose(v_next, v_star, atol=1e-12)
        assert greedy == star

    def test_greedy_is_advantage_argmax(self):
        from mdpgeom.geometry import PolicyVector

        m = random_instance(4, n=4, gamma=0.6, saps_per_state=3)
        v = np.linspace(-1, 2, 4)
        _, greedy = vi_step(m, v)
        adv = advantages(m, PolicyVector(values=v))
        for s in range(m.n):
            ids = m.saps_at(s)
            assert greedy.choice[s] == ids[np.argmax(adv[ids])]

    def test_zero_start_stays_at_zero_on_normalized(self):
        m = random_instance(6, n=4, gamma=1.0, saps_per_state=2)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        v = np.zeros(4)
        for _ in range(5):
            v, _ = vi_step(norm, v)
            assert np.max(v) <= 1e-12


@pytest.mark.parametrize(
    "start, message",
    [
        (np.zeros(3), r"{} has shape \(3,\), expected \(4,\)"),
        (np.zeros((2, 4)), r"{} has shape \(2, 4\), expected \(4,\)"),
        (np.full(4, np.nan), r"{}\[0\] is nan, not finite"),
        (np.array([0.0, 1.0, np.inf, 0.0]), r"{}\[2\] is inf, not finite"),
    ],
    ids=["length-3", "shape-2x4", "all-nan", "one-inf"],
)
@pytest.mark.parametrize(
    "run, name",
    [(lambda m, v: run_vi(m, v, 6), "v0"), (vi_step, "v")],
    ids=["run_vi", "vi_step"],
)
def test_a_start_that_is_not_n_finite_reals_is_refused(run, name, start, message):
    # as verify_contraction refuses it, naming the argument
    model = random_instance(0, n=4, gamma=0.9, saps_per_state=2)
    with pytest.raises(ValueError, match=message.format(name)):
        run(model, start)


class TestRunVi:
    def test_constant_v0_terminates_immediately(self, swap_model):
        run = run_vi(swap_model, np.full(2, 3.0), steps=50)
        assert run.spans == [0.0]
        assert run.ratios == []
        assert run.early_stopped
        assert len(run.greedy) == 1  # greedy at the recorded final iterate

    def test_discounted_ratios_bounded_by_gamma_on_normalized(self):
        m = random_instance(8, n=5, gamma=0.8, saps_per_state=2)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        v0 = np.zeros(5)
        v0[0] = 1.0
        run = run_vi(norm, v0, steps=25)
        assert len(run.ratios) >= 10
        for r in run.ratios:
            assert r <= m.gamma + 1e-12

    def test_average_spans_strictly_decrease_on_dense_model(self):
        # sparsity 0 gives entrywise-positive SAP rows, hence strict decrease
        m = random_instance(12, n=4, gamma=1.0, saps_per_state=2, sparsity=0.0)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        v0 = np.zeros(4)
        v0[0] = 1.0
        run = run_vi(norm, v0, steps=40)
        spans = run.spans
        for a, b in zip(spans, spans[1:]):
            assert b < a or b == 0.0

    @given(
        tied_models(),
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=5, max_size=5),
        st.integers(-1, 40),
    )
    def test_equals_stepwise_vi_step(self, m, v0, steps):
        # bit for bit, including a constant v0 and runs that stop at the span floor
        assert_run_equals_stepwise(run_vi(m, np.array(v0[: m.n]), steps), m, v0[: m.n], steps)

    @given(stacked_runs())
    def test_lockstep_rows_equal_stepwise_vi_step(self, case):
        models, v0s, budgets = case
        runs = convergence._run_stack(models, raw_rewards(models), v0s, budgets)
        assert len(runs) == len(models)
        for run, model, v0, steps in zip(runs, models, v0s, budgets):
            assert_run_equals_stepwise(run, model, v0, steps)

    @pytest.mark.parametrize("layout", ["uniform", "skewed"])
    @pytest.mark.parametrize("rows", [1, 3], ids=["lone", "stacked"])
    @given(data=st.data())
    def test_spans_only_runs_equal_greedy_runs(self, rows, layout, data):
        # a run without greedy picks gathers no SAP ids, but its spans, early stop and
        # final values are the greedy run's and vi_step's, bit for bit
        models, v0s, budgets = data.draw(stacked_runs(rows, layout))
        assert len(models[0]._sweep_blocks) == (2 if layout == "skewed" else 1)
        greedy = convergence._run_stack(models, raw_rewards(models), v0s, budgets)
        spans_only = convergence._run_stack(models, raw_rewards(models), v0s, budgets, False)
        for run, full, model, v0, steps in zip(spans_only, greedy, models, v0s, budgets):
            spans, ratios, _, early_stopped, final = stepwise_run(model, v0, steps)
            assert run.greedy is None
            assert run.spans == full.spans == spans
            assert run.ratios == ratios
            assert run.early_stopped == full.early_stopped == early_stopped
            assert run.final_values.tobytes() == full.final_values.tobytes() == final.tobytes()

    def test_a_row_at_the_floor_leaves_mid_stack(self):
        # the middle row stops at step 0, the last one at its budget of 2: the
        # stack is copied, then cut
        layout = [1, 0, 0, 2, 0, 0, 3, 0, 0]  # state 0's six SAPs make the sweep two blocks
        rng = np.random.default_rng(5)
        models = [
            make_model(4, 0.9, [(s, rng.random(), rng.dirichlet(np.ones(4))) for s in layout])
            for _ in range(3)
        ]
        assert len(models[0]._sweep_blocks) == 2
        v0s = [np.array([1.0, 0.0, 0.5, 0.0]), np.full(4, 4.0), np.array([0.0, 2.0, 1.0, 3.0])]
        budgets = [6, 6, 2]
        runs = convergence._run_stack(models, raw_rewards(models), v0s, budgets)
        assert [len(run.spans) for run in runs] == [7, 1, 3]
        assert [run.early_stopped for run in runs] == [False, True, False]
        for run, model, v0, steps in zip(runs, models, v0s, budgets):
            assert_run_equals_stepwise(run, model, v0, steps)

    def test_trace_lengths_consistent(self):
        m = random_instance(13, n=3, gamma=0.5, saps_per_state=2)
        run = run_vi(m, np.array([1.0, 0.0, 0.0]), steps=7)
        assert len(run.spans) == len(run.greedy)
        assert len(run.ratios) == len(run.spans) - 1


@st.composite
def generated_runs(draw, gamma, rows):
    """``rows`` generated models of one spec, so one SAP layout, each with a random v0 and a
    step budget of 0 to 60."""
    n, k = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    sparsity = draw(st.sampled_from([0.0, 0.3, 0.7]))
    hi = draw(st.sampled_from([1.0, 1e3]))
    seed = draw(st.integers(0, 2**31))
    models = [random_instance(seed + j, n, gamma, k, sparsity, (-hi, hi)) for j in range(rows)]
    rng = np.random.default_rng(seed)
    v0s = [rng.standard_normal(n) * 10.0 ** draw(st.integers(-2, 2)) for _ in models]
    return models, v0s, [draw(st.integers(0, 60)) for _ in models]


class TestClassicalOracle:
    """The advantage VI is classical VI in other coordinates: from v0, its iterates are C times
    classic.value_iteration's from v0 / C, up to constant shifts, at every gamma. The oracle
    takes its own per-state maxima, so a wrong scale or shift in the shared sweep shows."""

    @pytest.mark.parametrize("rows", [1, 3], ids=["lone", "stacked"])
    @pytest.mark.parametrize("gamma", [0.5, 0.95, 1.0])
    @given(data=st.data())
    def test_spans_are_c_times_classical_spans(self, gamma, rows, data):
        models, v0s, budgets = data.draw(generated_runs(gamma, rows))
        c = geometry.mdp_constant(models[0])
        compared = 0
        for run, m, v0 in zip(convergence._run_stack(models, raw_rewards(models), v0s, budgets), models, v0s):
            steps = len(run.spans) - 1
            oracle = classic.value_iteration(m, v0 / c, max_iters=steps, tol=-math.inf)  # no early stop
            assert len(oracle.iterates) == steps + 1
            scale = float(np.abs(m.sap_rewards).max())
            for t, u in enumerate(oracle.iterates):
                # rounding accumulates at most linearly in t, on the largest magnitude so far
                scale = max(scale, float(np.abs(u).max()))
                bound = 8 * (t + 1) * np.finfo(float).eps * scale
                assert abs(run.spans[t] - c * span(u)) <= c * bound
                q, picks = classic._bellman(m, u)
                for s in range(m.n):
                    best_two = np.sort(q[m.saps_at(s)])[::-1][:2]
                    if len(best_two) == 1 or best_two[0] - best_two[1] > 2 * bound:
                        assert run.greedy[t, s] == picks[s]
                        compared += 1
        assert compared > 0


class TestSuboptimalityGap:
    """The gap that _checked_gaps gives verify_contraction's plans: the negated largest
    advantage of a SAP outside the policy."""

    def test_swap_plus_selfloop(self, swap_plus_selfloop):
        m, pi = swap_plus_selfloop, Policy([0, 1])
        (delta,) = convergence._checked_gaps([m], [m.sap_rewards], [pi], m.sap_probs[pi.choice][None])
        assert delta == pytest.approx(0.5, abs=1e-12)

    def test_a_non_finite_reward_row_is_named(self, swap_plus_selfloop):
        # the rows given, not the model's own rewards, are checked: the first non-finite one of
        # pi's SAPs, in state order, is named with its value, and the other rows are solved
        m, pi = swap_plus_selfloop, Policy([0, 1])
        rows = [np.array([0.0, -np.inf, np.nan]), np.array([np.nan, 0.0, -0.5]), m.sap_rewards]
        kernels = np.stack([m.sap_probs[pi.choice]] * 3)
        first, second, third = convergence._checked_gaps([m] * 3, rows, [pi] * 3, kernels)
        assert isinstance(first, NonFiniteRewardError) and str(first) == "sap 1: reward -inf is not finite"
        assert isinstance(second, NonFiniteRewardError) and str(second) == "sap 0: reward nan is not finite"
        assert third == pytest.approx(0.5, abs=1e-12)

    def test_no_alternatives_is_infinite(self):
        # one SAP a state, on an aperiodic kernel: no SAP is outside pi*, and every factor is 1
        m = make_model(2, 1.0, [(0, 2.0, [0.5, 0.5]), (1, 0.0, [1, 0])])
        report = verify_contraction(m)
        assert report.diagnostics.all_pass
        assert report.constants.delta == math.inf
        assert report.constants.phi == report.constants.omega


class TestContractionConstants:
    """The constants of verify_contraction's report, and _constants on a given trace."""

    def test_uniform_kernel_certificate(self):
        # optimal kernel entrywise 1/2: exponent 1, omega 1/2
        m = make_model(
            2,
            1.0,
            [(0, 1.0, [0.5, 0.5]), (0, 0.0, [1, 0]), (1, 0.5, [0.5, 0.5])],
        )
        report = verify_contraction(m, np.array([1.0, 0.0]), trace_steps=1)
        assert report.pi_star == (0, 2)
        consts = report.constants
        assert consts.exponent == 1
        assert consts.omega == pytest.approx(0.5, abs=1e-12)
        assert consts.delta > 0

    def test_periodic_kernel_flagged(self, swap_plus_selfloop):
        report = verify_contraction(swap_plus_selfloop)
        assert report.pi_star == (0, 1)
        assert report.diagnostics.unichain and not report.diagnostics.aperiodic
        assert report.constants is None and report.bound_satisfied is None

    def test_multichain_kernel_flagged(self):
        m = make_model(2, 0.5, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        report = verify_contraction(m)
        assert not report.diagnostics.unichain
        assert report.constants is None and report.bound_satisfied is None

    def test_zero_gap_flagged(self):
        # duplicate optimal SAP: the non-member copy has advantage 0
        m = make_model(
            2,
            0.5,
            [(0, 1.0, [0.5, 0.5]), (0, 1.0, [0.5, 0.5]), (1, 0.0, [0.5, 0.5])],
        )
        pi = Policy([0, 2])
        (err,) = convergence._checked_gaps([m], [m.sap_rewards], [pi], m.sap_probs[pi.choice][None])
        assert isinstance(err, AssumptionViolatedError)
        assert err.diagnostic == "uniqueness"
        assert not verify_contraction(m).diagnostics.unique  # which the search reports first

    def test_early_convergence_leaves_phi_undefined(self):
        m = random_instance(21, n=3, gamma=0.5, saps_per_state=2)
        cert = PrimitivityCertificate(exponent=1, omega=0.1)
        consts = convergence._constants(m, cert, 0.5, [0.0])  # span hit zero at once
        assert consts.converged_early
        assert consts.phi is None and consts.tau is None

    def test_factor_capped_at_one(self):
        # n = 2, gamma = 1: C = 2 and step inputs 2.0 and 0.25; delta = 1 gives
        # factors 1/2 and min(1, 4) = 1, so phi = 0.25 / 2 and tau = 1 - 2 phi
        m = make_model(2, 1.0, [(0, 0.0, [0.5, 0.5]), (1, 0.0, [0.5, 0.5])])
        cert = PrimitivityCertificate(exponent=2, omega=0.25)
        consts = convergence._constants(m, cert, 1.0, [4.0, 0.5, 0.1])
        assert not consts.converged_early
        assert consts.phi == 0.125 and consts.tau == 0.75 and not consts.degenerate


class TestVerifyContraction:
    def test_non_unique_reports_without_verdict(self):
        m = make_model(
            2, 1.0, [(0, 2.0, [0, 1]), (0, 2.0, [0, 1]), (1, 0.0, [1, 0])]
        )
        report = verify_contraction(m)
        assert not report.diagnostics.unique
        assert report.bound_satisfied is None
        assert report.constants is None
        assert report.span_trace  # informational trace still recorded

    def test_periodic_optimal_kernel_informational(self, swap_model):
        report = verify_contraction(swap_model)
        assert report.diagnostics.unichain
        assert not report.diagnostics.aperiodic
        assert report.bound_satisfied is None
        assert report.exponent is None

    def test_discounted_random_model_bound_holds(self):
        m = random_instance(31, n=5, gamma=0.5, saps_per_state=2, reward_range=(-0.3, 0.3))
        report = verify_contraction(m)
        assert report.diagnostics.all_pass
        assert report.constants is not None
        if not (report.constants.degenerate or report.converged_early):
            assert report.bound_satisfied is True
            assert report.constants.tau < 1.0
        assert report.sanity_bound_satisfied is True

    def test_average_reward_model_converges(self):
        m = random_instance(37, n=4, gamma=1.0, saps_per_state=2, sparsity=0.2)
        report = verify_contraction(m, trace_steps=300)
        assert report.diagnostics.all_pass
        assert report.span_trace[-1] <= 1e-9
        assert tuple(report.greedy_policies[-1]) == report.pi_star

    def test_v0_defaults_to_first_basis_vector(self):
        m = random_instance(41, n=4, gamma=0.9, saps_per_state=2)
        report = verify_contraction(m)
        assert report.v0 == (1.0, 0.0, 0.0, 0.0)
        assert report.span_trace[0] == 1.0

    # measured max of |difference| / (1 - gamma) over 290 unichain models (n 3-6,
    # 2-3 SAPs, sparsity 0 and 0.3) and k = 6..12: 2.94 for tau, 1.11 for delta
    LIMIT_C = 10.0

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(3, 6),
        saps=st.integers(2, 3),
        sparsity=st.sampled_from([0.0, 0.3]),
        k=st.integers(6, 12),
    )
    def test_report_tends_to_gamma_one(self, seed, n, saps, sparsity, k):
        # the pipeline stays well posed as gamma -> 1, and pi*, delta and tau reach
        # their gamma = 1 values linearly in 1 - gamma
        at_one = verify_contraction(random_instance(seed, n=n, gamma=1.0, saps_per_state=saps, sparsity=sparsity))
        limit = at_one.constants
        assume(at_one.diagnostics.all_pass and limit.tau is not None)
        gamma = 1 - 10.0**-k
        report = verify_contraction(random_instance(seed, n=n, gamma=gamma, saps_per_state=saps, sparsity=sparsity))
        assert report.pi_star == at_one.pi_star
        assert abs(report.constants.delta - limit.delta) <= self.LIMIT_C * (1 - gamma)
        assert abs(report.constants.tau - limit.tau) <= self.LIMIT_C * (1 - gamma)

    # To first order in eps = 1 - gamma, with the same rewards, rows and v0: the run is classical
    # VI u_{t+1} = max_a (r_a + gamma P_a u_t) on u = v / C, with C = n - eps (n - 1) and r the
    # normalized rewards, which move by at most D (max norm). A step moves u by eps P u_t and by
    # at most D, P does not widen a span, and span_0 = span(v0) at both gammas, so span_t = C
    # span(u_t) moves by at most eps ((n - 1) / C (span_t + span_0) + sum_{s < t} span_s) + 2 t C D.
    # phi is omega times factors min(1, delta C / (gamma span_t)) for t < N, and delta moves by at
    # most D, so tau = 1 - n phi moves by at most n phi sum_{t < N} (D / delta + eps (1 + (n - 1)
    # / C) + |span_t move| / span_t). Over 33,152 draws of this domain kept, the spans moved by at
    # most 0.60 of their bound and tau by at most 1.05 of its own; K leaves a margin of 1.9.
    NEAR_ONE_K = 2.0

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(3, 6),
        saps=st.integers(2, 3),
        sparsity=st.floats(0.0, 0.5),
        k=st.floats(4.0, 12.0),
    )
    def test_verdicts_at_gamma_near_one_match_gamma_one(self, seed, n, saps, sparsity, k):
        # one v0 at gamma = 1 and at 1 - eps, for a unique unichain aperiodic optimum at 1 whose
        # gap leaves room for a move of order eps: the same diagnostics and exponent, the spans
        # and tau within K times their first-order bounds, and the same verdicts wherever the
        # gamma = 1 margin exceeds what those bounds let them move
        eps, bound = 10.0**-k, self.NEAR_ONE_K
        m = random_instance(seed, n=n, gamma=1.0, saps_per_state=saps, sparsity=sparsity)
        v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        one = verify_contraction(m, v0)
        lim = one.constants
        assume(one.diagnostics.all_pass and lim.delta >= 1e3 * eps)
        assume(not (lim.converged_early or lim.degenerate))  # the verdicts read tau
        near_model = MdpModel(n, m.saps, 1.0 - eps)
        near = verify_contraction(near_model, v0)
        assert near.diagnostics == one.diagnostics and near.exponent == one.exponent
        shift = float(np.abs(optimal_policy(near_model).advantages - optimal_policy(m).advantages).max())
        c, spans, near_spans = float(n), one.span_trace, near.span_trace
        assert len(near_spans) == len(spans)
        moves = [
            eps * ((n - 1) / c * (s + spans[0]) + sum(spans[:t])) + 2 * t * c * shift for t, s in enumerate(spans)
        ]
        for s, near_s, move in zip(spans, near_spans, moves):
            assert abs(near_s - s) <= bound * move
        n_steps = lim.exponent
        relative = [shift / lim.delta + eps * (1 + (n - 1) / c) + moves[t] / spans[t] for t in range(n_steps)]
        tau_move = n * lim.phi * sum(relative)
        assert abs(near.constants.tau - lim.tau) <= bound * tau_move
        for verdict, rhs, rhs_move in (
            ("bound_satisfied", lim.tau * spans[0], (n_steps * eps * lim.tau + bound * tau_move) * spans[0]),
            ("sanity_bound_satisfied", spans[0], n_steps * eps * spans[0]),
        ):
            if abs(rhs + convergence.BOUND_SLACK - spans[n_steps]) > rhs_move + bound * moves[n_steps]:
                assert getattr(near, verdict) == getattr(one, verdict), verdict

    def test_no_unichain_policy_reports_instead_of_crashing(self):
        # both states absorbing under the only policy: nothing to optimize at gamma=1
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        report = verify_contraction(m)
        assert report.pi_star is None
        assert not report.diagnostics.unichain
        assert report.bound_satisfied is None
        assert report.span_trace

    @pytest.mark.parametrize(
        "v0, message",
        [
            (np.zeros(3), r"v0 has shape \(3,\), expected \(4,\)"),
            (np.zeros((2, 4)), r"v0 has shape \(2, 4\), expected \(4,\)"),
            (np.full(4, np.nan), r"v0\[0\] is nan, not finite"),
            (np.array([0.0, 1.0, np.inf, 0.0]), r"v0\[2\] is inf, not finite"),
        ],
        ids=["length-3", "shape-2x4", "all-nan", "one-inf"],
    )
    def test_a_v0_that_is_not_n_finite_reals_is_refused(self, v0, message):
        model = random_instance(0, n=4, gamma=0.9, saps_per_state=2)
        with pytest.raises(ValueError, match=message):
            verify_contraction(model, v0)

    def test_chunked_reports_equal_one_at_a_time(self, monkeypatch):
        # the chunked verification against verify_contraction, field by field,
        # with greedy picks and spans only (a sweep's): chunks of one n, gamma
        # and SAP layout each, v0=None and failing diagnostics, each chunk
        # planned in lockstep and iterated in one run
        rng = np.random.default_rng(11)
        skewed = [1, 0, 0, 2, 0, 0, 3, 0, 0]  # state 0's six SAPs: two sweep blocks
        models = [random_instance(s, n=4, gamma=0.9, saps_per_state=2, sparsity=0.3) for s in range(7)]
        models += [random_instance(s, n=5, gamma=1.0, saps_per_state=3, sparsity=0.3) for s in range(3)]
        models += [
            make_model(4, 0.9, [(s, rng.random(), rng.dirichlet(np.ones(4))) for s in skewed])
            for _ in range(3)
        ]
        models += [
            make_model(2, 1.0, [(0, 2.0, [0, 1]), (0, 2.0, [0, 1]), (1, 0.0, [1, 0])]),  # not unique
            make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])]),  # no unichain policy
        ]
        v0s = [None if i % 3 == 0 else rng.random(m.n) for i, m in enumerate(models)]
        pairs = list(zip(models, v0s))
        chunks = [pairs[:7], pairs[7:10], pairs[10:13], pairs[13:14], pairs[14:]]
        # the heights of the lockstep runs, and of the chunks planned in lockstep
        heights = record_heights(monkeypatch, [(convergence, "_run_stack"), (convergence, "_plans")])
        reports = [report for chunk in chunks for report in convergence._verify_chunk(chunk)]
        assert heights["_run_stack"] == heights["_plans"] == [len(chunk) for chunk in chunks]
        # a sweep's chunks record spans only: the same reports, without greedy policies
        lean = [report for chunk in chunks for report in convergence._verify_chunk(chunk, greedy=False)]
        for report, spans_only, model, v0 in zip(reports, lean, models, v0s):
            alone = verify_contraction(model, v0)
            assert spans_only.greedy_policies is None
            names = [f.name for f in dataclasses.fields(alone)] + ["per_step_ratios", "unnormalized_span_trace"]
            for name in names:
                want = getattr(alone, name)
                checked = (report,) if name == "greedy_policies" else (report, spans_only)
                for got in (getattr(r, name) for r in checked):
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                    else:
                        assert repr(got) == repr(want), name


def record_loop(monkeypatch):
    """Log each evaluation and each greedy selection of ``geometry._howard``.

    An evaluation is logged as (run, rows) and a selection as run: run is
    "search" inside the loop and "lone" for an evaluation outside it; rows is
    the height of the evaluated stack, one row per model still searching.
    """
    log = {"evaluations": [], "selections": []}
    runs = ["lone"]
    howard, solve, select = geometry._howard, geometry._solve, kernels._select

    def in_run(models, choice):
        runs.append("search")
        try:
            return howard(models, choice)
        finally:
            runs.pop()

    def evaluating(model, kernel_stack, rewards):
        log["evaluations"].append((runs[-1], len(kernel_stack)))
        return solve(model, kernel_stack, rewards)

    def selecting(q, tables, size, greedy):
        if runs[-1] != "lone":  # value iteration selects outside the loop
            log["selections"].append(runs[-1])
        return select(q, tables, size, greedy)

    monkeypatch.setattr(geometry, "_howard", in_run)
    monkeypatch.setattr(geometry, "_solve", evaluating)
    monkeypatch.setattr(kernels, "_select", selecting)
    return log


def record_heights(monkeypatch, bindings):
    """Wrap each (module, name) binding of a function whose first argument is a stack;
    return a dict of the stack heights it was called with, by name."""
    heights = {}
    for module, name in bindings:
        fn = getattr(module, name)
        heights[name] = []

        def recorded(stack, *args, _fn=fn, _name=name):
            heights[_name].append(len(stack))
            return _fn(stack, *args)

        monkeypatch.setattr(module, name, recorded)
    return heights


class TestWorkCounts:
    """Each fact about the optimal policy is computed once per pipeline run."""

    @pytest.mark.parametrize(
        "m",
        [
            random_instance(31, n=5, gamma=0.5, saps_per_state=3),
            random_instance(37, n=4, gamma=1.0, saps_per_state=2, sparsity=0.2),
        ],
        ids=["discounted", "average"],
    )
    def test_verify_contraction(self, monkeypatch, m):
        calls = count_calls(
            monkeypatch,
            [
                (chains, "classify_chain"),
                (convergence, "classify_chain"),
                (chains, "primitivity_certificate"),
                (geometry, "evaluate_policy"),
                (classic, "evaluate_discounted"),
                (classic, "evaluate_average"),
                (classic, "optimal_policy"),
                (geometry, "check_policy"),
                (model, "check_policy"),
            ],
        )
        # the plan's own chain structure and certificate, not the search's classifications
        heights = record_heights(monkeypatch, [(chains, "_classify"), (chains, "_certificates")])
        log = record_loop(monkeypatch)
        report = verify_contraction(m)
        assert report.diagnostics.all_pass
        # one certificate of pi*'s kernel; one classification of it at gamma < 1, none at
        # gamma = 1, where the search's last round classified it
        assert heights["_classify"] == ([] if m.is_average_reward else [1])
        assert heights["_certificates"] == [1]
        assert calls["classify_chain"] == calls["primitivity_certificate"] == 0
        # the search's rounds: two improvements, then no change; at gamma = 1 no other run
        assert log["selections"] == ["search"] * 3
        # exactly one evaluation of one policy per round, plus one for the normalized model's gap
        assert log["evaluations"] == [("search", 1)] * 3 + [("lone", 1)]
        assert calls["evaluate_policy"] == 0
        # the normalized rewards are the search's last advantages; the oracles are not called,
        # as the plan reads no V* and no gain
        assert calls["evaluate_discounted"] == calls["evaluate_average"] == calls["optimal_policy"] == 0
        # pi* comes from the search, so nothing checks it again
        assert calls["check_policy"] == 0

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_a_chunk_is_planned_in_lockstep(self, monkeypatch, gamma):
        # per trial, one evaluation per round of its own search, and one classification
        # (gamma < 1) and one certificate: all of them in one stack for the chunk
        ms = [random_instance(s, n=5, gamma=gamma, saps_per_state=3, sparsity=0.2) for s in range(8)]
        log = record_loop(monkeypatch)
        rounds = []
        for m in ms:
            optimal_policy(m)
            rounds.append(len(log["evaluations"]))
            log["evaluations"].clear()
            log["selections"].clear()
        heights = record_heights(monkeypatch, [(chains, "_classify"), (chains, "_certificates")])
        reports = convergence._verify_chunk([(m, None) for m in ms])
        counted = sum(r.diagnostics.all_pass for r in reports)
        assert counted > 1 and max(rounds) > min(rounds)
        searching = [sum(r >= t for r in rounds) for t in range(1, max(rounds) + 1)]
        assert log["evaluations"] == [("search", k) for k in searching] + [("lone", counted)]
        assert log["selections"] == ["search"] * max(rounds)
        assert heights["_classify"] == ([] if gamma == 1.0 else [len(ms)])
        assert heights["_certificates"] == [len(ms)]

    def test_raw_run_only_when_read(self, monkeypatch):
        m = random_instance(31, n=5, gamma=0.5, saps_per_state=3)
        calls = count_calls(monkeypatch, [(convergence, "_run_stack")])
        report = verify_contraction(m)
        assert calls["_run_stack"] == 1
        raw = report.unnormalized_span_trace
        assert report.unnormalized_span_trace is raw  # computed once
        assert calls["_run_stack"] == 2
        assert raw == run_vi(m, np.array(report.v0), report.steps).spans

    def test_no_unichain_policy_runs_once(self, monkeypatch):
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        calls = count_calls(monkeypatch, [(convergence, "_run_stack")])
        report = verify_contraction(m)
        assert report.unnormalized_span_trace == report.span_trace
        assert calls["_run_stack"] == 1

    def test_howard_evaluates_once_per_iteration(self, monkeypatch):
        m = random_instance(3, n=8, gamma=0.95, saps_per_state=3)
        calls = count_calls(monkeypatch, [(geometry, "evaluate_policy"), (classic, "evaluate_discounted")])
        log = record_loop(monkeypatch)
        geometry.optimal_policy(m)
        assert log["selections"] == ["search"] * 3  # two improvements, then no change
        assert log["evaluations"] == [("search", 1)] * 3
        # the loop solves through its stacked evaluation, not evaluate_policy or the oracle
        assert calls["evaluate_policy"] == calls["evaluate_discounted"] == 0


def plan_bits(plan):
    """Every field of a plan as exact bits, or the type and message of the exception planning raised."""
    if isinstance(plan, Exception):
        return type(plan), str(plan)
    cert = plan.cert
    return (
        plan.pi_star.as_tuple() if plan.pi_star is not None else None,
        plan.diagnostics,
        plan.v0.tobytes(),
        plan.rewards.tobytes(),
        plan.rewards is plan.model.sap_rewards,
        (cert.exponent, cert.omega.hex()) if cert is not None else None,
        plan.steps,
        plan.delta.hex() if plan.delta is not None else None,
    )


def search_bits(found):
    """A search result of geometry._howard as exact bits, or the type and message of its exception."""
    if isinstance(found, Exception):
        return type(found), str(found)
    choice, v, adv, recurrent = found
    return choice.tobytes(), v.tobytes(), adv.tobytes(), None if recurrent is None else recurrent.tobytes()


def lone_plan(model, v0, trace_steps=None):
    return convergence._plans([(model, v0)], trace_steps)[0]


def tied_model():
    # 0,3,7,11 ties other optima that share its recurrent class and its SAPs there
    m = random_instance(590126, n=4, gamma=1.0, saps_per_state=3, sparsity=0.58)
    return m._with_rewards(m.sap_rewards * 2.0**36)


def skewed_model(seed, gamma, sparsity):
    # state 0 has six SAPs and the others one each: two sweep blocks
    rng = np.random.default_rng(seed)
    states = [1, 0, 0, 2, 0, 0, 3, 0, 0]
    return make_model(4, gamma, [(s, rng.random(), random_stochastic(rng, 4, sparsity)[0]) for s in states])


def plan_kinds(plan):
    """The kinds of row that a plan is: which diagnostics fail, and how."""
    if plan.pi_star is None:
        return {"multichain optimum"}
    kinds = set() if plan.diagnostics.unique else {"not unique"}
    if not plan.diagnostics.unichain:
        kinds.add("reducible")
    elif not plan.diagnostics.aperiodic:
        kernel = plan.model.sap_probs[plan.pi_star.choice]
        kinds.add("transient" if classify_chain(kernel).transient_states else "periodic")
    return kinds or {"passes"}


class TestLockstepPlans:
    """A chunk's plans, settled in lockstep, equal each trial's plan bit for bit."""

    @staticmethod
    def chunk(gamma):
        ms = [random_instance(s, n=4, gamma=gamma, saps_per_state=3, sparsity=0.58 + s % 2 * 0.12) for s in range(60)]
        if gamma == 1.0:
            ms.insert(17, tied_model())
        rng = np.random.default_rng(5)
        return [(m, None if i % 4 == 0 else rng.uniform(-1.0, 1.0, m.n)) for i, m in enumerate(ms)]

    @pytest.mark.parametrize(
        "gamma, kinds",
        [
            (0.9, {"passes", "periodic", "transient", "reducible"}),
            (1.0, {"passes", "periodic", "transient", "multichain optimum", "not unique"}),
        ],
    )
    def test_plans_equal_lone_plans(self, gamma, kinds):
        pairs = self.chunk(gamma)
        plans = convergence._plans(pairs, None)
        assert [plan_bits(p) for p in plans] == [plan_bits(lone_plan(m, v0)) for m, v0 in pairs]
        assert set().union(*map(plan_kinds, plans)) == kinds

    @pytest.mark.parametrize("gamma", [0.9, 1.0])
    def test_search_equals_lone_search(self, gamma):
        ms = [m for m, _ in self.chunk(gamma)]
        start = lowest_index_policy(ms[0]).choice
        found = geometry._howard(ms, np.tile(start, (len(ms), 1)))
        assert [search_bits(f) for f in found] == [search_bits(geometry._howard([m], start[None])[0]) for m in ms]
        # rows retire in different rounds, and at gamma = 1 some with a multichain optimum
        assert len({f[0].tobytes() for f in found if not isinstance(f, Exception)}) > 10
        assert any(isinstance(f, NotUnichainError) for f in found) == (gamma == 1.0)

    @given(
        skewed=st.booleans(),
        gamma=st.sampled_from([0.9, 1.0]),
        seeds=st.lists(st.integers(0, 10**6), min_size=2, max_size=7),
        sparsity=st.sampled_from([0.0, 0.5, 0.7]),
        tie=st.booleans(),
        trace_steps=st.sampled_from([None, 30]),
    )
    def test_random_chunks_equal_lone_plans(self, skewed, gamma, seeds, sparsity, tie, trace_steps):
        if skewed:
            ms = [skewed_model(s, gamma, sparsity) for s in seeds]
        else:
            ms = [random_instance(s, n=4, gamma=gamma, saps_per_state=3, sparsity=sparsity) for s in seeds]
            if tie and gamma == 1.0:
                ms.insert(1, tied_model())
        pairs = [(m, None if i % 2 else np.linspace(-1.0, 1.0, m.n)) for i, m in enumerate(ms)]
        plans = convergence._plans(pairs, trace_steps)
        assert [plan_bits(p) for p in plans] == [plan_bits(lone_plan(m, v0, trace_steps)) for m, v0 in pairs]

    @pytest.mark.parametrize("gamma", [0.9, 1.0])
    def test_only_the_first_model_builds_tables(self, gamma):
        # the search and the value iterations read the by-state tables of the chunk's first
        # model, which builds them itself; the others, drawn together, build none
        spec = GeneratorSpec(n=5, saps_per_state=3, gamma=gamma, sparsity=0.2)
        ms = [m for m, _ in _generate(spec, _states(range(4)))]
        assert not any({"_by_state", "_sweep_blocks"} & vars(m).keys() for m in ms)
        reports = convergence._verify_chunk([(m, None) for m in ms])
        assert sum(r.diagnostics.all_pass for r in reports) > 1
        assert {"_by_state", "_sweep_blocks"} <= vars(ms[0]).keys()
        assert not any({"_by_state", "_sweep_blocks"} & vars(m).keys() for m in ms[1:])

    def test_a_state_without_saps_fails_as_alone(self):
        ms = [make_model(3, 0.9, [(0, r, [1, 0, 0]), (2, 0.0, [0, 0, 1])]) for r in (1.0, 2.0)]
        with pytest.raises(ValidationFailedError) as alone:
            verify_contraction(ms[0])
        with pytest.raises(ValidationFailedError) as chunked:
            convergence._verify_chunk([(m, None) for m in ms])
        assert chunked.value.violations == alone.value.violations == ["state 1: no SAP attached"]

    def test_the_first_error_in_pair_order_is_raised(self):
        ms = [random_instance(s, n=4, gamma=0.9, saps_per_state=3) for s in range(6)]
        nan = ms[4]._with_rewards(np.where(np.arange(ms[4].m) == 5, np.nan, ms[4].sap_rewards))
        late = ms[2]._with_rewards(np.where(np.arange(ms[2].m) == 7, np.inf, ms[2].sap_rewards))
        with pytest.raises(NonFiniteRewardError, match="sap 7"):
            convergence._verify_chunk([(m, None) for m in [*ms[:2], late, ms[3], nan]])
        with pytest.raises(NonFiniteRewardError, match="sap 5"):
            convergence._verify_chunk([(m, None) for m in [*ms[:4], nan]])

    @pytest.mark.parametrize("bad_v0, nan_reward", [(1, 3), (3, 1), (2, 2)])
    def test_a_bad_v0_and_a_nan_reward_fail_in_pair_order(self, bad_v0, nan_reward):
        # the rewards of the chunk are checked at once; the first failing pair's error is
        # raised, and within one pair its v0's error comes before its rewards'
        ms = [random_instance(s, n=4, gamma=0.9, saps_per_state=3) for s in range(5)]
        nan = ms[nan_reward]
        ms[nan_reward] = nan._with_rewards(np.where(np.arange(nan.m) == 5, np.nan, nan.sap_rewards))
        pairs = [(m, np.ones(3) if i == bad_v0 else None) for i, m in enumerate(ms)]
        if bad_v0 <= nan_reward:
            with pytest.raises(ValueError, match=r"v0 has shape \(3,\)"):
                convergence._verify_chunk(pairs)
        else:
            with pytest.raises(NonFiniteRewardError, match="sap 5: reward nan"):
                convergence._verify_chunk(pairs)

    def test_a_sweep_chunk_iterates_within_twice_the_budget(self, monkeypatch):
        # a chunk of more than one trial has (k, m, n) transition rows within VI_STACK_BYTES,
        # and its one run records at most wielandt_bound(n) + 1 spans per row and no picks:
        # at most twice the budget for n >= 2, and three times at n = 1
        budget, worst = convergence.VI_STACK_BYTES, 0.0
        for n in range(1, 400):
            for saps in range(1, 9):
                m = n * saps
                k = convergence._chunk_size(m, n)
                if k > 1:
                    held = 8 * k * (m * n + chains.wielandt_bound(n) + 1)
                    assert held <= (2 if n > 1 else 3) * budget, (n, saps)
                    worst = max(worst, held / budget) if n > 1 else worst
        assert 1.9 < worst < 2
        # a chunk's run records no more spans than that
        runs, run_stack = [], convergence._run_stack
        monkeypatch.setattr(convergence, "_run_stack", lambda *args: runs.append(args) or run_stack(*args))
        for gamma in (0.9, 1.0):
            ms = [random_instance(s, n=5, gamma=gamma, saps_per_state=2, sparsity=0.5) for s in range(20)]
            convergence._verify_chunk([(m, None) for m in ms], greedy=False)
        for models, _, _, budgets, greedy in runs:
            assert len(models) == 20 and not greedy and max(budgets) <= chains.wielandt_bound(5)


class TestProductExpansion:
    def test_single_matrix(self):
        # (P - E) - P = -E has identical rows
        rng = np.random.default_rng(0)
        assert product_expansion_check([random_stochastic(rng, 3)])

    def test_two_random_3x3(self):
        rng = np.random.default_rng(1)
        mats = [random_stochastic(rng, 3) for _ in range(2)]
        assert product_expansion_check(mats)

    def test_five_random_4x4(self):
        rng = np.random.default_rng(2)
        mats = [random_stochastic(rng, 4) for _ in range(5)]
        assert product_expansion_check(mats)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            product_expansion_check([np.array([[0.5, 0.6], [1.0, 0.0]])])
        with pytest.raises(ValueError):
            product_expansion_check([])
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            product_expansion_check([random_stochastic(rng, 2), random_stochastic(rng, 3)])

    def test_rows_actually_identical(self):
        rng = np.random.default_rng(4)
        mats = [random_stochastic(rng, 3) for _ in range(3)]
        e = np.ones((3, 3))
        shifted = mats[0] - e
        plain = mats[0].copy()
        for m in mats[1:]:
            shifted = shifted @ (m - e)
            plain = plain @ m
        e_prime = shifted - plain
        assert np.max(np.abs(e_prime - e_prime[0])) <= 1e-12
