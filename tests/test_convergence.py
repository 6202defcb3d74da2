import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mdpgeom import (
    AssumptionViolatedError,
    Policy,
    advantages,
    contraction_constants,
    evaluate_policy,
    normalize_rewards,
    optimal_policy,
    product_expansion_check,
    run_vi,
    span,
    suboptimality_gap,
    verify_contraction,
    vi_step,
)

from mdpgeom import classic, convergence, geometry, kernels, model

from conftest import count_calls, make_model, random_instance, random_stochastic


def stepwise_run(model, v0, steps):
    """run_vi as a loop over vi_step: (spans, ratios, greedy rows, early_stopped)."""
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
    return spans, ratios, np.array(greedy), early_stopped


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
            if r is not None:
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
        spans, ratios, greedy, early_stopped = stepwise_run(m, v0[: m.n], steps)
        run = run_vi(m, np.array(v0[: m.n]), steps)
        assert run.spans == spans
        assert run.ratios == ratios
        assert run.greedy.dtype == np.int64
        assert run.greedy.shape == (len(spans), m.n)
        np.testing.assert_array_equal(run.greedy, greedy)
        assert run.early_stopped == early_stopped

    def test_trace_lengths_consistent(self):
        m = random_instance(13, n=3, gamma=0.5, saps_per_state=2)
        run = run_vi(m, np.array([1.0, 0.0, 0.0]), steps=7)
        assert len(run.spans) == len(run.greedy)
        assert len(run.ratios) == len(run.spans) - 1


class TestSuboptimalityGap:
    def test_swap_plus_selfloop(self, swap_plus_selfloop):
        assert suboptimality_gap(swap_plus_selfloop, Policy([0, 1])) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_no_alternatives_is_infinite(self, swap_model):
        assert suboptimality_gap(swap_model, Policy([0, 1])) == math.inf


class TestContractionConstants:
    def test_uniform_kernel_certificate(self):
        # optimal kernel entrywise 1/2: exponent 1, omega 1/2
        m = make_model(
            2,
            1.0,
            [(0, 1.0, [0.5, 0.5]), (0, 0.0, [1, 0]), (1, 0.5, [0.5, 0.5])],
        )
        star = optimal_policy(m).policy
        assert star.as_tuple() == (0, 2)
        norm = normalize_rewards(m, star)
        run = run_vi(norm, np.array([1.0, 0.0]), steps=1)
        consts = contraction_constants(norm, star, run.spans)
        assert consts.exponent == 1
        assert consts.omega == pytest.approx(0.5, abs=1e-12)
        assert consts.delta > 0

    def test_periodic_kernel_flagged(self, swap_plus_selfloop):
        star = Policy([0, 1])
        with pytest.raises(AssumptionViolatedError) as err:
            contraction_constants(swap_plus_selfloop, star, [1.0, 0.5])
        assert err.value.diagnostic == "aperiodicity"

    def test_multichain_kernel_flagged(self):
        m = make_model(2, 0.5, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        with pytest.raises(AssumptionViolatedError) as err:
            contraction_constants(m, Policy([0, 1]), [1.0])
        assert err.value.diagnostic == "unichain"

    def test_zero_gap_flagged(self):
        # duplicate optimal SAP: the non-member copy has advantage 0
        m = make_model(
            2,
            0.5,
            [(0, 1.0, [0.5, 0.5]), (0, 1.0, [0.5, 0.5]), (1, 0.0, [0.5, 0.5])],
        )
        with pytest.raises(AssumptionViolatedError) as err:
            contraction_constants(m, Policy([0, 2]), [1.0, 0.5])
        assert err.value.diagnostic == "uniqueness"

    def test_early_convergence_leaves_phi_undefined(self):
        m = random_instance(21, n=3, gamma=0.5, saps_per_state=2)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        consts = contraction_constants(norm, star, [0.0])  # span hit zero at once
        assert consts.converged_early
        assert consts.phi is None and consts.tau is None


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

    def test_no_unichain_policy_reports_instead_of_crashing(self):
        # both states absorbing under the only policy: nothing to optimize at gamma=1
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        report = verify_contraction(m)
        assert report.pi_star is None
        assert not report.diagnostics.unichain
        assert report.bound_satisfied is None
        assert report.span_trace


def record_loop(monkeypatch):
    """Log each evaluation and each greedy selection of ``geometry._howard`` as (run, rows).

    run is "search" in the one-row optimal-policy search, "certificate" in the
    masked stack of the gamma = 1 uniqueness check, and "lone" for an
    evaluation outside the loop; rows is the size of the stack.
    """
    log = {"evaluations": [], "selections": []}
    runs = ["lone"]
    howard, evaluate, greedy_by_state = geometry._howard, geometry._evaluate, kernels.greedy_by_state

    def in_run(model, choices, masked=None, limit=None):
        runs.append("search" if masked is None else "certificate")
        try:
            return howard(model, choices, masked, limit)
        finally:
            runs.pop()

    def evaluating(model, choices):
        log["evaluations"].append((runs[-1], len(choices)))
        return evaluate(model, choices)

    def selecting(model, q):
        if runs[-1] != "lone":  # value iteration selects outside the loop
            log["selections"].append((runs[-1], len(q)))
        return greedy_by_state(model, q)

    monkeypatch.setattr(geometry, "_howard", in_run)
    monkeypatch.setattr(geometry, "_evaluate", evaluating)
    monkeypatch.setattr(kernels, "greedy_by_state", selecting)
    return log


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
                (convergence, "classify_chain"),
                (convergence, "primitivity_certificate"),
                (convergence, "evaluate_policy"),
                (geometry, "evaluate_policy"),
                (classic, "evaluate_discounted"),
                (classic, "evaluate_average"),
                (classic, "optimal_policy"),
                (geometry, "check_policy"),
                (model, "check_policy"),
            ],
        )
        log = record_loop(monkeypatch)
        report = verify_contraction(m)
        assert report.diagnostics.all_pass
        assert calls["classify_chain"] == 1
        assert calls["primitivity_certificate"] == 1
        # the search's rounds: two improvements, then no change
        search = [entry for entry in log["selections"] if entry[0] == "search"]
        assert search == [("search", 1)] * 3
        # gamma = 1: the four SAPs outside pi* start four restricted runs in one stack,
        # and two of them run a second round
        certificate = [entry for entry in log["selections"] if entry[0] == "certificate"]
        assert certificate == ([("certificate", 4), ("certificate", 2)] if m.is_average_reward else [])
        # exactly one evaluation per round, plus one for the normalized model's gap
        assert log["evaluations"] == log["selections"] + [("lone", 1)]
        assert calls["evaluate_policy"] == 1
        # the normalized rewards are the search's last advantages; the oracles are not called,
        # except that at gamma = 1 pi*'s gain comes from classic.evaluate_average
        assert calls["evaluate_discounted"] == calls["optimal_policy"] == 0
        assert calls["evaluate_average"] == m.is_average_reward
        # one check per evaluate_policy or evaluate_average call, plus one for pi*'s kernel
        assert calls["check_policy"] == calls["evaluate_policy"] + calls["evaluate_average"] + 1

    def test_raw_run_only_when_read(self, monkeypatch):
        m = random_instance(31, n=5, gamma=0.5, saps_per_state=3)
        calls = count_calls(monkeypatch, [(convergence, "run_vi")])
        report = verify_contraction(m)
        assert calls["run_vi"] == 1
        raw = report.unnormalized_span_trace
        assert report.unnormalized_span_trace is raw  # computed once
        assert calls["run_vi"] == 2
        assert raw == run_vi(m, np.array(report.v0), report.steps).spans

    def test_no_unichain_policy_runs_once(self, monkeypatch):
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        calls = count_calls(monkeypatch, [(convergence, "run_vi")])
        report = verify_contraction(m)
        assert report.unnormalized_span_trace == report.span_trace
        assert calls["run_vi"] == 1

    def test_howard_evaluates_once_per_iteration(self, monkeypatch):
        m = random_instance(3, n=8, gamma=0.95, saps_per_state=3)
        calls = count_calls(monkeypatch, [(geometry, "evaluate_policy"), (classic, "evaluate_discounted")])
        log = record_loop(monkeypatch)
        geometry.optimal_policy(m)
        assert log["selections"] == [("search", 1)] * 3  # two improvements, then no change
        assert log["evaluations"] == log["selections"]
        # the loop solves through its stacked evaluation, not evaluate_policy or the oracle
        assert calls["evaluate_policy"] == calls["evaluate_discounted"] == 0


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
