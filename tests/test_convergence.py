import dataclasses
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

from mdpgeom import chains, classic, convergence, geometry, kernels, model
from mdpgeom.chains import classify_chain
from mdpgeom.errors import NonFiniteRewardError, NotUnichainError, ValidationFailedError
from mdpgeom.model import lowest_index_policy

from conftest import count_calls, make_model, random_instance, random_stochastic


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
def stacked_runs(draw):
    """Models sharing n, gamma and a SAP layout, with a v0 and a step budget each.

    SAP counts per state may be skewed, which splits the greedy sweep into
    several blocks. Rows of the identity and the uniform row make ties and
    runs that reach the span floor; a v0 is random, constant or of span
    about 1e-12, and a budget may be 0 or negative.
    """
    n = draw(st.integers(1, 5))
    gamma = draw(st.sampled_from([0.5, 0.9, 1.0]))
    counts = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    states = draw(st.permutations([s for s in range(n) for _ in range(counts[s])]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed_rows = [np.eye(n)[0], np.full(n, 1.0 / n), np.eye(n)[n - 1]]
    models, v0s, budgets = [], [], []
    for _ in range(draw(st.integers(1, 6))):
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
        runs = convergence._run_stack(models, v0s, budgets)
        assert len(runs) == len(models)
        for run, model, v0, steps in zip(runs, models, v0s, budgets):
            assert_run_equals_stepwise(run, model, v0, steps)

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
        runs = convergence._run_stack(models, v0s, budgets)
        assert [len(run.spans) for run in runs] == [7, 1, 3]
        assert [run.early_stopped for run in runs] == [False, True, False]
        for run, model, v0, steps in zip(runs, models, v0s, budgets):
            assert_run_equals_stepwise(run, model, v0, steps)

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

    def test_chunked_reports_equal_one_at_a_time(self, monkeypatch):
        # the sweep's chunked verification against verify_contraction, field by
        # field: chunks of one n, gamma and SAP layout each, v0=None, failing
        # diagnostics, and a stack budget of a few rows, so each chunk, planned
        # in lockstep, splits into several runs
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
        monkeypatch.setattr(convergence, "VI_STACK_BYTES", 3 * 8 * 4 * (8 + 11))
        reports = [report for chunk in chunks for report in convergence._verify_chunk(chunk)]
        stacks = heights["_run_stack"]
        assert sum(stacks) == len(models) and max(stacks) > 1 and len(stacks) > 5
        assert heights["_plans"] == [len(chunk) for chunk in chunks]
        for report, model, v0 in zip(reports, models, v0s):
            alone = verify_contraction(model, v0)
            for name in [f.name for f in dataclasses.fields(alone)] + ["unnormalized_span_trace"]:
                got, want = getattr(report, name), getattr(alone, name)
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
        plan.run_model.sap_rewards.tobytes(),
        plan.run_model is plan.model,
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

    def test_a_chunk_shares_one_layout(self):
        ms = [random_instance(s, n=5, gamma=0.9, saps_per_state=3) for s in range(4)]
        convergence._verify_chunk([(m, None) for m in ms])
        for m in ms[1:]:
            assert m._by_state is ms[0]._by_state
            assert m._sweep_blocks is ms[0]._sweep_blocks

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
