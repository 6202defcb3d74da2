"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every expected value is either exact small-instance arithmetic or a
cross-check between two independently implemented routes; tolerances are
fixed here and match the library's contracts.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mdpgeom import (
    classify_chain,
    enumerate_policies,
    evaluate_average,
    evaluate_discounted,
    evaluate_policy,
    gain,
    advantages,
    normalize_rewards,
    optimal_policy,
    policy_kernel,
    stationary_distribution,
    unichain_by_invertibility,
    verify_contraction,
)
from mdpgeom.cli import main as cli_main
from mdpgeom.model import policy_count

from conftest import product_expansion_check, random_instance, random_stochastic


def _emit(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {cid}: {status}{suffix}")


class _Criterion:
    """Prints the one-line verdict even when an assertion fails."""

    def __init__(self, cid):
        self.cid = cid
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _emit(self.cid, exc_type is None, self.detail)
        return False


def _deterministic_kernels(n):
    for image in itertools.product(range(n), repeat=n):
        p = np.zeros((n, n))
        for i, j in enumerate(image):
            p[i, j] = 1.0
        yield p


def test_criterion_1_unichain_equivalence():
    # graph classification vs invertibility of I + E - P, exhaustive plus random
    with _Criterion(1) as c:
        start = time.perf_counter()
        checked = 0
        for n in (2, 3):
            for p in _deterministic_kernels(n):
                assert classify_chain(p).is_unichain == unichain_by_invertibility(p)
                checked += 1
        rng = np.random.default_rng(20240601)
        for n in range(2, 7):
            for _ in range(500):
                p = random_stochastic(rng, n, sparsity=float(rng.uniform(0.0, 0.8)))
                assert classify_chain(p).is_unichain == unichain_by_invertibility(p)
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
        c.detail = f"{checked} kernels agree in {elapsed:.2f}s"


def test_criterion_2_advantage_identities():
    # inner-product advantages match the classical one-step advantage
    with _Criterion(2) as c:
        start = time.perf_counter()
        pairs = 0
        for gi, gamma in enumerate((0.3, 0.9, 1.0)):
            for k in range(200):
                m = random_instance(
                    1000 * gi + k,
                    n=2 + k % 3,
                    gamma=gamma,
                    saps_per_state=2,
                    sparsity=0.0 if k % 2 else 0.3,
                    reward_range=(-1.0, 1.0),
                )
                for pi in enumerate_policies(m):
                    if gamma == 1.0:
                        if not classify_chain(policy_kernel(m, pi)).is_unichain:
                            continue
                        gb = evaluate_average(m, pi)
                        oracle = (
                            m.sap_rewards
                            - gb.gain
                            + m.sap_probs @ gb.bias
                            - gb.bias[m.sap_states]
                        )
                    else:
                        v = evaluate_discounted(m, pi).values
                        oracle = (
                            m.sap_rewards
                            + gamma * (m.sap_probs @ v)
                            - v[m.sap_states]
                        )
                    pv, _ = evaluate_policy(m, pi)
                    got = advantages(m, pv)
                    assert np.max(np.abs(got - oracle)) <= 1e-9
                    pairs += got.size
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
        c.detail = f"{pairs} SAP/policy pairs in {elapsed:.2f}s"


def test_criterion_3_gain_equals_stationary_reward():
    with _Criterion(3) as c:
        checked = 0
        seed = 0
        while checked < 200:
            m = random_instance(
                3000 + seed,
                n=2 + seed % 5,
                gamma=1.0,
                saps_per_state=2,
                sparsity=0.3,
                reward_range=(-1.0, 1.0),
            )
            seed += 1
            for pi in enumerate_policies(m):
                if checked >= 200:
                    break
                p = policy_kernel(m, pi)
                if not classify_chain(p).is_unichain:
                    continue
                _, consts = evaluate_policy(m, pi)
                mu = stationary_distribution(p)
                expected = float(mu @ m.sap_rewards[pi.choice])
                assert abs(gain(consts) - expected) <= 1e-9
                checked += 1
        c.detail = f"{checked} unichain policies"


def test_criterion_4_discounted_value_relations():
    # V - mean(V) = (v - mean(v)) / C and (1 - gamma) sum(V) = v_sigma
    with _Criterion(4) as c:
        for k in range(200):
            gamma = (0.3, 0.5, 0.9, 0.99)[k % 4]
            m = random_instance(
                4000 + k,
                n=2 + k % 5,
                gamma=gamma,
                saps_per_state=2,
                sparsity=0.2,
                reward_range=(-1.0, 1.0),
            )
            pi = next(iter(enumerate_policies(m)))
            pv, consts = evaluate_policy(m, pi)
            v_classic = evaluate_discounted(m, pi).values
            lhs = v_classic - v_classic.mean()
            rhs = (pv.values - pv.values.mean()) / consts.C
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
            assert abs((1.0 - gamma) * v_classic.sum() - consts.v_sigma) <= 1e-9 * (
                1.0 + abs(consts.v_sigma)
            )
        c.detail = "200 models, both relations"


def test_criterion_5_product_expansion():
    with _Criterion(5) as c:
        rng = np.random.default_rng(505)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            length = int(rng.integers(1, 7))
            mats = [random_stochastic(rng, n) for _ in range(length)]
            assert product_expansion_check(mats, tol=1e-10)
        c.detail = "1000 random tuples"


@pytest.fixture(scope="module")
def discounted_corpus():
    """100 discounted models passing all diagnostics, with their reports."""
    kept, excluded = [], 0
    seed = 0
    while len(kept) < 100:
        assert seed < 400, "diagnostic exclusion rate unexpectedly high"
        m = random_instance(
            6000 + seed,
            n=3 + seed % 6,
            gamma=(0.3, 0.6, 0.9)[seed % 3],
            saps_per_state=2 + seed % 2,
            sparsity=0.25,
            reward_range=(-0.5, 0.5),
        )
        seed += 1
        report = verify_contraction(m)
        if not report.diagnostics.all_pass:
            excluded += 1
            continue
        kept.append((m, report))
    return kept, excluded


@pytest.fixture(scope="module")
def average_corpus():
    """100 gamma=1 models whose optimal policy is unique, unichain, aperiodic."""
    kept, excluded = [], 0
    seed = 0
    while len(kept) < 100:
        assert seed < 400, "diagnostic exclusion rate unexpectedly high"
        m = random_instance(
            8000 + seed,
            n=3 + seed % 4,
            gamma=1.0,
            saps_per_state=2,
            sparsity=0.25,
            reward_range=(0.0, 1.0),
        )
        seed += 1
        report = verify_contraction(m, trace_steps=400)
        if not report.diagnostics.all_pass:
            excluded += 1
            continue
        kept.append((m, report))
    return kept, excluded


def test_criterion_6_contraction_bound_discounted(discounted_corpus):
    with _Criterion(6) as c:
        kept, excluded = discounted_corpus
        for m, report in kept:
            consts = report.constants
            assert consts is not None
            assert not consts.converged_early, "trace collapsed before N steps"
            assert not consts.degenerate, "tau outside (0, 1)"
            assert consts.tau < 1.0
            assert report.bound_satisfied is True, "span bound counterexample"
            assert report.sanity_bound_satisfied is True
            for r in report.per_step_ratios:
                if r is not None:
                    assert r <= m.gamma + 1e-12
        c.detail = f"100 models verified, {excluded} excluded by diagnostics"


def test_criterion_7_contraction_bound_average(average_corpus):
    with _Criterion(7) as c:
        kept, excluded = average_corpus
        for m, report in kept:
            consts = report.constants
            assert consts is not None
            assert not consts.converged_early and not consts.degenerate
            assert consts.tau < 1.0
            assert report.bound_satisfied is True, "span bound counterexample"
            # long-run behaviour: spans vanish and the greedy policy locks
            # onto the optimal one from some step onward
            assert report.span_trace[-1] <= 1e-9
            greedy = [tuple(g) for g in report.greedy_policies]
            assert greedy[-1] == report.pi_star
            # first step index from which every later greedy pick is pi_star
            lock = len(greedy)
            while lock > 0 and greedy[lock - 1] == report.pi_star:
                lock -= 1
            assert lock < len(greedy)
        rate = excluded / (excluded + len(kept))
        c.detail = f"100 models verified, exclusion rate {rate:.1%}"


def test_criterion_8_normalization(discounted_corpus, average_corpus):
    with _Criterion(8) as c:
        preserved_on = 0
        for m, report in discounted_corpus[0] + average_corpus[0]:
            star = optimal_policy(m).policy
            assert star.as_tuple() == report.pi_star
            norm = normalize_rewards(m, star)
            member = np.zeros(m.m, dtype=bool)
            member[star.choice] = True
            rewards = norm.sap_rewards
            assert np.max(np.abs(rewards[member])) <= 1e-10
            assert np.max(rewards) <= 1e-10
            if policy_count(m) > 64:
                continue
            for pi in enumerate_policies(m):
                if m.is_average_reward and not classify_chain(
                    policy_kernel(m, pi)
                ).is_unichain:
                    continue
                pv_orig, _ = evaluate_policy(m, pi)
                pv_norm, _ = evaluate_policy(norm, pi)
                diff = advantages(m, pv_orig) - advantages(norm, pv_norm)
                assert np.max(np.abs(diff)) <= 1e-9
            preserved_on += 1
        assert preserved_on > 0
        c.detail = f"200 models normalized, advantages preserved on {preserved_on}"


def test_criterion_9_sweep_determinism(tmp_path):
    with _Criterion(9) as c:
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 4,
                    "saps_per_state": 2,
                    "gamma": 1.0,
                    "reward_range": [0.0, 1.0],
                    "sparsity": 0.2,
                    "seed": 0,
                }
            )
        )
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            code = cli_main(
                ["sweep", "--spec", str(spec), "--trials", "100", "--seed", "7", "-o", str(d)]
            )
            assert code == 0
        csv1 = (dirs[0] / "sweep.csv").read_bytes()
        csv2 = (dirs[1] / "sweep.csv").read_bytes()
        json1 = (dirs[0] / "sweep.json").read_bytes()
        json2 = (dirs[1] / "sweep.json").read_bytes()
        assert csv1 == csv2
        assert json1 == json2
        c.detail = "100-trial sweep byte-identical across reruns"
