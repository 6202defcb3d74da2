"""Shared model builders for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import mdpgeom
from mdpgeom import MdpModel, Policy, Sap, enumerate_policies
from mdpgeom.generate import GeneratorSpec, generate_model

# derandomized and without an example database, so every run draws the same
# examples and no local .hypothesis/ state changes the outcome
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


def package_env():
    """This environment with the imported package's directory first on PYTHONPATH."""
    paths = [str(Path(mdpgeom.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def make_model(n, gamma, saps):
    """saps as (state, reward, probs) triples."""
    return MdpModel(
        n=n,
        gamma=gamma,
        saps=tuple(Sap(state=s, reward=r, probs=np.asarray(p, dtype=float)) for s, r, p in saps),
    )


@pytest.fixture
def swap_model():
    # gamma=1 two-state cycle: s0 -> s1 with reward 2, s1 -> s0 with reward 0
    return make_model(2, 1.0, [(0, 2.0, [0, 1]), (1, 0.0, [1, 0])])


@pytest.fixture
def swap_plus_selfloop():
    # swap_model plus an inferior self-loop SAP at s0 with reward 0.5
    return make_model(
        2,
        1.0,
        [(0, 2.0, [0, 1]), (1, 0.0, [1, 0]), (0, 0.5, [1, 0])],
    )


@pytest.fixture
def selfloop_model():
    # gamma=0.5, both states absorbing, rewards (1, 0); classical V = (2, 0)
    return make_model(2, 0.5, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])


@pytest.fixture
def swap_policy():
    return Policy([0, 1])


def random_instance(seed, n, gamma, saps_per_state=2, sparsity=0.0, reward_range=(-1.0, 1.0)):
    spec = GeneratorSpec(
        n=n,
        saps_per_state=saps_per_state,
        gamma=gamma,
        reward_range=reward_range,
        sparsity=sparsity,
        seed=seed,
    )
    return generate_model(spec).model


def random_stochastic(rng, n, sparsity=0.0):
    """Random row-stochastic matrix; sparsity zeroes entries but keeps rows alive."""
    w = rng.random((n, n))
    if sparsity > 0.0:
        mask = rng.random((n, n)) >= sparsity
        w = np.where(mask, w, 0.0)
        for i in range(n):
            if not w[i].any():
                w[i, rng.integers(n)] = 1.0
    return w / w.sum(axis=1, keepdims=True)


def count_calls(monkeypatch, bindings):
    """Wrap each (module, name) binding; return a dict of calls by function name.

    Bindings of one function under several names share one count.
    """
    calls = {}
    for module, name in bindings:
        fn = getattr(module, name)
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def gains_by_start(p, r):
    """Long-run average reward from each start state of the kernel ``p`` with rewards ``r``,
    multichain or not: each closed class earns its stationary reward, and a transient state
    the mix of those that its absorption probabilities give."""
    n = len(r)
    reach = np.linalg.matrix_power((p > 0.0) | np.eye(n, dtype=bool), n) > 0
    recurrent = np.all(reach <= reach.T, axis=1)
    g = np.zeros(n)
    for state in np.flatnonzero(recurrent):
        closed = reach[state]  # the class of a recurrent state is what it reaches
        k = int(closed.sum())
        a = np.vstack([p[np.ix_(closed, closed)].T - np.eye(k), np.ones(k)])
        mu = np.linalg.lstsq(a, np.eye(k + 1)[k], rcond=None)[0]
        g[closed] = mu @ r[closed]
    t = ~recurrent
    if t.any():
        g[t] = np.linalg.solve(np.eye(int(t.sum())) - p[np.ix_(t, t)], p[np.ix_(t, recurrent)] @ g[recurrent])
    return g


def best_start_gain(model):
    """The highest long-run average reward that any policy earns from any start state (gamma = 1)."""
    return max(
        float(gains_by_start(model.sap_probs[pi.choice], model.sap_rewards[pi.choice]).max())
        for pi in enumerate_policies(model)
    )
