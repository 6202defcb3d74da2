"""Self-tests of the benchmark: span arithmetic, binding discovery, repeatability.

    python3 -m pytest -q mdpbench/test_bench.py
"""

import dataclasses
import json
import signal
import time
from pathlib import Path

import pytest

import hostclock
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return workloads.import_package(ROOT)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),  # overlaps the next child on [3, 4]
        (1, 3.0, 6.0, 0, 0),
        (1, 8.0, 12.0, 0, 0),  # runs past the root's end; clipped to [8, 10]
        (2, 2.0, 3.0, 1, 0),  # grandchild: covered by its parent, not the root
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx([10.0 - 7.0, 3.0 - 1.0, 3.0, 4.0, 1.0])


def test_union_length_of_nothing_is_zero():
    assert tracer.union_length([], 0.0, 1.0) == 0.0
    assert tracer.union_length([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_host_speed_is_the_reference_over_the_mean_sample_around_a_command():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_SAMPLE_S
    clock.starts = [0.0, 1.0, 1.5, 2.2, 3.0]
    clock.durations = [ref, 2 * ref, 4 * ref, 2 * ref, ref]
    # samples at 1.0, 1.5 and 2.2 start within WINDOW_S of [1.1, 2.0]
    assert clock.speed(1.1, 2.0) == pytest.approx(3 / 8)
    assert clock.speed() == pytest.approx(5 / 10)
    # no sample around the command: the whole run's mean stands in
    assert clock.speed(10.0, 11.0) == pytest.approx(5 / 10)


def test_host_clock_samples_while_active_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(clock.durations) >= 3 and clock.busy > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_discovery_finds_every_binding_of_a_reimported_function(cli):
    import mdpgeom.chains
    import mdpgeom.convergence

    original = mdpgeom.chains.classify_chain
    modules = {m.__name__ for m, _, fn in tracer.discover_bindings() if fn is original}
    assert {"mdpgeom.chains", "mdpgeom.convergence"} <= modules

    spans = tracer.Tracer()
    with spans:
        wrapped = mdpgeom.convergence.classify_chain
        assert wrapped is not original
        assert mdpgeom.chains.classify_chain is wrapped
    assert mdpgeom.convergence.classify_chain is original
    assert "chains.classify_chain" in spans.names


SMALL = {
    "sweep-avg": {"trials": 3, "batch": 2},
    "sweep-disc": {"trials": 10, "batch": 2},
    "pipeline-large": {"n": 30, "steps": 50},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_repeat_counts_and_digests(cli, tmp_path, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])
    spec_path = workloads.write_spec(workload, tmp_path / "spec")
    results = [run.traced_run(cli, workload, 99, spec_path, tmp_path / f"run{i}") for i in range(2)]
    for result in results:
        assert result.failed == 0 and not result.problems
        assert None not in result.digests
    exact = [
        {k: v for k, (v, _) in r.metrics.items() if k.endswith((".calls", "_computed", ".bytes", "power_products"))}
        for r in results
    ]
    assert exact[0] == exact[1]
    assert exact[0]["generate.generate_model.calls"] > 0
    assert results[0].digests == results[1].digests


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.LAYER_METRICS


def test_gate_fails_a_counted_trial_with_a_false_bound(cli, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["sweep-disc"], trials=10, batch=1)
    spec_path = workloads.write_spec(workload, tmp_path)
    outcome = workloads.run_command(cli, workload, 99, 0, spec_path, tmp_path)
    assert workloads.check_command(workload, outcome)[0] == 0
    csv_path = tmp_path / "cmd0" / "sweep.csv"
    header, *rows = csv_path.read_text().splitlines()
    # columns end with bound_satisfied, sanity_bound_satisfied, excluded
    counted = next(i for i, row in enumerate(rows) if row.endswith(",true,true,false"))
    rows[counted] = rows[counted][: -len("true,true,false")] + "false,true,false"
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    failed, digest, problems = workloads.check_command(workload, outcome)
    assert failed == 1 and problems


def test_certificate_rejects_a_suboptimal_policy(cli, tmp_path):
    import mdpgeom.classic
    from mdpgeom.generate import GeneratorSpec, generate_model
    from mdpgeom.modelfile import emit_model

    model = generate_model(GeneratorSpec(n=5, saps_per_state=3, gamma=0.9, seed=3)).model
    path = tmp_path / "model.json"
    path.write_text(emit_model(model))
    best = mdpgeom.classic.optimal_policy(model).policy.as_tuple()
    assert workloads.optimality_excess(path, best) <= 0.0
    worse = [next(int(i) for i in model.saps_at(s) if i != best[s]) for s in range(model.n)]
    assert workloads.optimality_excess(path, worse) > 0.0
