#!/usr/bin/env python3
"""Benchmark of the mdpgeom CLI: end-to-end throughput, set-up, memory, and per-layer spans.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 mdpbench/run.py --workload sweep-avg --seed 1 --seconds 35 --trace 0
    python3 mdpbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` cycles through the workload's fixed batch of commands in a
closed loop for ``--seconds`` and reports the end-to-end metrics:

- ``instances_per_s``: instances in the batch divided by the sum over batch
  commands of each command's median wall time, scaled to the reference host
  speed (see ``hostclock``); the unscaled figure is printed too;
- ``setup_s``: the median of one in-process and six fresh-process set-ups
  (imports, spec file, one warm-up call into every layer);
- ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed loop.

``error_rate`` is printed too; the result line carries it as ``failed``
over ``attempted``, because it is 0 on a correct program.

``--trace 1`` runs the batch twice untraced and once with every public
mdpgeom function wrapped, and reports the per-layer metrics. The batch is
fixed, not timed, so counts repeat exactly for a seed; ``--seconds`` does
not apply. Spans go to ``mdpbench/.work/``.

Every command's outputs are checked after the timed part: exit codes, the
span bound on counted instances, an optimality certificate on the pipeline,
and digests, which must match ``reference.json`` for the seeds it holds and
must repeat across reruns of a command for every seed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import hostclock
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Result(NamedTuple):
    attempted: int
    failed: int
    digests: list
    reference: list | None  # reference digests of this workload and seed, if shipped
    problems: list
    metrics: dict  # name -> (value, unit)


def warm_up(cli, workdir: Path) -> None:
    """Call into every layer once on tiny models, so first-call costs stay out of timed commands."""
    warm = workdir / "warm"
    warm.mkdir(parents=True)
    argvs = []
    for gamma in (1.0, 0.9):
        spec = warm / f"spec-{gamma}.json"
        spec.write_text(json.dumps({"n": 3, "saps_per_state": 2, "gamma": gamma, "sparsity": 0.3}))
        argvs.append(["sweep", "--spec", str(spec), "--trials", "2", "--seed", "1", "-o", str(warm)])
    model = str(warm / "model.json")
    argvs += [
        ["generate", "--n", "4", "--saps", "2", "--gamma", "0.99", "--sparsity", "0.5", "--seed", "1", "-o", model],
        ["converge", model, "--v0", "random", "--seed", "1", "--steps", "20", "-o", str(warm)],
    ]
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"warm-up command {argv[0]} exited with {code}")


def setup(workload, workdir: Path):
    """Import the package, write the spec file and warm up; returns (cli, spec path)."""
    cli = workloads.import_package(ROOT)
    spec_path = workloads.write_spec(workload, workdir)
    warm_up(cli, workdir)
    return cli, spec_path


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    kernels = sys.modules.get("mdpgeom.kernels")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.active_backend() if hasattr(kernels, "active_backend") else None,
        "MDP_GEOM_THREADS": os.environ["MDP_GEOM_THREADS"],
    }


def check_all(workload, outcomes, reference: list | None):
    """Check every command's outputs; returns (failed instances, digest per batch command, problems).

    Each digest must equal the reference digest when the seed has one, and
    otherwise the digest of the first run of the same batch command.
    """
    failed, first, problems = 0, {}, []
    for outcome in outcomes:
        bad, digest, found = workloads.check_command(workload, outcome)
        first.setdefault(outcome.k, digest)
        expected = reference[outcome.k] if reference else first[outcome.k]
        if digest is not None and digest != expected:
            found.append(f"digest {digest} differs from {expected}")
            bad = outcome.instances
        failed += bad
        problems += [f"command {outcome.k}: {p}" for p in found]
    return failed, [first[k] for k in sorted(first)], problems


def setup_probes(workload, seed: int) -> list:
    """Set-up times of fresh benchmark processes that only set up."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def timed_run(cli, workload, seed: int, seconds: float, spec_path: Path, workdir: Path, setup_s: float):
    """Cycle through the batch for ``seconds`` (at least once) and report the end-to-end metrics.

    After the first cycle a command starts only if its previous run's wall
    time would still end within ``seconds``, so long commands do not overrun.
    Each command's wall time is scaled to the reference host speed by
    ``hostclock``.
    """
    outcomes, intervals = [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    with hostclock.HostClock() as clock:
        while True:
            k = len(outcomes) % workload.batch
            if len(outcomes) >= workload.batch and time.perf_counter() + outcomes[-workload.batch].wall > deadline:
                break
            repeat_dir = workdir / f"repeat{len(outcomes) // workload.batch}"
            busy, start = clock.busy, time.perf_counter()
            outcomes.append(workloads.run_command(cli, workload, seed, k, spec_path, repeat_dir))
            intervals.append((start, time.perf_counter(), clock.busy - busy))
    loop_wall = time.perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = workloads.load_reference().get(workload.name, {}).get(str(seed))
    failed, digests, problems = check_all(workload, outcomes, reference)
    setup_times = [setup_s] + setup_probes(workload, seed)
    walls, scaled = {}, {}
    for outcome, (start, end, sampling) in zip(outcomes, intervals):
        walls.setdefault(outcome.k, []).append(outcome.wall)
        scaled.setdefault(outcome.k, []).append((outcome.wall - sampling) * clock.speed(start, end))
    instances = (workload.trials or 1) * workload.batch
    medians = [statistics.median(walls[k]) for k in sorted(walls)]
    scaled_medians = [statistics.median(scaled[k]) for k in sorted(scaled)]
    metrics = {
        "instances_per_s": instances / sum(scaled_medians),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(o.instances for o in outcomes)
    print(f"commands: {len(outcomes)} ({workload.batch} in the batch, "
          f"{len(outcomes) // workload.batch} to {-(-len(outcomes) // workload.batch)} runs of each)")
    print(f"median wall per batch command: {', '.join(f'{w:.4f}' for w in medians)} s")
    print(f"host speed: {clock.speed():.4f} of the reference ({len(clock.durations)} samples, "
          f"{clock.busy / loop_wall:.2%} of the loop); "
          f"unscaled throughput {instances / sum(medians):.6g} 1/s")
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"error_rate = {failed / attempted:.6g} fraction ({failed} failed of {attempted} attempted)")
    with_units = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return Result(attempted, failed, digests, reference, problems, with_units)


def traced_run(cli, workload, seed: int, spec_path: Path, workdir: Path):
    """Run the batch twice untraced, then once traced, and report the per-layer metrics.

    The faster untraced run is the base of ``trace.overhead_ratio``, so that
    first-run effects do not count as tracing cost.
    """
    batch = range(workload.batch)
    plain, untraced_walls = [], []
    for repeat in range(2):
        start = time.perf_counter()
        plain += [workloads.run_command(cli, workload, seed, k, spec_path, workdir / f"plain{repeat}") for k in batch]
        untraced_walls.append(time.perf_counter() - start)
    spans = tracer.Tracer()
    with spans:
        origin = time.perf_counter()
        traced = [workloads.run_command(cli, workload, seed, k, spec_path, workdir / "traced") for k in batch]
        traced_wall = time.perf_counter() - origin
    values = tracer.layer_metrics(spans, origin, traced_wall, min(untraced_walls))
    span_file = workdir.parent / f"spans-{workload.name}.csv"
    spans.write_spans(span_file, origin)
    print(f"{len(spans.spans)} spans written to {span_file}")

    # traced outputs must equal untraced ones: the tracer may not change results
    reference = workloads.load_reference().get(workload.name, {}).get(str(seed))
    failed, digests, problems = check_all(workload, plain + traced, reference)
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted = sum(o.instances for o in plain + traced)
    return Result(attempted, failed, digests, reference, problems, {k: (v, units[k]) for k, v in values.items()})


def run_all(args) -> int:
    """Run every workload, each in its own process, and print a summary."""
    results, ok = {}, True
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.environ["MDP_GEOM_THREADS"] = "1"
    if args.workload == "all":
        return run_all(args)

    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        try:
            cli, spec_path = setup(workload, workdir)
        except (FileNotFoundError, RuntimeError) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - _START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"env: {json.dumps(environment())}")
        print(f"workload {workload.name}: {workload.why}")
        if args.trace:
            result = traced_run(cli, workload, args.seed, spec_path, workdir)
        else:
            result = timed_run(cli, workload, args.seed, args.seconds, spec_path, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result.problems:
        print(f"FAILED {problem}")
    if result.reference is None:
        print(f"digests (seed {args.seed} has no reference): {json.dumps(result.digests)}")
    print(json.dumps({
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
