"""Workloads of the mdpgeom benchmark: what one command runs and how its outputs are checked.

Shape: a closed loop with a single client. The benchmark calls the CLI
in-process through ``mdpgeom.cli.main(argv)``, and each command starts only
after the previous one has returned, so a slower program receives less work.
MDP_GEOM_THREADS=1 keeps sweeps serial: their work holds the interpreter
lock, so a thread pool only adds lock waits to the wall time and to every
traced span.

Inputs depend on the benchmark seed alone. Command k of the batch gets the
sweep base seed ``seed * 10**6 + k * trials`` (trial seeds follow on from it)
or the instance seed ``seed * 1000 + k``. A timed run cycles through the
batch and takes each command's median wall time over its repeats, scaled to
a reference host speed by ``hostclock``; every repeat must reproduce the
first one's outputs byte for byte. A batch is short enough (1 to 8 s on a
2-core VM) that each command repeats a few to a few dozen times in a run,
and long enough that the differing cost of inputs from different seeds
averages out (sweep-disc trials cost 5 or 10 ms, depending on whether the
primitivity search runs to its bound).

Deferred: a gamma = 1 workload at large n. At gamma = 1 the optimal policy
is found by enumerating every policy, which stops with
EnumerationTooLargeError at n = 10 with 4 SAPs per state. That workload
waits until the gamma = 1 search no longer enumerates.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the sweep.csv columns that exist at the reference commit; digests select
# them by name so that an added column changes no digest
SWEEP_COLUMNS = (
    "trial", "seed", "n", "gamma", "unique", "unichain", "aperiodic", "exponent",
    "delta", "omega", "phi", "tau", "degenerate", "converged_early", "span0",
    "span_final", "bound_satisfied", "sanity_bound_satisfied", "excluded",
)

# an optimal policy has no SAP with a positive classical advantage; the
# check allows rounding relative to the size of the values
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One workload. ``trials > 0`` makes it a sweep, otherwise a generate/converge pipeline.

    Commands 0 .. ``batch`` - 1 are the workload's fixed batch: a timed run
    cycles through them, a traced run runs them twice untraced and once
    traced, and the reference records their digests.
    """

    name: str
    why: str
    n: int
    saps: int
    gamma: float
    sparsity: float
    trials: int = 0
    steps: int = 0
    batch: int = 1

    @property
    def spec(self) -> dict:
        return {"n": self.n, "saps_per_state": self.saps, "gamma": self.gamma, "sparsity": self.sparsity}


WORKLOADS = {
    w.name: w
    for w in (
        # The average-reward route: classic.optimal_policy enumerates 3^6 = 729
        # policies per trial, which is nearly all of the time (LU solves on
        # 7x7 systems and chain classification). Sparsity 0.3 keeps the
        # multichain-skip path live and excludes about one trial in 40.
        Workload(
            name="sweep-avg",
            why="gamma=1 sweep, n=6: exhaustive policy enumeration, tiny LU solves and chain classification dominate",
            n=6, saps=3, gamma=1.0, sparsity=0.3, trials=1, batch=8,
        ),
        # Many tiny instances, so the cost is per call: generation, the greedy
        # sweep kernel and the VI loop. About 40% of trials fail aperiodicity
        # and still run the whole Wielandt-length primitivity search and VI,
        # the wasted work that convergence.counted_ratio exposes. The optimal
        # policy comes from Howard policy iteration, not enumeration.
        Workload(
            name="sweep-disc",
            why="gamma=0.95 sweep, n=12: per-call cost of generation, greedy sweeps, VI and primitivity search on tiny instances",
            n=12, saps=4, gamma=0.95, sparsity=0.7, trials=20, batch=16,
        ),
        # The same modules as sweep-disc on few, large inputs, and the only
        # workload that writes and reads model files (11.5 MB of transition
        # rows). gamma 0.99 keeps 1000 steps above the span floor; sparsity
        # 0.9 keeps the optimal kernel primitive with a small exponent, where
        # a non-primitive one would cost hundreds of thousands of dense
        # products at n = 600.
        Workload(
            name="pipeline-large",
            why="generate n=600 then converge 1000 steps: generation, model file emit/parse, policy hashing and large sweeps",
            n=600, saps=4, gamma=0.99, sparsity=0.9, steps=1000, batch=1,
        ),
    )
}


def import_package(root: Path):
    """Import mdpgeom from the ``src`` directory of the checkout at ``root``; return its cli module.

    Raises FileNotFoundError when the checkout holds no package source, so
    the benchmark can never measure an installed copy by mistake.
    """
    src = (root / "src").resolve()
    if not (src / "mdpgeom" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mdpgeom package source under {src}")
    sys.path.insert(0, str(src))
    import mdpgeom.cli

    if not Path(mdpgeom.__file__).resolve().is_relative_to(src):
        raise FileNotFoundError(f"mdpgeom imported from {mdpgeom.__file__}, not from {src}")
    return mdpgeom.cli


def write_spec(workload: Workload, workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{workload.name}-spec.json"
    path.write_text(json.dumps(workload.spec) + "\n")
    return path


def command_argvs(workload: Workload, seed: int, k: int, spec_path: Path, outdir: Path) -> list:
    """The CLI argument lists of command k; they run in order and form its instances."""
    if workload.trials:
        base = seed * 10**6 + k * workload.trials
        return [[
            "sweep", "--spec", str(spec_path), "--trials", str(workload.trials),
            "--seed", str(base), "-o", str(outdir / f"cmd{k}"),
        ]]
    s = str(seed * 1000 + k)
    model = str(outdir / f"model{k}.json")
    return [
        ["generate", "--n", str(workload.n), "--saps", str(workload.saps),
         "--gamma", repr(workload.gamma), "--sparsity", repr(workload.sparsity),
         "--seed", s, "-o", model],
        ["converge", model, "--v0", "random", "--seed", s,
         "--steps", str(workload.steps), "-o", str(outdir / f"cmd{k}")],
    ]


@dataclass
class Outcome:
    k: int
    outdir: Path
    instances: int
    wall: float
    codes: list
    stderr: str


def run_command(cli, workload: Workload, seed: int, k: int, spec_path: Path, outdir: Path) -> Outcome:
    """Run command k through ``cli.main`` and time it; stdout is discarded."""
    outdir.mkdir(parents=True, exist_ok=True)
    argvs = command_argvs(workload, seed, k, spec_path, outdir)
    codes = []
    err = io.StringIO()
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(err):
        start = time.perf_counter()
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            codes.append(code)
            if code != 0:
                break
        wall = time.perf_counter() - start
    return Outcome(k, outdir, workload.trials or 1, wall, codes, err.getvalue())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _check_sweep(workload: Workload, cmd_dir: Path) -> tuple:
    with open(cmd_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != workload.trials:
        problems.append(f"{len(rows)} rows for {workload.trials} trials")
    bad = [
        r["trial"]
        for r in rows
        if r["excluded"] == "false"
        and "false" in (r["bound_satisfied"], r["sanity_bound_satisfied"])
    ]
    if bad:
        problems.append(f"bound not satisfied on counted trials {bad}")
    failed = abs(workload.trials - len(rows)) + len(bad)
    table = "\n".join(",".join(r[c] for c in SWEEP_COLUMNS) for r in rows)
    return failed, f"sweep_csv={_sha(table.encode())}", problems


def optimality_excess(model_path: Path, pi_star) -> float:
    """Largest classical advantage under pi_star minus the allowed rounding; positive fails.

    Builds the model from the JSON document directly and evaluates with the
    classical oracle, so neither the model-file parser nor the geometric
    route takes part in the check.
    """
    import numpy as np
    from mdpgeom import classic
    from mdpgeom.model import MdpModel, Policy, Sap

    doc = json.loads(model_path.read_text())
    model = MdpModel(
        n=doc["n"],
        gamma=doc["gamma"],
        saps=tuple(Sap(state=s["state"], reward=s["reward"], probs=np.array(s["probs"])) for s in doc["saps"]),
    )
    values = classic.evaluate_discounted(model, Policy(pi_star)).values
    adv = classic.classical_advantages(model, values)
    return float(adv.max()) - CERTIFICATE_TOL * max(1.0, float(np.abs(values).max()))


def _check_pipeline(cmd_dir: Path, model_path: Path) -> tuple:
    report = json.loads((cmd_dir / "report.json").read_text())
    trace = (cmd_dir / "trace.csv").read_bytes()
    problems = []
    diag = report["diagnostics"]
    counted = diag is not None and all(diag[key] for key in ("unique", "unichain", "aperiodic"))
    if counted and False in (report["bound_satisfied"], report["sanity_bound_satisfied"]):
        problems.append("bound not satisfied")
    if report["pi_star"] is None:
        problems.append("no optimal policy reported")
    else:
        excess = optimality_excess(model_path, report["pi_star"])
        if excess > 0.0:
            problems.append(f"pi_star not optimal: advantage exceeds tolerance by {excess:.3e}")
    report.pop("provenance", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    return (1 if problems else 0), f"report={_sha(canonical)},trace={_sha(trace)}", problems


def check_command(workload: Workload, outcome: Outcome) -> tuple:
    """(failed instances, digest or None, problems) for one command's outputs."""
    expected = 1 if workload.trials else 2
    if len(outcome.codes) != expected or any(code != 0 for code in outcome.codes):
        return outcome.instances, None, [f"exit codes {outcome.codes}: {outcome.stderr.strip()[-500:]}"]
    cmd_dir = outcome.outdir / f"cmd{outcome.k}"
    try:
        if workload.trials:
            return _check_sweep(workload, cmd_dir)
        return _check_pipeline(cmd_dir, outcome.outdir / f"model{outcome.k}.json")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return outcome.instances, None, [f"unreadable outputs: {exc!r}"]


def load_reference() -> dict:
    """Reference digests: workload name -> seed (as text) -> digest per command."""
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
