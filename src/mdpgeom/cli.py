"""Command-line interface.

Subcommands: validate, solve, analyze, normalize, converge, generate,
sweep. Exit codes: 0 ok, 1 internal error, 2 input error, 3 assumption
violated under --strict.

A sweep draws, plans and iterates its trials a chunk at a time, each chunk
as one unit (``convergence._verify_chunk``). A chunk holds as many trials as
have stacked transition rows within ``convergence.VI_STACK_BYTES``. Its
models and start vectors are drawn together, in stacked SplitMix64 passes
(``generate._generate``) with the bits each trial's seed draws alone, and
the models share one SAP layout. Then the chunk is planned in lockstep: one
stacked optimal-policy search, chain test, primitivity test and gap check
settle every trial's optimal policy, diagnostics, step count and gap, each
with the bits it has alone. The first failing trial stops the sweep with
the same error as when trials ran one after another. Then the chunk's value
iterations run in lockstep, as one stack, recording spans only, since no
sweep column reads a greedy policy, and each trial's constants and bound
verdicts follow. Each row's cells are formatted once, and both sweep files
are written from them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, geometry
from .chains import (
    _stationary,
    classify_chain,
    primitivity_certificate,
    unichain_by_invertibility,
)
from .convergence import _chunk_size, _verify_chunk, verify_contraction
from .errors import (
    AssumptionViolatedError,
    InvalidPolicyError,
    MdpError,
    ModelFormatError,
    NotPrimitiveError,
    NotUnichainError,
)
from .generate import (
    PRNG_NAME,
    GeneratorSpec,
    SplitMix64,
    _generate,
    _states,
    _uniform_vectors,
    generate_model,
    uniform_vector,
)
from .model import MdpModel, Policy, check_policy, policy_kernel
from .modelfile import emit_model, read_model, write_model
from .reporting import SweepRow, _json_safe, policy_hash, report_dict, sweep_files, trace_csv

V0_SEED_XOR = 0xA5A5A5A5A5A5A5A5


@dataclasses.dataclass
class EvaluationResult:
    """Solve output: the optimal policy with values under its criterion."""

    criterion: str
    policy: list
    unique: bool
    values: list | None = None
    gain: float | None = None
    bias: list | None = None
    anchor_state: int | None = None
    new_values: list | None = None
    C: float | None = None
    v_sigma: float | None = None


def _parse_policy_arg(text: str, model: MdpModel) -> Policy:
    try:
        choice = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidPolicyError(f"bad --policy value {text!r}") from exc
    pi = Policy(np.array(choice, dtype=np.int64))
    check_policy(model, pi)
    return pi


def _print_json(doc: dict) -> None:
    print(json.dumps(_json_safe(doc), indent=2))


def _provenance(**extra) -> dict:
    base = {
        "package": "mdpgeom",
        "version": __version__,
        "prng": PRNG_NAME,
        "backend": "numpy",
    }
    base.update(extra)
    return base


def _cmd_validate(args) -> int:
    try:
        model = read_model(args.file)
    except ModelFormatError as exc:
        violations = getattr(exc, "violations", None) or [str(exc)]
        for v in violations:
            print(v, file=sys.stderr)
        return 2
    print(f"valid: {model.n} states, {model.m} SAPs, gamma={model.gamma!r}")
    return 0


def _solve_result(model: MdpModel, anchor: int) -> EvaluationResult:
    if not 0 <= anchor < model.n:
        raise MdpError(f"--anchor {anchor} outside [0, {model.n})")
    result = geometry.optimal_policy(model)
    pv, consts = result.policy_vector, result.constants  # from the search's last solve
    out = EvaluationResult(
        criterion="average" if model.is_average_reward else "discounted",
        policy=list(result.policy.as_tuple()),
        unique=result.unique,
        new_values=[float(x) for x in pv.values],
        C=consts.C,
        v_sigma=consts.v_sigma,
    )
    if model.is_average_reward:
        out.gain = result.gain
        out.bias = [float(x) for x in geometry.bias(pv, consts, anchor).values]
        out.anchor_state = anchor
    else:
        out.values = [float(x) for x in result.values]
    return out


def _cmd_solve(args) -> int:
    model = read_model(args.file)
    result = _solve_result(model, args.anchor)
    _print_json(dataclasses.asdict(result))
    return 0


def _cmd_analyze(args) -> int:
    model = read_model(args.file)
    pi = _parse_policy_arg(args.policy, model)
    p = policy_kernel(model, pi)
    cls = classify_chain(p)
    doc = {
        "policy": list(pi.as_tuple()),
        "policy_hash": policy_hash(pi.as_tuple()),
        "classification": {
            "closed_class_count": cls.closed_class_count,
            "transient_states": sorted(cls.transient_states),
            "is_unichain": cls.is_unichain,
        },
        "unichain_by_invertibility": unichain_by_invertibility(p),
    }
    doc["stationary_distribution"] = None
    if cls.is_unichain:
        try:
            doc["stationary_distribution"] = [float(x) for x in _stationary(p)]
        except NotUnichainError:  # the solve failed its residual check
            pass
    try:
        cert = primitivity_certificate(p)
        doc["primitivity"] = {"exponent": cert.exponent, "omega": cert.omega}
    except NotPrimitiveError:
        doc["primitivity"] = None
    _print_json(doc)
    return 0


def _cmd_normalize(args) -> int:
    model = read_model(args.file)
    if args.policy is not None:
        pi = _parse_policy_arg(args.policy, model)
        normalized = geometry.normalize_rewards(model, pi)
    else:  # the normalized rewards are the search's last advantages
        optimal = geometry.optimal_policy(model)
        pi, normalized = optimal.policy, model._with_rewards(optimal.advantages)
    write_model(normalized, args.output)
    print(f"wrote {args.output} (normalized against policy {list(pi.as_tuple())})")
    return 0


def _cmd_converge(args) -> int:
    model = read_model(args.file)
    v0 = None  # verify_contraction starts from e_0 by default
    if args.v0 == "random":
        v0 = uniform_vector(SplitMix64(args.seed ^ V0_SEED_XOR), model.n)
    report = verify_contraction(model, v0=v0, trace_steps=args.steps)
    provenance = _provenance(
        command="converge",
        input=args.file,
        v0_mode=args.v0,
        seed=args.seed,
        steps=args.steps,
    )
    doc = report_dict(report, provenance)
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(json.dumps(doc, indent=2) + "\n")
        (outdir / "trace.csv").write_text(trace_csv(report, doc["greedy_policy_hashes"]))
        print(f"wrote {outdir / 'report.json'} and {outdir / 'trace.csv'}")
    else:
        _print_json(doc)
    if args.strict and not report.diagnostics.all_pass:
        failed = [
            name
            for name in ("unique", "unichain", "aperiodic")
            if not getattr(report.diagnostics, name)
        ]
        print(f"assumption diagnostics failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        n=args.n,
        saps_per_state=args.saps,
        gamma=args.gamma,
        reward_range=(args.reward_lo, args.reward_hi),
        sparsity=args.sparsity,
        seed=args.seed,
    )
    result = generate_model(spec)
    if args.output:
        write_model(result.model, args.output)
        note = f", {len(result.repaired_rows)} repaired rows" if result.repaired_rows else ""
        print(f"wrote {args.output} ({result.model.n} states{note})")
    else:
        sys.stdout.write(emit_model(result.model))
    return 0


def _sweep_row(trial: int, seed: int, report) -> SweepRow:
    diag = report.diagnostics
    consts = report.constants
    return SweepRow(
        trial=trial,
        seed=seed,
        n=report.model.n,
        gamma=report.gamma,
        unique=diag.unique,
        unichain=diag.unichain,
        aperiodic=diag.aperiodic,
        exponent=report.exponent,
        delta=consts.delta if consts else None,
        omega=consts.omega if consts else None,
        phi=consts.phi if consts else None,
        tau=consts.tau if consts else None,
        degenerate=consts.degenerate if consts else None,
        converged_early=report.converged_early,
        span0=report.span_trace[0],
        span_final=report.span_trace[-1],
        bound_satisfied=report.bound_satisfied,
        sanity_bound_satisfied=report.sanity_bound_satisfied,
        excluded=not diag.all_pass,
    )


def _cmd_sweep(args) -> int:
    spec = GeneratorSpec.from_dict(json.loads(Path(args.spec).read_text()))
    trials = args.trials
    rows, size = [], _chunk_size(spec.n * spec.saps_per_state, spec.n)
    for first in range(0, trials, size):  # draw, plan and iterate a chunk of trials
        states = _states(range(args.seed + first, args.seed + min(first + size, trials)))
        v0s = _uniform_vectors(states ^ np.uint64(V0_SEED_XOR), spec.n)
        pairs = [(model, v0) for (model, _), v0 in zip(_generate(spec, states), v0s)]
        reports = _verify_chunk(pairs, greedy=False)  # no sweep column reads a greedy policy
        rows += (_sweep_row(t, args.seed + t, report) for t, report in enumerate(reports, first))

    excluded = sum(1 for r in rows if r.excluded)
    failures = sum(1 for r in rows if not r.excluded and r.bound_satisfied is False)
    head = {
        "sweep_version": 1,
        "trials": trials,
        "excluded": excluded,
        "exclusion_rate": excluded / trials if trials else 0.0,
        "bound_failures": failures,
    }
    provenance = _provenance(command="sweep", seed=args.seed, spec=spec.to_dict(), trials=trials)
    table, doc = sweep_files(head, rows, provenance)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text(table)
    (outdir / "sweep.json").write_text(doc)
    print(
        f"wrote {outdir / 'sweep.csv'} and {outdir / 'sweep.json'} "
        f"({trials} trials, {excluded} excluded, {failures} bound failures)"
    )
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpgeom",
        description="Geometric policy evaluation and advantage-based value iteration for MDPs",
    )
    parser.add_argument("--version", action="version", version=f"mdpgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against the data invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="compute the optimal policy and its values")
    p.add_argument("file")
    p.add_argument("--anchor", type=int, default=0, help="bias anchor state (gamma = 1)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("analyze", help="classify the chain induced by a policy")
    p.add_argument("file")
    p.add_argument("--policy", required=True, help="comma-separated SAP indices, one per state")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("normalize", help="rewrite rewards as advantages against a policy")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--policy", help="defaults to the computed optimal policy")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("converge", help="run the span-contraction verification pipeline")
    p.add_argument("file")
    p.add_argument("--v0", choices=("basis", "random"), default="basis")
    p.add_argument("--steps", type=_count, default=None, help="extend the recorded trace")
    p.add_argument("--seed", type=int, default=0, help="seed for --v0 random")
    p.add_argument("--strict", action="store_true", help="exit 3 when diagnostics fail")
    p.add_argument("-o", "--output", help="directory for report.json and trace.csv")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("generate", help="generate a random model deterministically")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--saps", type=int, required=True, help="SAPs per state")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sparsity", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reward-lo", type=float, default=0.0)
    p.add_argument("--reward-hi", type=float, default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="run converge over many generated instances")
    p.add_argument("--spec", required=True, help="GeneratorSpec JSON file")
    p.add_argument("--trials", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


_parser = functools.cache(build_parser)  # built on the first call of main, once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except AssumptionViolatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MdpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
