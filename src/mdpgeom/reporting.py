"""Machine-readable result emission: JSON reports, span-trace and sweep CSVs.

Everything written here is a pure function of its inputs (no timestamps,
no environment probes), so reruns with the same seed and flags are
byte-identical. Reals are printed with Python's shortest round-trip repr,
which preserves them to 17 significant digits.

greedy_policy_hash is 64-bit FNV-1a (offset 14695981039346656037, prime
1099511628211) over the policy's SAP-index vector, each index fed as 8
little-endian bytes; it is printed as 16 hex digits so external tools can
recompute it.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .convergence import ConvergenceReport

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


def policy_hash(choice) -> str:
    """16-hex-digit FNV-1a over the SAP-index vector (8 LE bytes per index)."""
    payload = np.asarray(choice, dtype="<u8").tobytes()
    return f"{fnv1a64(payload):016x}"


def _greedy_policy_hashes(report: ConvergenceReport) -> list:
    """policy_hash of each greedy policy, hashing each distinct policy once.

    Rows are keyed by their "<u8" bytes, the payload policy_hash hashes.
    """
    rows = np.asarray(report.greedy_policies, dtype="<u8")
    keys = [row.tobytes() for row in rows]
    hashes = {key: policy_hash(row) for key, row in dict(zip(keys, rows)).items()}
    return [hashes[key] for key in keys]


def _json_safe(value):
    """Recursively convert to JSON-encodable data; non-finite reals to strings."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _json_safe(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_json_safe(v) for v in value)
    if hasattr(value, "item"):  # numpy scalars
        return _json_safe(value.item())
    if hasattr(value, "tolist"):  # numpy arrays
        return _json_safe(value.tolist())
    raise TypeError(f"cannot serialize {type(value)!r}")


def report_dict(report: ConvergenceReport, provenance: dict | None = None) -> dict:
    doc = {
        "report_version": 1,
        "gamma": report.gamma,
        "v0": list(report.v0),
        "diagnostics": report.diagnostics,
        "pi_star": list(report.pi_star) if report.pi_star is not None else None,
        "exponent": report.exponent,
        "constants": report.constants,
        "bound_satisfied": report.bound_satisfied,
        "sanity_bound_satisfied": report.sanity_bound_satisfied,
        "converged_early": report.converged_early,
        "span_trace": report.span_trace,
        "per_step_ratios": report.per_step_ratios,
        "greedy_policy_hashes": _greedy_policy_hashes(report),
        "unnormalized_span_trace": report.unnormalized_span_trace,
        "provenance": provenance or {},
    }
    return _json_safe(doc)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value) -> str:
    """A ``_fmt`` cell as a JSON value: null for None, a non-finite real as its quoted repr."""
    if value is None:
        return "null"
    if isinstance(value, float) and not math.isfinite(value):
        return f'"{value!r}"'
    return _fmt(value)


def _csv(names, rows) -> str:
    """CSV text: a header of ``names``, then one line of ``_fmt`` cells per row."""
    return "\n".join([",".join(names), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def trace_csv(report: ConvergenceReport, policy_hashes: list) -> str:
    """CSV of the verified run: columns t, span, ratio, greedy_policy_hash.

    Row t's ratio is span(v_t) / span(v_{t-1}); the t = 0 ratio is empty.
    ``policy_hashes`` is the report's ``greedy_policy_hashes`` list, so each
    policy is hashed once for both outputs.
    """
    ratios = [None, *report.per_step_ratios]
    rows = ((t, float(s), ratios[t], policy_hashes[t]) for t, s in enumerate(report.span_trace))
    return _csv(("t", "span", "ratio", "greedy_policy_hash"), rows)


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One sweep trial; the field order is the column order of sweep.csv."""

    trial: int
    seed: int
    n: int
    gamma: float
    unique: bool
    unichain: bool
    aperiodic: bool
    exponent: int | None
    delta: float | None
    omega: float | None
    phi: float | None
    tau: float | None
    degenerate: bool | None
    converged_early: bool
    span0: float
    span_final: float
    bound_satisfied: bool | None
    sanity_bound_satisfied: bool | None
    excluded: bool


_SWEEP_NAMES = tuple(f.name for f in dataclasses.fields(SweepRow))


def sweep_csv(rows: list) -> str:
    """sweep.csv: one line per ``SweepRow``, its fields in order."""
    return _csv(_SWEEP_NAMES, ([getattr(row, name) for name in _SWEEP_NAMES] for row in rows))


def _sweep_json(head: dict, rows: list, provenance: dict) -> str:
    """sweep.json: the bytes of ``json.dumps(_json_safe(doc), indent=2) + "\\n"``.

    ``doc`` is ``head``'s items, then ``"rows"`` and ``"provenance"``. json
    writes the header and the provenance; each row's fields are ``_json_cell``
    cells, the spelling ``sweep_csv`` uses.
    """
    objects = []
    for row in rows:
        cells = (f'      "{name}": {_json_cell(getattr(row, name))}' for name in _SWEEP_NAMES)
        objects.append("    {\n" + ",\n".join(cells) + "\n    }")
    listed = "[\n" + ",\n".join(objects) + "\n  ]" if objects else "[]"
    header = json.dumps(_json_safe(head), indent=2)[: -len("\n}")]
    nested = json.dumps(_json_safe(provenance), indent=2).replace("\n", "\n  ")
    return f'{header},\n  "rows": {listed},\n  "provenance": {nested}\n}}\n'
