"""Canonical JSON model documents.

Schema version 1:

    {
      "schema_version": 1,
      "n": <int>,
      "gamma": <float>,
      "saps": [{"state": <int>, "reward": <float>, "probs": [<float>, ...]}, ...]
    }

Emission is canonical: fixed key order, SAPs in index order, reals printed
as Python's shortest round-trip decimals (at most 17 significant digits),
two-space indentation, trailing newline. Equal models therefore emit
byte-identical documents, and parse(emit(m)) reproduces every real exactly.
The writer produces the bytes of ``json.dumps(doc, indent=2) + "\n"``
without going through the encoder, whose indented mode is pure Python.
It formats only the transition entries whose bits are nonzero and writes
every +0.0 as the constant "0.0", the string repr gives for it, so
the bytes are unchanged; -0.0, subnormals, NaN and infinities are formatted.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ModelFormatError, UnsupportedVersionError, ValidationFailedError
from .model import MdpModel, validate_model

SCHEMA_VERSION = 1

# json's spellings of the reals that float.__repr__ writes as nan, inf, -inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ENTRY_SEP = ",\n        "  # between the entries of an indented transition row


def _reals(values: np.ndarray) -> list:
    """Each real of a float array as json writes it."""
    cells = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        cells = [_NONFINITE.get(c, c) for c in cells]
    return cells


def _integer(value, name: str) -> int:
    """``value`` as an int; a float with a fractional part is refused, not truncated,
    and a JSON boolean is refused, not read as 0 or 1."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} {json.dumps(value)} is not an integer")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float; a JSON boolean is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} {json.dumps(value)} is not a number")
    return float(value)


def _row(probs: np.ndarray, zeros: list) -> str:
    """The entries of one transition row, joined as json's indented writer joins them;
    ``zeros`` holds n "0.0" cells."""
    cells = zeros.copy()
    cols = np.flatnonzero(probs.view(np.int64))  # every entry but +0.0
    for col, cell in zip(cols.tolist(), _reals(probs[cols])):
        cells[col] = cell
    return _ENTRY_SEP.join(cells)


def emit_model(model: MdpModel) -> str:
    """The canonical schema-version-1 document of ``model``."""
    zeros = ["0.0"] * model.n
    saps = ",\n".join(
        "    {\n"
        f'      "state": {state},\n'
        f'      "reward": {reward},\n'
        f'      "probs": [\n        {_row(probs, zeros)}\n      ]\n'
        "    }"
        for state, reward, probs in zip(
            model.sap_states.tolist(), _reals(model.sap_rewards), model.sap_probs
        )
    )
    return (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "n": {model.n},\n'
        f'  "gamma": {model.gamma!r},\n'
        f'  "saps": [\n{saps}\n  ]\n'
        "}\n"
    )


def parse_model(text: str) -> MdpModel:
    """Parse and validate a model document.

    Raises ModelFormatError with line/column on syntax errors,
    UnsupportedVersionError on unknown schema versions, and
    ValidationFailedError carrying the violation list when the data breaks
    the model invariants.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level document must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION or isinstance(version, bool):  # true == 1 in Python
        raise UnsupportedVersionError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    for key in ("n", "gamma", "saps"):
        if key not in doc:
            raise ModelFormatError(f"missing required key {key!r}")
    raw_saps = doc["saps"]
    if not isinstance(raw_saps, list) or not raw_saps:
        raise ModelFormatError("saps must be a non-empty list")
    states, rewards, rows = [], [], []
    for i, entry in enumerate(raw_saps):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"sap {i}: must be an object")
        try:
            states.append(_integer(entry["state"], "state"))
            rewards.append(_real(entry["reward"], "reward"))
            rows.append(entry["probs"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"sap {i}: {exc}") from exc
        if not isinstance(rows[-1], list):
            raise ModelFormatError(f"sap {i}: probs must be a list")
    try:
        n, gamma = _integer(doc["n"], "n"), _real(doc["gamma"], "gamma")
        model = MdpModel._from_arrays(n, gamma, states, rewards, rows)
    except ValidationFailedError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(str(exc)) from exc
    violations = validate_model(model)
    if violations:
        raise ValidationFailedError(violations)
    return model
