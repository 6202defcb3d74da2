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
The document is made in pieces, one per SAP (``_pieces``): ``emit_model``
joins them and ``write_model`` writes them to a file as they are made.

On a document that cannot hold true, false or null, the reader hands json
an object hook that turns each transition row into a float64 array as soon
as json has read its SAP, so one row of Python floats is alive at a time
and the document's tree of floats is never built. A row that is not a 1-D
float64 array keeps its list and meets the checks that every row of a
document read without the hook meets, with the same messages.
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from .errors import ModelFormatError, UnsupportedVersionError, ValidationFailedError
from .model import _NON_NUMBERS, MdpModel, _non_numbers, validate_model

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
    and a JSON boolean, string or null is refused, not read as 0 or 1 or as the number it spells."""
    if isinstance(value, _NON_NUMBERS) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} {json.dumps(value)} is not an integer")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float; a JSON boolean, string or null is refused, not read as 0 or 1
    or as the number it spells."""
    if isinstance(value, _NON_NUMBERS):
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


def _pieces(model: MdpModel) -> Iterator[str]:
    """The canonical document of ``model`` in pieces: the header, one piece per SAP, the footer."""
    yield (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "n": {model.n},\n'
        f'  "gamma": {model.gamma!r},\n'
        '  "saps": [\n'
    )
    zeros, sep = ["0.0"] * model.n, ""
    for state, reward, probs in zip(
        model.sap_states.tolist(), _reals(model.sap_rewards), model.sap_probs
    ):
        yield (
            f"{sep}    {{\n"
            f'      "state": {state},\n'
            f'      "reward": {reward},\n'
            f'      "probs": [\n        {_row(probs, zeros)}\n      ]\n'
            "    }"
        )
        sep = ",\n"
    yield "\n  ]\n}\n"


def emit_model(model: MdpModel) -> str:
    """The canonical schema-version-1 document of ``model``."""
    return "".join(_pieces(model))


def write_model(model: MdpModel, path) -> None:
    """Write ``emit_model(model)`` to the file ``path``, a SAP at a time."""
    with open(path, "w") as f:
        f.writelines(_pieces(model))


def _row_array(obj: dict) -> dict:
    """json's object hook: ``obj`` with its ``probs`` list replaced by the list's array
    when that is 1-D float64. Any other list is kept for parse_model's checks, and
    a list numpy cannot convert (ragged, too deep) is kept too: the hook never raises."""
    row = obj.get("probs")
    if type(row) is list:
        try:
            array = np.array(row)
        except (ValueError, TypeError, OverflowError):
            return obj
        if array.dtype == np.float64 and array.ndim == 1:
            obj["probs"] = array
    return obj


def parse_model(text: str) -> MdpModel:
    """Parse and validate a model document.

    Raises ModelFormatError with line/column on syntax errors,
    UnsupportedVersionError on unknown schema versions, and
    ValidationFailedError carrying the violation list when the data breaks
    the model invariants.
    """
    # true, false and null are spelled with a u or an l, and emit_model writes neither
    # letter: only a document that may hold one is read as lists and scanned for them
    scan = "u" in text or "l" in text
    try:
        doc = json.loads(text, object_hook=None if scan else _row_array)
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
        if not isinstance(rows[-1], (list, np.ndarray)):
            raise ModelFormatError(f"sap {i}: probs must be a list")
    if scan:
        violations = _non_numbers(rows)
        if violations:
            raise ValidationFailedError(violations)
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
