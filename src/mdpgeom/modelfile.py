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

The reader walks the top-level object itself and hands each of its values,
and each element of ``saps``, to json's scanner (``_walk``). ``read_model``
reads the file ``_CHUNK`` characters at a time, with ``Path.read_text``'s
encoding and newline translation, and holds only the text from the element
being read on; ``parse_model`` walks its string the same way. A SAP whose
text has no u and no l, so no true, false or null, is read through an object
hook that turns its transition row into a float64 array at once, so one row
of Python floats is alive at a time. A row whose entries other than +0.0
take fewer bytes as int32 columns and values is held as those
(``_Nonzeros``). When every row is such an array or ``_Nonzeros`` of n
entries, they are written into one zeroed (m, n) matrix, each let go as it
is written (``_matrix``). A row that is not a 1-D float64 array keeps its
list, and every such row is scanned for strings, booleans and nulls
(``_non_numbers``), whatever the rest of the text holds. Where the
walk fails (text that is not json, bytes the codec cannot decode, a
structure it does not walk), the document is read whole and json reads it,
so every message, line, column and byte position is json's or the codec's.
A file's read peaks at the matrix, the rows as read and about a megabyte:
14.5 MB traced for the 11.5 MB of rows of an n = 600, 4-SAP file at
sparsity 0.9, and 23.5 MB for dense rows of that size.
"""

from __future__ import annotations

import json
from functools import partial
from json.decoder import WHITESPACE
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ModelFormatError, UnsupportedVersionError, ValidationFailedError
from .model import MdpModel, validate_model

SCHEMA_VERSION = 1

# json's spellings of the reals that float.__repr__ writes as nan, inf, -inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ENTRY_SEP = ",\n        "  # between the entries of an indented transition row
# characters read from a model file at a time: a text-mode read of k characters
# peaks at about 4k bytes (tracemalloc), so a read costs about 1 MiB
_CHUNK = 2**18
_SPACE = WHITESPACE.match  # the whitespace json allows between tokens
# the JSON values that are not numbers, though Python reads true and false as 1 and 0
_NON_NUMBERS = (bool, str, type(None))


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


def _non_numbers(rows) -> list:
    """A violation for each transition row with a string, boolean or None entry, naming its first."""
    out = []
    for i, row in enumerate(rows):
        if set(_NON_NUMBERS) & set(map(type, row)):
            entry = next(x for x in row if type(x) in _NON_NUMBERS)
            out.append(f"sap {i}: transition entry {json.dumps(entry)} is not a number")
    return out


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


class _Nonzeros:
    """A transition row of ``size`` entries held as those that are not +0.0:
    their int32 columns ``cols`` and their values ``vals``."""

    __slots__ = ("size", "cols", "vals")

    def __init__(self, row: np.ndarray, cols: np.ndarray):
        self.size, self.cols, self.vals = row.size, cols.astype(np.int32), row[cols]

    def dense(self) -> np.ndarray:
        row = np.zeros(self.size)
        row[self.cols] = self.vals
        return row


def _row_array(obj: dict) -> dict:
    """json's object hook: ``obj`` with its ``probs`` list replaced by the list's array
    when that is 1-D float64, held as its ``_Nonzeros`` when they take fewer bytes.
    Any other list is kept for parse_model's checks, and a list numpy cannot convert
    (ragged, too deep) is kept too: the hook never raises."""
    row = obj.get("probs")
    if type(row) is list:
        try:
            array = np.array(row)
        except (ValueError, TypeError, OverflowError):
            return obj
        if array.dtype == np.float64 and array.ndim == 1:
            # every entry but +0.0, picked by its bits, so -0.0 is kept
            cols = np.flatnonzero(array.view(np.int64))
            obj["probs"] = _Nonzeros(array, cols) if 12 * cols.size < array.nbytes else array
    return obj


class _Text:
    """A document being walked: ``buf[pos:]`` is the part read but not yet taken,
    and ``read`` (None once the document is read to its end) gives the rest."""

    def __init__(self, read, buf: str):
        self.read, self.buf, self.pos = read, buf, 0

    def take(self, step):
        """``step(buf, pos)``'s value. While the step fails or ends at the buffer's end,
        the text before ``pos`` is dropped, more is read and the step is retried; at the
        document's end its error is raised."""
        while True:
            try:
                value, end = step(self.buf, self.pos)
                if end < len(self.buf) or self.read is None:
                    break
            except ValueError:
                if self.read is None:
                    raise
            rest, self.buf = self.buf[self.pos :], ""
            chunk = self.read(max(_CHUNK, len(rest)))  # a step that keeps failing doubles the buffer
            if not chunk:
                self.read = None
            self.buf, self.pos = rest + chunk, 0
        self.pos = end
        return value


def _token(buf: str, pos: int, chars: str) -> tuple:
    """The first character after whitespace at ``pos``, which must be one of ``chars``,
    and the position after it."""
    pos = _SPACE(buf, pos).end()
    if pos == len(buf) or buf[pos] not in chars:
        raise ValueError
    return buf[pos], pos + 1


def _item(decode, chars: str):
    """A walk step: a json value read by ``decode``, then one of the characters ``chars``."""

    def step(buf: str, pos: int) -> tuple:
        value, end = decode(buf, _SPACE(buf, pos).end())
        char, end = _token(buf, end, chars)
        return (value, char), end

    return step


def _end(buf: str, pos: int) -> tuple:
    """A walk step over the whitespace that ends a document."""
    end = _SPACE(buf, pos).end()
    if end < len(buf):
        raise ValueError
    return None, end


def _walk(read, buf: str = "") -> dict:
    """json's document of the text ``buf`` then ``read`` gives.

    The top-level object is walked here; each of its values, and each element of
    ``saps``, is read by json's scanner, so the text held is a chunk and the element
    being read. A SAP whose text has no u and no l is read through ``_row_array``, as a
    document without either letter is read whole. Raises ValueError, with no message
    of its own, on text that is not json or that it does not walk: a top level that
    is not an object, a value other than ``saps`` that is a list or an object (which
    json may read through ``_row_array``), a ``saps`` that is not a non-empty list.
    A repeated key replaces the value before it, as it does in json.loads.
    """
    plain, hooked = json.JSONDecoder().raw_decode, json.JSONDecoder(object_hook=_row_array).raw_decode

    def sap(buf: str, pos: int) -> tuple:
        # with no closing brace left the SAP is cut short: read more before json scans it,
        # which would fail and count the buffer's lines for its message
        if buf.find("}", pos) < 0:
            raise ValueError
        entry, end = hooked(buf, pos)
        if buf.find("u", pos, end) >= 0 or buf.find("l", pos, end) >= 0:
            return plain(buf, pos)  # a row with true or false must reach _non_numbers as json's list
        return entry, end

    key_item, member, sap_item = _item(plain, ":"), _item(plain, ",}"), _item(sap, ",]")
    text, doc, char = _Text(read, buf), {}, ","
    text.take(partial(_token, chars="{"))
    while char == ",":
        key, _ = text.take(key_item)
        if type(key) is not str:
            raise ValueError
        if key != "saps":
            doc[key], char = text.take(member)
            if isinstance(doc[key], (dict, list)):
                raise ValueError
            continue
        text.take(partial(_token, chars="["))
        doc[key] = saps = []
        while char == ",":
            entry, char = text.take(sap_item)
            saps.append(entry)
        char = text.take(partial(_token, chars=",}"))
    text.take(_end)
    return doc


def _load(text: str):
    """json's document of the whole ``text``."""
    # true, false and null are spelled with a u or an l, and emit_model writes neither
    # letter: only a document that may hold one is read as lists, so true is not read as 1.0
    hook = None if "u" in text or "l" in text else _row_array
    try:
        return json.loads(text, object_hook=hook)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _document(walk, whole):
    """``walk()``'s document or, where it cannot walk the text, ``_load(whole())``'s,
    whose errors, positions and messages are json's and the codec's."""
    try:
        return walk()
    except (ValueError, RecursionError):
        pass
    return _load(whole())


def _model(doc) -> MdpModel:
    """The model of json's document ``doc``, not yet validated."""
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
        if not isinstance(rows[-1], (list, np.ndarray, _Nonzeros)):
            raise ModelFormatError(f"sap {i}: probs must be a list")
    raw_saps.clear()  # ``rows`` holds the only reference to each row
    # an array or a row of nonzeros holds floats only; a canonical file has no list row
    violations = _non_numbers(row if type(row) is list else () for row in rows)
    if violations:
        raise ValidationFailedError(violations)
    try:
        n, gamma = _integer(doc["n"], "n"), _real(doc["gamma"], "gamma")
        model = MdpModel._from_arrays(n, gamma, states, rewards, _matrix(rows, n))
    except ValidationFailedError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(str(exc)) from exc
    return model


def _matrix(rows: list, n: int):
    """The (m, n) matrix of ``rows`` when each is an array or a ``_Nonzeros`` of n entries,
    filled a row at a time as ``rows`` lets go of each; otherwise ``rows``, with every
    ``_Nonzeros`` made dense, for ``MdpModel._from_arrays`` to check and stack."""
    if not all(type(row) is not list and row.size == n for row in rows):
        return [row.dense() if type(row) is _Nonzeros else row for row in rows]
    matrix = np.zeros((len(rows), n))
    for i, row in enumerate(rows):
        if type(row) is _Nonzeros:
            matrix[i, row.cols] = row.vals
        else:
            matrix[i] = row
        rows[i] = None
    return matrix


def _read(walk, whole) -> MdpModel:
    """The validated model of the document ``walk()`` walks, or of ``whole()``."""
    model = _model(_document(walk, whole))  # drops the document and its rows before validating
    violations = validate_model(model)
    if violations:
        raise ValidationFailedError(violations)
    return model


def parse_model(text: str) -> MdpModel:
    """Parse and validate a model document.

    Raises ModelFormatError with line/column on syntax errors,
    UnsupportedVersionError on unknown schema versions, and
    ValidationFailedError carrying the violation list when the data breaks
    the model invariants.
    """
    return _read(lambda: _walk(None, text), lambda: text)


def read_model(path) -> MdpModel:
    """``parse_model(Path(path).read_text())``, reading the file a chunk at a time."""

    def walk():
        with Path(path).open() as f:  # read_text's encoding and newline translation
            return _walk(f.read)

    return _read(walk, Path(path).read_text)
