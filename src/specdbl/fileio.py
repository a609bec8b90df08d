"""JSON documents for sets and refinement traces, each one compact line with sorted keys:

  specdbl-set    orders of the ambient group plus the member coordinates
                 (version 2; version 1, the same schema indented, still reads)
  specdbl-trace  a full refinement run (version 6): config, input, result,
                 each step's observations, the four measured counts, and
                 the audit computed at write time (version 5 also stored an
                 optional gate constant K in config, and no longer reads)

Writing is canonical (same document, same bytes), so a load/save cycle of a
file reproduces it exactly.  ``_rows_json`` writes the coordinate rows: their
digits go into one numpy byte array, with no Python object per coordinate,
and the text is byte for byte what ``json.dumps`` gives for the rows;
``json.dumps`` writes every other value.  Reading mirrors it: ``_load_json``
walks the top-level keys with the C scanner of the ``json`` module, and
``_rows_from_json`` parses each row field's text into one int64 array, again
with no Python object per coordinate, and in fewer passes when every number
is one digit (every file of a pure 2-group).  ``ElementSet.from_coords`` then
checks the rows' range and encodes them; a trace's two row fields share one
group.  The reader accepts and refuses the documents ``json.loads`` and a
type check of the rows did (any layout, key order or whitespace), and a
syntax error inside the rows may name the field in place of a line.  A trace stores observations only; reading it derives the steps
and ``measured`` with the run's own ``refine._replay`` and
``refine._measure``, and a key the writer does not write is a format error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from .groups import ElementSet, FiniteAbelianGroup
from .refine import (MEASURED_COUNTS, OBSERVED, AuditReport, RefineConfig, RefineResult,
                     RefineTraceStep, _measure, _replay, _resolve_k, audit_trace)

__all__ = [
    "FileFormatError",
    "write_set_file",
    "read_set_file",
    "write_trace_file",
    "read_trace_file",
]

SET_FORMAT = "specdbl-set"
TRACE_FORMAT = "specdbl-trace"
# a set file's versions differ only in layout
_VERSIONS = {SET_FORMAT: (1, 2), TRACE_FORMAT: (6,)}
# the keys whose values are coordinate rows; each holds the _rows_from_json
# array, or the JSON list it could not take, which is no coordinate rows
_ROW_FIELDS = ("elements", "input_elements", "a_star")
_ROWS = (np.ndarray, list)
# every key a version 6 trace holds and its JSON kind; any other key is a format error
_TRACE_KINDS = {"format": (str,), "version": (int,), "theorem": (int,), "config": (dict,),
                "orders": (list,), "input_elements": _ROWS, "a_star": _ROWS,
                "rho_star": (float,), "terminated": (str,), "certified": (bool,),
                "measured": (dict,), "steps": (list,), "audit": (dict,)}
# the keys a set file reader checks; it ignores any other
_SET_KINDS = {"orders": (list,), "elements": _ROWS, "metadata": (dict,)}
# JSON types each field accepts (Optional[X] gives X or None), resolved once
# because resolving annotations costs more than reading a step
_KINDS = {name: typing.get_args(t) or (t,) for cls in (RefineConfig, RefineTraceStep)
          for name, t in typing.get_type_hints(cls).items()}
_CONFIG_KINDS = {f.name: _KINDS[f.name] for f in dataclasses.fields(RefineConfig)}
_STEP_KINDS = {name: _KINDS[name] for name in OBSERVED}  # a step stores its observations
_COUNT_KINDS = dict.fromkeys(MEASURED_COUNTS, (int,))

_WS = json.decoder.WHITESPACE.match
_scanstring = json.decoder.scanstring
_scan = json.JSONDecoder().scan_once
# each byte's class in _rows_from_json: "0" for a digit or "-", " " for JSON
# whitespace, itself for "[", "]" and ",", and "?" for any byte rows do not hold
_DIGIT, _SPACE, _MINUS = ord("0"), ord(" "), ord("-")
_ROW_CLASS = bytes(_DIGIT if c in b"0123456789-" else _SPACE if c in b" \t\n\r"
                   else c if c in b"[]," else ord("?") for c in range(256))


class FileFormatError(ValueError):
    """Raised when a document cannot be read or does not match its schema."""


def _load_json(path) -> dict:
    """The top-level object of the JSON document at ``path``; the value of a
    top-level key in ``_ROW_FIELDS`` that is coordinate rows comes back as
    the ``_rows_from_json`` array, with no Python int per coordinate."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    is_object = text.startswith("{", _WS(text).end())
    try:
        if is_object:
            return _object(text)
        json.loads(text)  # words the error of a document that is no object
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    raise FileFormatError(f"{path}: top level must be an object")


def _object(text: str) -> dict:
    """The object that starts ``text`` after whitespace, walked key by key as
    ``json.loads`` walks it, and with its messages: each value goes through
    the C scanner, except a row field's value that ``_rows_from_json``
    takes.  The last of duplicate keys wins."""
    doc = {}
    i = _WS(text, _WS(text).end() + 1).end()
    while doc or not text.startswith("}", i):  # only an empty object closes before a key
        if not text.startswith('"', i):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
        key, i = _scanstring(text, i + 1)
        i = _WS(text, i).end()
        if not text.startswith(":", i):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
        i = _WS(text, i + 1).end()
        value, end = _rows_from_json(text, i) if key in _ROW_FIELDS else (None, i)
        if value is None:
            try:
                value, end = _scan(text, i)
            except StopIteration as err:
                raise json.JSONDecodeError("Expecting value", text, err.value) from None
        doc[key] = value
        i = _WS(text, end).end()
        if text.startswith("}", i):
            break
        if not text.startswith(",", i):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
        i = _WS(text, i + 1).end()
    i = _WS(text, i + 1).end()
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return doc


def _rows_from_json(text: str, start: int) -> tuple:
    """(rows, end) for the JSON array of equal-length integer rows that
    starts at ``text[start]``, as an (m, rank) int64 array (shape (0, 0) for
    ``[]``), or (None, start) if no such array starts there.

    A rows value holds no '"', so it ends at the last "]" before the next
    one.  Its bytes are read in whole-array passes.  One table maps each to
    its class: "0" for a digit or "-", " " for whitespace, "?" for a byte no
    rows value holds.  A number is a run of "0" cells; with whitespace
    dropped and each run cut to one cell, the classes must be the text
    ``[[0,..,0],..,[0,..,0]]``.  A "-" may only lead a run, and a run of more
    than one digit may not start with "0".  The digits are then summed by
    place value.  With no "-" and no two "0" cells adjacent, as in every row
    of a pure 2-group, each number is one digit, its own first and last: the
    runs need no cutting, no second scan finds their ends, and the values
    are the digits themselves.  A number of more than 18 digits is past
    int64, so out of range for every factor: the rows are then Python ints,
    which ``ElementSet.from_coords`` names in its error.
    """
    stop = text.find('"', start)
    end = text.rfind("]", start, len(text) if stop < 0 else stop) + 1
    if not (end and text.startswith("[", start)):
        return None, start
    raw = text[start:end].encode()
    cls = np.frombuffer(raw.translate(_ROW_CLASS), dtype=np.uint8)
    raw = np.frombuffer(raw, dtype=np.uint8)
    minus = np.count_nonzero(raw == _MINUS)
    num = cls == _DIGIT
    begins = num[1:] > num[:-1]  # a number starts one cell on; the first cell is "["
    starts = np.flatnonzero(begins)
    starts += 1
    count = starts.size
    one_digit = not minus and np.count_nonzero(num) == count
    keep = cls != _SPACE
    if not one_digit:
        keep[1:] &= begins | ~num[1:]
    shape = cls[keep].tobytes()
    if shape == b"[]":
        return np.zeros((0, 0), dtype=np.int64), end
    m = (len(shape) - 1) // 2 - count  # a row of r numbers is 2 r + 2 cells with its ","
    rank = count // m if m > 0 else 0
    if not rank or shape != (b"[" + (b"[0" + b",0" * (rank - 1) + b"],") * m)[:-1] + b"]":
        return None, start
    last, top = starts, 1
    if not one_digit:
        last = np.flatnonzero(num[1:] < num[:-1])  # each number's last digit; the last cell is "]"
        first = starts
        if minus:
            negative = raw[starts] == _MINUS
            first = starts + negative
            if np.count_nonzero(negative) != minus or (last < first).any():
                return None, start
        top = int((last - first).max()) + 1  # the most digits in a number
        if top > 1:
            width = last - first + 1
            if ((raw[first] == _DIGIT) & (width > 1)).any():  # a leading zero
                return None, start
    if top > 18:
        values = np.array([int(raw[a:b + 1].tobytes()) for a, b in zip(starts, last)], dtype=object)
    else:
        values = raw[last].astype(np.int64)
        values -= _DIGIT
        for k in range(1, top):
            digits = raw[last - k].astype(np.int64)
            digits -= _DIGIT
            digits[width <= k] = 0
            values += digits * 10**k
        if minus:
            np.negative(values, out=values, where=negative)
    return values.reshape(m, rank), end


def _is(value, kind) -> bool:
    """JSON type test: bools are not numbers, ints are floats."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _float(value, where: str) -> float:
    """float(value) for a JSON number; NaN, +-Infinity and an int past float
    range are format errors, since no run writes them."""
    try:
        number = float(value)
    except OverflowError as exc:
        raise FileFormatError(f"{where} is past float range") from exc
    if not math.isfinite(number):
        raise FileFormatError(f"{where} must be finite, got {number}")
    return number


def _typed(build, fields: dict, raw, where):
    """build(**raw) for an object raw that holds exactly ``fields``, each
    value of one of its field's JSON kinds; ``where`` names raw in errors."""
    if not isinstance(raw, dict):
        raise FileFormatError(f"{where} must be an object")
    if odd := sorted(raw.keys() ^ fields.keys()):
        raise FileFormatError(f"{where}: {'unknown' if odd[0] in raw else 'missing'} "
                              f"field {odd[0]!r}")
    values = {}
    for name, kinds in fields.items():
        value = raw[name]
        if not any(_is(value, kind) for kind in kinds):
            raise FileFormatError(f"{where}: field {name!r} has the wrong type")
        if float in kinds and value is not None:
            value = _float(value, f"{where}: field {name!r}")
        values[name] = value
    try:
        return build(**values)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _check_header(doc: dict, expected: str, path) -> None:
    fmt, version = doc.get("format"), doc.get("version")
    if fmt != expected:
        raise FileFormatError(f"{path}: format {fmt!r}, expected {expected!r}")
    if type(version) is not int or version not in _VERSIONS[expected]:  # True == 1.0 == 1
        raise FileFormatError(f"{path}: unsupported version {version!r}")


def _rows_json(members: ElementSet) -> str:
    """``json.dumps(rows, separators=(",", ":"))`` for the coordinate rows of
    ``members`` in index order, built as one byte array.

    A row's cells are, for each coordinate, a lead ("[" before the first, else
    ",") and ``width`` digits, enough for the largest order, written by
    integer division; then "]" and ",", the last row's "," closing the list.
    One mask drops the leading zeros.  The coordinates are decoded chunk by
    chunk straight into the narrowest type that holds the largest order, with
    no int64 copy of them all, and every other temporary holds one byte a
    cell or that type.  The kept cells are decoded as text from their own
    buffer, once the cell array and the mask are freed.
    """
    if not members.size:
        return "[]"
    group = members.group
    top = max(group.orders) - 1
    width = len(str(top))
    m, rank = members.size, group.rank
    coords = group._decode_into(members.indices(),
                                np.empty((m, rank), dtype=np.min_scalar_type(top)))
    step = width + 1
    cells = np.empty((m, rank * step + 2), dtype=np.uint8)
    cells[:, 0:-2:step] = ord(",")
    cells[:, 0] = ord("[")
    cells[:, -2:] = (ord("]"), ord(","))
    cells[-1, -1] = ord("]")
    keep = np.ones(cells.shape, dtype=bool)
    for k in range(width):  # the digit of 10^k sits in column width - k of a coordinate
        digits = slice(width - k, -2, step)
        cells[:, digits] = coords // 10**k % 10 + ord("0")
        if k:
            keep[:, digits] = coords >= 10**k
    kept = cells[keep]
    del coords, cells, keep
    return "[" + str(kept.data, "ascii")


def _csv_lines(rows: str) -> str:
    """The text of ``_rows_json`` as comma-separated lines, one per row."""
    return rows[2:-2].replace("],[", "\n")


def _dumps(doc: dict, rows: dict) -> str:
    """``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of ``doc``
    with the keys of ``rows`` added, whose values are already JSON text."""
    parts = {key: json.dumps(value, sort_keys=True, separators=(",", ":"))
             for key, value in doc.items()}
    parts.update(rows)
    return "{" + ",".join(f"{json.dumps(key)}:{parts[key]}" for key in sorted(parts)) + "}"


def _write(path, doc: dict, rows: dict) -> None:
    Path(path).write_text(_dumps(doc, rows) + "\n")


def _group_from(orders: list, path) -> FiniteAbelianGroup:
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders):
        raise FileFormatError(f"{path}: field 'orders' must be a list of positive integers")
    try:
        return FiniteAbelianGroup(tuple(orders))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _set_from(group: FiniteAbelianGroup, rows, path, label: str) -> ElementSet:
    if not isinstance(rows, np.ndarray) or rows.size and rows.shape[1] != group.rank:
        raise FileFormatError(
            f"{path}: field {label!r} must contain coordinate rows of length {group.rank}"
        )
    try:
        return ElementSet.from_coords(group, rows)
    except ValueError as exc:
        raise FileFormatError(f"{path}: field {label!r}: {exc}") from exc


def write_set_file(path, members: ElementSet, metadata: Optional[dict] = None) -> str:
    """Write ``members`` as a version 2 set file; return the JSON text of its
    rows, so a caller that prints them too encodes them once."""
    rows = _rows_json(members)
    _write(path, {
        "format": SET_FORMAT,
        "version": 2,
        "orders": list(members.group.orders),
        "metadata": metadata or {},
    }, {"elements": rows})
    return rows


def read_set_file(path) -> tuple[ElementSet, dict]:
    doc = _load_json(path)
    _check_header(doc, SET_FORMAT, path)
    doc = _typed(dict, _SET_KINDS, {key: doc[key] for key in _SET_KINDS if key in doc}, path)
    group = _group_from(doc["orders"], path)
    return _set_from(group, doc["elements"], path, "elements"), doc["metadata"]


def write_trace_file(path, result: RefineResult, original: ElementSet) -> AuditReport:
    """Write ``result`` as a version 6 trace; return the audit stored in it."""
    if original.group.orders != result.a_star.group.orders:
        raise ValueError("the original set lives in a different group than the result")
    audit = audit_trace(result, original)
    _write(path, {
        "format": TRACE_FORMAT,
        "version": 6,
        "theorem": result.theorem,
        "config": dataclasses.asdict(result.config),
        "orders": list(original.group.orders),
        "rho_star": result.rho_star,
        "terminated": result.terminated,
        "certified": result.certified,
        "measured": {key: result.measured[key] for key in MEASURED_COUNTS},
        "steps": [s.observed() for s in result.trace],
        "audit": audit.to_dict(),
    }, {"input_elements": _rows_json(original), "a_star": _rows_json(result.a_star)})
    return audit


def read_trace_file(path) -> tuple[RefineResult, ElementSet, dict]:
    """Rebuild (result, original input set, stored audit dict) from a trace file."""
    doc = _load_json(path)
    _check_header(doc, TRACE_FORMAT, path)
    doc = _typed(dict, _TRACE_KINDS, doc, path)
    theorem = doc["theorem"]
    if theorem not in (1, 2):
        raise FileFormatError(f"{path}: field 'theorem' must be 1 or 2")

    cfg = _typed(RefineConfig, _CONFIG_KINDS, doc["config"], f"{path}: field 'config'")

    group = _group_from(doc["orders"], path)
    original = _set_from(group, doc["input_elements"], path, "input_elements")
    a_star = _set_from(group, doc["a_star"], path, "a_star")
    if not a_star.size:  # a refinement never empties its set
        raise FileFormatError(f"{path}: field 'a_star' is empty")

    observed = [_typed(dict, _STEP_KINDS, raw, f"{path}: step {i}")
                for i, raw in enumerate(doc["steps"])]
    k_value = _resolve_k(cfg, theorem, original.group.size)
    trace = tuple(_replay(theorem, cfg, k_value, cfg.epsilon, original.size, observed))
    counts = _typed(dict, _COUNT_KINDS, doc["measured"], f"{path}: field 'measured'")
    rho_star = doc["rho_star"]
    if not rho_star > 0:  # a spectrum level
        raise FileFormatError(f"{path}: field 'rho_star' must be positive, got {rho_star}")
    try:
        measured = _measure(theorem, cfg, a_star.group.size, a_star.size, rho_star,
                            trace[0].spec_size if trace else 0, **counts)
    except ArithmeticError as exc:  # a count past float range
        raise FileFormatError(f"{path}: cannot derive the measured values: {exc}") from exc

    if doc["terminated"] not in ("finished", "budget_exhausted", "inconclusive"):
        raise FileFormatError(f"{path}: unknown terminated state {doc['terminated']!r}")

    result = RefineResult(
        theorem=theorem,
        a_star=a_star,
        rho_star=rho_star,
        terminated=doc["terminated"],
        certified=doc["certified"],
        trace=trace,
        measured=measured,
        config=cfg,
    )
    return result, original, doc["audit"]
