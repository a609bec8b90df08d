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
``json.dumps`` writes every other value.  A trace stores observations only; reading it
derives the steps and ``measured`` with the run's own ``refine._replay`` and
``refine._measure``, and a key the writer does not write is a format error.
"""

from __future__ import annotations

import dataclasses
import itertools
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
# every key a version 6 trace holds and its JSON kind; any other key is a format error
_TRACE_KINDS = {"format": (str,), "version": (int,), "theorem": (int,), "config": (dict,),
                "orders": (list,), "input_elements": (list,), "a_star": (list,),
                "rho_star": (float,), "terminated": (str,), "certified": (bool,),
                "measured": (dict,), "steps": (list,), "audit": (dict,)}
# the keys a set file reader checks; it ignores any other
_SET_KINDS = {"orders": (list,), "elements": (list,), "metadata": (dict,)}
# JSON types each field accepts (Optional[X] gives X or None), resolved once
# because resolving annotations costs more than reading a step
_KINDS = {name: typing.get_args(t) or (t,) for cls in (RefineConfig, RefineTraceStep)
          for name, t in typing.get_type_hints(cls).items()}
_CONFIG_KINDS = {f.name: _KINDS[f.name] for f in dataclasses.fields(RefineConfig)}
_STEP_KINDS = {name: _KINDS[name] for name in OBSERVED}  # a step stores its observations
_COUNT_KINDS = dict.fromkeys(MEASURED_COUNTS, (int,))


class FileFormatError(ValueError):
    """Raised when a document cannot be read or does not match its schema."""


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


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
    One mask drops the leading zeros.  ``decode_indices``' int64 array is cast
    at once to the narrowest type that holds the largest order, and every
    other temporary holds one byte a cell or that type.
    """
    if not members.size:
        return "[]"
    top = max(members.group.orders) - 1
    width = len(str(top))
    coords = members.group.decode_indices(members.indices()).astype(np.min_scalar_type(top))
    m, rank = coords.shape
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
    return "[" + cells[keep].tobytes().decode("ascii")


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


def _set_from(orders: list, elements: list, path, label: str) -> ElementSet:
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders):
        raise FileFormatError(f"{path}: field 'orders' must be a list of positive integers")
    try:
        group = FiniteAbelianGroup(tuple(orders))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    # whole-list passes in C: JSON gives rows as lists and coordinates as
    # ints, and a bool (an int subclass) is not a coordinate
    if not (set(map(type, elements)) <= {list}
            and set(map(len, elements)) <= {len(orders)}
            and set(map(type, itertools.chain.from_iterable(elements))) <= {int}):
        raise FileFormatError(
            f"{path}: field {label!r} must contain coordinate rows of length {len(orders)}"
        )
    try:
        return ElementSet.from_coords(group, elements)
    except (ValueError, IndexError) as exc:
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
    return _set_from(doc["orders"], doc["elements"], path, "elements"), doc["metadata"]


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

    original = _set_from(doc["orders"], doc["input_elements"], path, "input_elements")
    a_star = _set_from(doc["orders"], doc["a_star"], path, "a_star")
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
