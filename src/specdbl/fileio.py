"""JSON documents for sets and refinement traces, each one compact line with sorted keys:

  specdbl-set    orders of the ambient group plus the member coordinates
                 (version 2; version 1, the same schema indented, still reads)
  specdbl-trace  a full refinement run (version 6): config, input, result,
                 each step's observations, the four measured counts, and
                 the audit computed at write time (version 5 also stored an
                 optional gate constant K in config, and no longer reads)

Writing is canonical (same document, same bytes), so a load/save cycle of a
file reproduces it exactly.  A trace stores observations only; reading it
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


def _write(path, doc: dict) -> None:
    # one compact line: a row per element, and only then does the C encoder run
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


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


def write_set_file(path, members: ElementSet, metadata: Optional[dict] = None) -> None:
    _write(path, {
        "format": SET_FORMAT,
        "version": 2,
        "orders": list(members.group.orders),
        "elements": members.coords(),
        "metadata": metadata or {},
    })


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
        "input_elements": original.coords(),
        "a_star": result.a_star.coords(),
        "rho_star": result.rho_star,
        "terminated": result.terminated,
        "certified": result.certified,
        "measured": {key: result.measured[key] for key in MEASURED_COUNTS},
        "steps": [s.observed() for s in result.trace],
        "audit": audit.to_dict(),
    })
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
