"""JSON documents for sets and refinement traces.

Two formats, both plain JSON with sorted keys and two-space indentation:

  specdbl-set    orders of the ambient group plus the member coordinates
  specdbl-trace  a full refinement run: config, input, result, step records,
                 and the audit computed at write time

Writing is canonical (same document, same bytes), so a load/save cycle of a
set file reproduces it exactly.  Trace files carry enough to rebuild the
RefineResult and re-run the audit against the stored one.  Traces are written
at version 2 and set files at version 1; version 1 traces still read.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing
from pathlib import Path
from typing import Optional

from .groups import ElementSet, FiniteAbelianGroup
from .refine import RefineConfig, RefineResult, RefineTraceStep, audit_trace
from .regularity import C1_DEFAULT, C_DEFAULT, WITNESS_BUDGET

__all__ = [
    "FileFormatError",
    "write_set_file",
    "read_set_file",
    "write_trace_file",
    "read_trace_file",
]

SET_FORMAT = "specdbl-set"
TRACE_FORMAT = "specdbl-trace"
_VERSIONS = {SET_FORMAT: (1,), TRACE_FORMAT: (1, 2)}
# Config keys that version 2 dropped, with the only values a version 1
# writer ever stored; another value describes a run version 2 cannot express.
_V1_CONFIG = {
    "c1": C1_DEFAULT,
    "c": C_DEFAULT,
    "witness_restarts": WITNESS_BUDGET[0],
    "witness_alternations": WITNESS_BUDGET[1],
}
# measured keys that the audit and the bound report compute with
_MEASURED_NUMBERS = ("K", "spec_level", "spec_size", "sumset_size",
                     "certified_doubling_bound", "interim_bound")
# JSON types each field accepts (Optional[X] gives X or None), resolved once
# because resolving annotations costs more than reading a step
_KINDS = {cls: {name: typing.get_args(t) or (t,) for name, t in typing.get_type_hints(cls).items()}
          for cls in (RefineConfig, RefineTraceStep)}


class FileFormatError(ValueError):
    """Raised when a document cannot be read or does not match its schema."""


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _is(value, kind) -> bool:
    """JSON type test: bools are not numbers, ints are floats."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _field(doc: dict, name: str, kind, path) -> object:
    if name not in doc:
        raise FileFormatError(f"{path}: missing field {name!r}")
    value = doc[name]
    if not _is(value, kind):
        noun = "a number" if kind is float else kind.__name__
        raise FileFormatError(f"{path}: field {name!r} must be {noun}")
    return float(value) if kind is float else value


def _typed(cls, raw, path, label):
    """Build the dataclass cls from raw, checking every value against its annotation."""
    fields = _KINDS[cls]
    if not isinstance(raw, dict) or set(raw) != set(fields):
        raise FileFormatError(f"{path}: {label} has the wrong keys")
    values = {}
    for name, kinds in fields.items():
        value = raw[name]
        if not any(_is(value, kind) for kind in kinds):
            raise FileFormatError(f"{path}: {label}: field {name!r} has the wrong type")
        values[name] = float(value) if float in kinds and value is not None else value
    try:
        return cls(**values)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {label}: {exc}") from exc


def _check_header(doc: dict, expected: str, path) -> int:
    fmt = _field(doc, "format", str, path)
    if fmt != expected:
        raise FileFormatError(f"{path}: format {fmt!r}, expected {expected!r}")
    version = _field(doc, "version", int, path)
    if version not in _VERSIONS[expected]:
        raise FileFormatError(f"{path}: unsupported version {version}")
    return version


def _set_from(orders: list, elements: list, path, label: str) -> ElementSet:
    if not isinstance(orders, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders
    ):
        raise FileFormatError(f"{path}: field 'orders' must be a list of positive integers")
    try:
        group = FiniteAbelianGroup(tuple(orders))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if not isinstance(elements, list):
        raise FileFormatError(f"{path}: field {label!r} must be a list")
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
    doc = {
        "format": SET_FORMAT,
        "version": 1,
        "orders": list(members.group.orders),
        "elements": members.coords(),
        "metadata": metadata or {},
    }
    Path(path).write_text(_dump(doc))


def read_set_file(path) -> tuple[ElementSet, dict]:
    doc = _load_json(path)
    _check_header(doc, SET_FORMAT, path)
    members = _set_from(doc.get("orders"), doc.get("elements"), path, "elements")
    metadata = _field(doc, "metadata", dict, path)
    return members, metadata


def write_trace_file(path, result: RefineResult, original: ElementSet) -> None:
    if original.group.orders != result.a_star.group.orders:
        raise ValueError("the original set lives in a different group than the result")
    audit = audit_trace(result, original)
    doc = {
        "format": TRACE_FORMAT,
        "version": 2,
        "theorem": result.theorem,
        "config": dataclasses.asdict(result.config),
        "orders": list(original.group.orders),
        "input_elements": original.coords(),
        "a_star": result.a_star.coords(),
        "rho_star": result.rho_star,
        "terminated": result.terminated,
        "certified": result.certified,
        "initial_size": result.initial_size,
        "measured": result.measured,
        "steps": [dataclasses.asdict(s) for s in result.trace],
        "audit": audit.to_dict(),
    }
    Path(path).write_text(_dump(doc))


def read_trace_file(path) -> tuple[RefineResult, ElementSet, dict]:
    """Rebuild (result, original input set, stored audit dict) from a trace file."""
    doc = _load_json(path)
    version = _check_header(doc, TRACE_FORMAT, path)
    theorem = _field(doc, "theorem", int, path)
    if theorem not in (1, 2):
        raise FileFormatError(f"{path}: field 'theorem' must be 1 or 2")

    raw_cfg = dict(_field(doc, "config", dict, path))
    if version == 1:
        for key, expected in _V1_CONFIG.items():
            value = raw_cfg.pop(key, None)
            if type(value) is not type(expected) or value != expected:
                raise FileFormatError(f"{path}: field 'config': version 1 key {key!r} "
                                      f"must be {expected!r}, got {value!r}")
    cfg = _typed(RefineConfig, raw_cfg, path, "field 'config'")

    orders = doc.get("orders")
    original = _set_from(orders, doc.get("input_elements"), path, "input_elements")
    a_star = _set_from(orders, doc.get("a_star"), path, "a_star")

    steps = _field(doc, "steps", list, path)
    trace = [_typed(RefineTraceStep, raw, path, f"step {i}") for i, raw in enumerate(steps)]
    measured = _field(doc, "measured", dict, path)
    for key in _MEASURED_NUMBERS:
        _field(measured, key, float, f"{path}: field 'measured'")

    terminated = _field(doc, "terminated", str, path)
    if terminated not in ("finished", "budget_exhausted", "inconclusive"):
        raise FileFormatError(f"{path}: unknown terminated state {terminated!r}")

    result = RefineResult(
        theorem=theorem,
        a_star=a_star,
        rho_star=_field(doc, "rho_star", float, path),
        terminated=terminated,
        certified=bool(_field(doc, "certified", bool, path)),
        trace=tuple(trace),
        measured=measured,
        config=cfg,
        initial_size=_field(doc, "initial_size", int, path),
    )
    audit = _field(doc, "audit", dict, path)
    return result, original, audit
