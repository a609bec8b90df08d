"""Spans around specdbl's layers, recorded from outside the package.

Each layer's public functions are wrapped at the module attributes their
callers look up at call time (``specdbl.refine.sumset`` as well as
``specdbl.groups.sumset``), so nothing under ``src/`` changes.  A span is
(name, start, end, parent, op id); spans are kept in memory and written out
when the run ends.  A layer's self time is its span's duration minus the
durations of its child spans.  Counters are taken at the same boundaries
from the arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _pairs(args, kwargs, result):
    s, t = args[0], args[1]
    return {"pairs": s.size * t.size}


def _certificate(args, kwargs, result):
    return {"certified": int(bool(result[1]))}


def _verdict(args, kwargs, result):
    return {result.status: 1}


def _matrix(args, kwargs, result):
    rows, cols = result.entries.shape
    return {"cells": rows * cols}


def _refine(args, kwargs, result):
    actions = [s.action for s in result.trace]
    return {"steps": len(actions), "minor": actions.count("minor"),
            "growth": actions.count("growth")}


def _doubling(args, kwargs, result):
    return {"exact_pairs": result.total_pairs if result.exact else 0}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module attributes to wrap, counter hook run after the call)
TARGETS = {
    "groups.sumset": (("specdbl.groups.sumset", "specdbl.refine.sumset",
                       "specdbl.diagnostics.sumset"), _pairs),
    "groups.difference_set": (("specdbl.refine.difference_set",
                               "specdbl.diagnostics.difference_set"), None),
    "fourier.dft": (("specdbl.refine.dft", "specdbl.cli.dft", "specdbl.diagnostics.dft"), None),
    "fourier.spectrum": (("specdbl.refine.spectrum", "specdbl.cli.spectrum",
                          "specdbl.diagnostics.spectrum"), None),
    "coherence.build_matrix": (("specdbl.refine.build_matrix",), _matrix),
    "regularity.spectral_certificate": (("specdbl.regularity.spectral_certificate",),
                                        _certificate),
    "regularity.decide_regularity": (("specdbl.refine.decide_regularity",), _verdict),
    "regularity.brute_force_max": (("specdbl.regularity.brute_force_max",), None),
    "regularity.extract_minor": (("specdbl.refine.extract_minor",), None),
    "refine.loop": (("specdbl.cli.refine_theorem1", "specdbl.cli.refine_theorem2"), _refine),
    "refine.audit_trace": (("specdbl.cli.audit_trace", "specdbl.fileio.audit_trace"), None),
    "refine.final_bound_report": (("specdbl.cli.final_bound_report",), None),
    "diagnostics.statistical_doubling": (("specdbl.cli.statistical_doubling",), _doubling),
    "diagnostics.high_threshold_closure": (("specdbl.cli.high_threshold_closure",), None),
    "fileio.write_set_file": (("specdbl.cli.write_set_file",), None),
    "fileio.read_set_file": (("specdbl.cli.read_set_file",), None),
    "fileio.write_trace_file": (("specdbl.cli.write_trace_file",), _file_bytes),
    "fileio.read_trace_file": (("specdbl.cli.read_trace_file",), _file_bytes),
}
ROOT = "cli"  # the whole op: specdbl.cli.main with stdout captured


class Tracer:
    """Records spans of the ops run between ``begin`` and ``end``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, counts]
        self._stack = []
        self._op = None
        self._patches = []  # (module, attribute, original, wrapper)
        self.missing = []  # module attributes that do not exist
        for name, (paths, hook) in TARGETS.items():
            for path in paths:
                module_name, attr = path.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(path)
                    continue
                self._patches.append((module, attr, original, self._wrap(name, original, hook)))

    def absent_spans(self) -> set:
        """Span names none of whose module attributes exist."""
        found = {w.span_name for _, _, _, w in self._patches}
        return set(TARGETS) - found

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                record[5] = hook(args, kwargs, result)
            return result

        wrapper.span_name = name
        return wrapper

    def _open(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def begin(self, op_id: int):
        """Install the wrappers and open the root span of one op."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._op = op_id
        return self._open(ROOT)

    def end(self, root):
        self._close(root)
        self._op = None
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self):
        """Per span: duration minus the time covered by its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the recorded spans, per traced op."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    largest_cells = 0
    for (name, _, _, _, _, c), own in zip(tracer.spans, tracer.self_times()):
        self_s[name] += own
        calls[name] += 1
        for key, value in (c or {}).items():
            counts[name, key] += value
        if name == "coherence.build_matrix" and c:
            largest_cells = max(largest_cells, c["cells"])
    cert_calls = calls["regularity.spectral_certificate"]
    per = 1.0 / max(1, n_ops)

    def t(*names):
        return ("s", sum(self_s[n] for n in names) * per, names)

    def n(name, key=None):
        value = calls[name] if key is None else counts[name, key]
        return ("count", value * per, (name,))

    table = {
        "groups.sumset_s": t("groups.sumset", "groups.difference_set"),
        "groups.sumset_calls": n("groups.sumset"),
        "groups.sumset_pairs": n("groups.sumset", "pairs"),
        "fourier.dft_s": t("fourier.dft"),
        "fourier.dft_calls": n("fourier.dft"),
        "fourier.spectrum_s": t("fourier.spectrum"),
        "fourier.spectrum_calls": n("fourier.spectrum"),
        "coherence.build_matrix_s": t("coherence.build_matrix"),
        "coherence.matrix_cells": n("coherence.build_matrix", "cells"),
        "coherence.matrix_mb": ("MB", largest_cells * 16 / 1e6, ("coherence.build_matrix",)),
        "regularity.certificate_s": t("regularity.spectral_certificate"),
        "regularity.certificate_calls": n("regularity.spectral_certificate"),
        "regularity.certified_ratio": (
            "ratio",
            counts["regularity.spectral_certificate", "certified"] / cert_calls if cert_calls else 0.0,
            ("regularity.spectral_certificate",),
        ),
        "regularity.witness_s": t("regularity.decide_regularity"),
        "regularity.brute_force_s": t("regularity.brute_force_max"),
        "regularity.brute_force_calls": n("regularity.brute_force_max"),
        "regularity.extract_minor_s": t("regularity.extract_minor"),
        "regularity.irregular_verdicts": n("regularity.decide_regularity", "irregular"),
        "regularity.undetermined_verdicts": n("regularity.decide_regularity", "undetermined"),
        "refine.loop_s": t("refine.loop"),
        "refine.steps": n("refine.loop", "steps"),
        "refine.minor_steps": n("refine.loop", "minor"),
        "refine.growth_steps": n("refine.loop", "growth"),
        "refine.audit_s": t("refine.audit_trace"),
        "refine.bound_report_s": t("refine.final_bound_report"),
        "diagnostics.statistical_doubling_s": t("diagnostics.statistical_doubling"),
        "diagnostics.exact_pairs": n("diagnostics.statistical_doubling", "exact_pairs"),
        "diagnostics.closure_s": t("diagnostics.high_threshold_closure"),
        "fileio.write_set_s": t("fileio.write_set_file"),
        "fileio.write_trace_s": t("fileio.write_trace_file"),
        "fileio.read_set_s": t("fileio.read_set_file"),
        "fileio.read_trace_s": t("fileio.read_trace_file"),
        "fileio.trace_bytes": (
            "B",
            (counts["fileio.write_trace_file", "bytes"] + counts["fileio.read_trace_file", "bytes"]) * per,
            ("fileio.write_trace_file", "fileio.read_trace_file"),
        ),
        "cli.self_s": t(ROOT),
    }
    absent = tracer.absent_spans()
    return {
        name: {"value": value, "unit": unit, "absent": all(s in absent for s in spans)}
        for name, (unit, value, spans) in table.items()
    }
