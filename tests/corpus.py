"""Run the refinement corpora and compare two summaries of them.

    PYTHONPATH=src python tests/corpus.py --out SUMMARY.json [--corpus NAME ...]
    PYTHONPATH=src python tests/corpus.py --compare OLD.json NEW.json

The first form runs every input of the named corpora (all three by default)
through ``refine`` in this process, with one BLAS thread, audits each
result and writes one summary per run.  The second prints, per corpus, a
before/after table, then names every run whose actions, |A*|, rho*,
``terminated`` or ``certified`` moved, and says whether the trace bytes
moved.  A change that moves outputs on purpose runs the first form at the
parent and at the change, and pastes the second form's output.

The corpora are fixed by seeds:

- ``certify72``: the ``certify`` manifests of ``bench/workloads.py``
  (imported, not edited) for seeds 1, 2, 3 and 11, reps 0-2: example1
  n = 9 in Z_2^18, moved by seeded coordinate permutations and translates.
- ``C1``: 99 inputs, each under both theorems and epsilon 0.1 and 0.4
  (396 runs).  Per group of ``C1_GROUPS``, two random sets at each of 2, 10
  and 30 % density, and one coset of a proper two-generator subgroup with
  0, 10, ..., 50 % of its size in random points added from outside it; and
  example1 with n = 3, 5 and 7.
- ``C2``: a subgroup of order 2^h of Z_2^k plus 1, 2 or 5 random points
  outside it, for (k, h) in ``C2_SHAPES``, each under both theorems and
  epsilon 0.1 and 0.4 (48 runs).

C1 and C2 run with delta 0.3, seed 3 and at most 40 iterations; the
certify72 runs take their manifest's command line.

Beside what a run did, each summary holds the paper's quantities: alpha =
log|A| / log|G|, the shrink factor |A|/|A*|, and the doubling |S+S|/|S| of
the final measured spectrum S next to the gate constant K.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from regen_golden import ONE_BLAS_THREAD
from specdbl.diagnostics import example_counterexample
from specdbl.fileio import read_set_file, write_trace_file
from specdbl.groups import ElementSet, FiniteAbelianGroup, random_subset, subgroup_span
from specdbl.refine import RefineConfig, refine_theorem1, refine_theorem2

SUMMARY_VERSION = 2
CERTIFY_SEEDS = (1, 2, 3, 11)
CERTIFY_REPS = (0, 1, 2)
C1_GROUPS = ((2,) * 10, (2,) * 12, (3,) * 6, (5,) * 4, (4,) * 4, (3, 5, 7), (2, 4, 8, 8),
             (13, 13))
C1_DENSITIES = (0.02, 0.10, 0.30)
C1_NOISE = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
C1_EXAMPLE_N = (3, 5, 7)
C2_SHAPES = ((18, 12), (18, 15), (16, 10), (20, 14))
C2_POINTS = (1, 2, 5)
THEOREMS = (1, 2)
EPSILONS = (0.1, 0.4)
DELTA, SEED, MAX_ITERATIONS = 0.3, 3, 40
CORPORA = ("certify72", "C1", "C2")


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subgroup(group, rng, generators):
    """The span of ``generators`` random elements, redrawn until proper."""
    while True:
        gens = [tuple(int(rng.integers(n)) for n in group.orders) for _ in range(generators)]
        sub = subgroup_span(group, gens)
        if sub.size < group.size:
            return sub


def _add_outside(members, rng, count):
    """members plus ``count`` random elements outside it (all there are, if fewer)."""
    outside = np.flatnonzero(~members.mask)
    mask = members.mask.copy()
    mask[rng.choice(outside, size=min(count, outside.size), replace=False)] = True
    return ElementSet(members.group, mask)


def _label(orders):
    """(2, 4, 8, 8) as 2x4x8^2."""
    runs_ = [(n, len(list(run))) for n, run in itertools.groupby(orders)]
    return "x".join(f"{n}^{k}" if k > 1 else str(n) for n, k in runs_)


def c1_inputs():
    """(name, set) of C1's 99 inputs."""
    for gi, orders in enumerate(C1_GROUPS):
        group = FiniteAbelianGroup(orders)
        rng = np.random.default_rng([1, gi])
        label = _label(orders)
        for density in C1_DENSITIES:
            for k in range(2):
                size = max(1, round(density * group.size))
                yield (f"{label}-random{density:g}-{k}",
                       random_subset(group, size, seed=int(rng.integers(2**31))))
        for noise in C1_NOISE:
            sub = _subgroup(group, rng, 2)
            shift = rng.integers(0, orders)  # mod the orders by encode_coords
            coset = ElementSet.from_indices(
                group, group.encode_coords(group.decode_indices(sub.indices()) + shift))
            yield f"{label}-coset-noise{noise:g}", _add_outside(coset, rng, round(noise * sub.size))
    for n in C1_EXAMPLE_N:
        yield f"example1-n{n}", example_counterexample(n).members


def c2_inputs():
    """(name, set) of C2's 12 inputs."""
    for k, h in C2_SHAPES:
        group = FiniteAbelianGroup((2,) * k)
        for points in C2_POINTS:
            rng = np.random.default_rng([2, k, h, points])
            while True:
                sub = _subgroup(group, rng, h)
                if sub.size == 2**h:
                    break
            yield f"z2^{k}-sub2^{h}-plus{points}", _add_outside(sub, rng, points)


def runs(corpus, workdir):
    """(name, set, theorem, RefineConfig) of every run of one corpus."""
    if corpus == "certify72":
        workloads = _load_workloads()
        for seed in CERTIFY_SEEDS:
            for rep in CERTIFY_REPS:
                out = Path(workdir) / f"certify-{seed}-{rep}"
                for i, (op,) in enumerate(workloads.build("certify", seed, rep, out)):
                    opts = dict(zip(op["argv"][1::2], op["argv"][2::2]))
                    members, _ = read_set_file(opts["--input"])
                    cfg = RefineConfig(epsilon=float(opts["--epsilon"]),
                                       delta=float(opts["--delta"]), seed=int(opts["--seed"]))
                    yield f"certify-s{seed}-r{rep}-{i}", members, int(opts["--theorem"]), cfg
        return
    inputs = {"C1": c1_inputs, "C2": c2_inputs}[corpus]()
    for name, members in inputs:
        for theorem in THEOREMS:
            for eps in EPSILONS:
                cfg = RefineConfig(epsilon=eps, delta=DELTA, seed=SEED,
                                   max_iterations=MAX_ITERATIONS)
                yield f"{name}-t{theorem}-e{eps:g}", members, theorem, cfg


def summarise(corpus, name, members, theorem, cfg, workdir):
    """One run's summary: what it did and what it concluded."""
    result = (refine_theorem1 if theorem == 1 else refine_theorem2)(members, cfg)
    trace = Path(workdir) / "trace.json"
    audit = write_trace_file(trace, result, members)  # the file refine --out writes
    verdicts = Counter(step.verdict_status for step in result.trace)
    return {
        "corpus": corpus, "run": name, "orders": list(members.group.orders),
        "size": members.size, "theorem": theorem, "epsilon": cfg.epsilon,
        "alpha": math.log(members.size) / math.log(members.group.size),
        "a_ratio": members.size / result.a_star.size,
        "doubling": result.measured["doubling"], "K": result.measured["K"],
        "actions": [step.action for step in result.trace], "a_star": result.a_star.size,
        "rho_star": result.rho_star, "terminated": result.terminated,
        "certified": result.certified,
        "verdicts": {v: verdicts[v] for v in ("regular", "irregular", "undetermined")},
        "audit_ok": audit.ok, "trace_sha256": hashlib.sha256(trace.read_bytes()).hexdigest(),
    }


def run_corpora(corpora):
    """The summaries of every run of the named corpora, in a fixed order."""
    summaries = []
    with tempfile.TemporaryDirectory() as workdir:
        for corpus in corpora:
            for name, members, theorem, cfg in runs(corpus, workdir):
                summaries.append(summarise(corpus, name, members, theorem, cfg, workdir))
    return summaries


def write_summary(path, summaries):
    doc = {"version": SUMMARY_VERSION, "runs": summaries}
    Path(path).write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")


def read_summary(path):
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != SUMMARY_VERSION:
        raise ValueError(f"{path}: not a version {SUMMARY_VERSION} corpus summary")
    return doc["runs"]


_MOVED = ("actions", "a_star", "rho_star", "terminated", "certified")


def _totals(runs_):
    steps = Counter(a for r in runs_ for a in r["actions"])
    verdicts = Counter()
    for r in runs_:
        verdicts.update(r["verdicts"])
    return {
        "runs": str(len(runs_)),
        "steps": str(sum(len(r["actions"]) for r in runs_)),
        "minor / growth / finish": " / ".join(str(steps[a]) for a in ("minor", "growth", "finish")),
        "sum of abs(A*)": str(sum(r["a_star"] for r in runs_)),
        "mean rho*": f"{sum(r['rho_star'] for r in runs_) / max(len(runs_), 1):.4f}",
        "mean abs(A)/abs(A*)": f"{sum(r['a_ratio'] for r in runs_) / max(len(runs_), 1):.4f}",
        "mean abs(S+S)/abs(S)": f"{sum(r['doubling'] for r in runs_) / max(len(runs_), 1):.4f}",
        "abs(S+S)/abs(S) <= K": str(sum(r["doubling"] <= r["K"] for r in runs_)),
        "finished": str(sum(r["terminated"] == "finished" for r in runs_)),
        "certified": str(sum(r["certified"] for r in runs_)),
        "regular / irregular / undetermined": " / ".join(
            str(verdicts[v]) for v in ("regular", "irregular", "undetermined")),
        "audit ok": str(sum(r["audit_ok"] for r in runs_)),
    }


def compare(old_runs, new_runs):
    """Lines of the before/after table and of the runs that moved."""
    old = {(r["corpus"], r["run"]): r for r in old_runs}
    new = {(r["corpus"], r["run"]): r for r in new_runs}
    if old.keys() != new.keys():
        raise ValueError("the two summaries hold different runs: "
                         f"{sorted(old.keys() ^ new.keys())[:5]}")
    corpora = list(dict.fromkeys(key[0] for key in new))
    header = ["corpus", *_totals([]), "traces moved", "runs whose outcome moved"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    details = []
    for corpus in corpora:
        keys = [key for key in new if key[0] == corpus]
        before = _totals([old[k] for k in keys])
        after = _totals([new[k] for k in keys])
        cells = [a if a == b else f"{a} -> {b}" for a, b in zip(before.values(), after.values())]
        traces = sum(old[k]["trace_sha256"] != new[k]["trace_sha256"] for k in keys)
        moved = [k for k in keys if any(old[k][f] != new[k][f] for f in _MOVED)]
        lines.append("| " + " | ".join([corpus, *cells, str(traces), str(len(moved))]) + " |")
        for key in moved:
            changes = [f"{f} {_show(old[key][f])} -> {_show(new[key][f])}"
                       for f in _MOVED if old[key][f] != new[key][f]]
            details.append(f"{corpus} {key[1]}: " + "; ".join(changes))
    return lines + ([""] + details if details else [])


def _show(value):
    return ",".join(value) if isinstance(value, list) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="write the summary of every run here")
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    parser.add_argument("--corpus", nargs="+", choices=CORPORA, default=list(CORPORA))
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*(read_summary(p) for p in args.compare))))
        return 0
    if any(os.environ.get(k) != v for k, v in ONE_BLAS_THREAD.items()):
        # BLAS reads its thread count when numpy loads: rerun in a child that has it
        env = dict(os.environ, **ONE_BLAS_THREAD)
        child = [sys.executable, __file__, *(sys.argv[1:] if argv is None else argv)]
        return subprocess.run(child, env=env).returncode
    write_summary(args.out, run_corpora(args.corpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
