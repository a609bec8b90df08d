"""Input generation for the specdbl benchmark workloads.

Run as a child process by ``bench/run.py``, once per set-up repetition:

    python3 bench/workloads.py --workload certify --seed 1 --rep 0 --out DIR

It imports specdbl, writes the generated set and trace files into DIR and
a ``manifest.json`` that lists the operations to time, grouped into rounds.
An operation is one ``specdbl`` command line plus what its output check
needs.  The placeholder ``{out}`` in an argument stands for a fresh output
path per execution.  Everything is derived from (seed, rep), so the same
seed gives byte-identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from specdbl.cli import main as specdbl_main
from specdbl.diagnostics import example_counterexample
from specdbl.fileio import write_set_file
from specdbl.groups import ElementSet, FiniteAbelianGroup, random_subset, subgroup_span

# certify: the two-axis family in Z_2^(2n); every op goes minor then finish.
CERTIFY_N = 9
CERTIFY_EPS = 0.4
CERTIFY_DELTA = 0.3
CERTIFY_ROUNDS = 6  # inputs per set-up repetition, one op per round

# shrink: random sets that the loop cuts down to one element, whose final
# spectrum is then the whole group.  One group per shape family, each of
# about 2^11 elements, so every op does the same quadratic sumset work.
SHRINK_GROUPS = (
    ((32, 32, 2), 300),  # power of two
    ((13, 13, 13), 350),  # odd prime power
    ((3, 5, 11, 13), 350),  # mixed radix
)
SHRINK_EPS = 0.1
SHRINK_DELTA = 0.3
SHRINK_ROUNDS = 4

# recheck: read-side commands on stored traces and set files in Z_2^16.
RECHECK_RANDOM = ((2,) * 16, 2000, 0.05)  # spectrum of about 1.6k characters
RECHECK_SUBGROUP = ((2,) * 16, 8, 8, 0.9)  # subgroup rank, noise points, closure eps


def _refine_argv(path: Path, eps: float, delta: float, theorem: int, seed: int) -> list:
    return [
        "refine", "--input", str(path), "--epsilon", repr(eps), "--delta", repr(delta),
        "--theorem", str(theorem), "--seed", str(seed), "--out", "{out}",
    ]


def _certify_inputs(out: Path, rng: np.random.Generator, count: int) -> list:
    """Seeded coordinate permutations and translates of the two-axis set."""
    base = example_counterexample(CERTIFY_N).members
    group = base.group
    coords = group.decode_indices(base.indices())
    paths = []
    for i in range(count):
        perm = rng.permutation(group.rank)
        shift = rng.integers(0, 2, size=group.rank)
        moved = ElementSet.from_indices(group, group.encode_coords(coords[:, perm] + shift))
        path = out / f"certify_{i}.json"
        write_set_file(path, moved, {"kind": "example1-moved", "n": CERTIFY_N})
        paths.append(path)
    return paths


def _certify_op(path: Path, op_seed: int) -> dict:
    return {
        "argv": _refine_argv(path, CERTIFY_EPS, CERTIFY_DELTA, 1, op_seed),
        "check": {"kind": "refine", "input": str(path), "theorem": 1,
                  "epsilon": CERTIFY_EPS, "closed_form_n": CERTIFY_N},
    }


def _shrink_input(out: Path, name: str, orders, size: int, rng) -> Path:
    group = FiniteAbelianGroup(orders)
    members = random_subset(group, size, seed=int(rng.integers(2**31)))
    path = out / f"{name}.json"
    write_set_file(path, members, {"kind": "random", "size": size})
    return path


def _shrink_op(path: Path, theorem: int, op_seed: int) -> dict:
    return {
        "argv": _refine_argv(path, SHRINK_EPS, SHRINK_DELTA, theorem, op_seed),
        "check": {"kind": "refine", "input": str(path), "theorem": theorem,
                  "epsilon": SHRINK_EPS},
    }


def _run_refine(op: dict, trace: Path) -> None:
    argv = [str(trace) if a == "{out}" else a for a in op["argv"]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = specdbl_main(argv)
    if code != 0:
        raise SystemExit(f"set-up refine {argv} exited with {code}")


def _subgroup_plus_noise(rng: np.random.Generator) -> ElementSet:
    orders, rank, noise, _ = RECHECK_SUBGROUP
    group = FiniteAbelianGroup(orders)
    while True:
        gens = rng.integers(0, 2, size=(rank, group.rank))
        sub = subgroup_span(group, [tuple(int(x) for x in g) for g in gens])
        if sub.size == 2**rank:
            break
    outside = np.flatnonzero(~sub.mask)
    extra = rng.choice(outside, size=noise, replace=False)
    mask = sub.mask.copy()
    mask[extra] = True
    return ElementSet(group, mask)


def build(workload: str, seed: int, rep: int, out: Path) -> list:
    """Write the inputs of one set-up repetition; return its rounds of ops."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, rep])
    op_seed = seed * 1000 + rep * 100
    rounds = []
    if workload == "certify":
        for i, path in enumerate(_certify_inputs(out, rng, CERTIFY_ROUNDS)):
            rounds.append([_certify_op(path, op_seed + i)])
    elif workload == "shrink":
        for r in range(SHRINK_ROUNDS):
            ops = []
            for g, (orders, size) in enumerate(SHRINK_GROUPS):
                for theorem in (1, 2):
                    path = _shrink_input(out, f"shrink_{r}_{g}_{theorem}", orders, size, rng)
                    ops.append(_shrink_op(path, theorem, op_seed + len(ops)))
            rounds.append(ops)
    elif workload == "recheck":
        # traces come from the certify and shrink generators, refined here
        stored = []
        sources = [_certify_op(_certify_inputs(out, rng, 1)[0], op_seed)]
        for g, theorem in ((0, 2), (2, 1)):
            orders, size = SHRINK_GROUPS[g]
            path = _shrink_input(out, f"shrink_{g}_{theorem}", orders, size, rng)
            sources.append(_shrink_op(path, theorem, op_seed + 1 + g))
        for i, op in enumerate(sources):
            trace = out / f"trace_{i}.json"
            _run_refine(op, trace)
            stored.append(str(trace))

        orders, size, eps = RECHECK_RANDOM
        rand = _shrink_input(out, "random", orders, size, rng)
        sub = out / "subgroup.json"
        write_set_file(sub, _subgroup_plus_noise(rng), {"kind": "subgroup+noise"})
        closure_eps = RECHECK_SUBGROUP[3]

        def report(trace: str, fmt: str) -> dict:
            return {"argv": ["report", "--trace", trace, "--format", fmt],
                    "check": {"kind": "report", "trace": trace, "format": fmt}}

        def spectrum(path: Path, level: float) -> dict:
            spec_out = str(path.with_suffix(".spec.json"))
            return {"argv": ["spectrum", "--input", str(path), "--epsilon", repr(level),
                             "--format", "json", "--out", spec_out],
                    "check": {"kind": "spectrum", "input": str(path), "epsilon": level,
                              "out": spec_out}}

        rounds.append([
            report(stored[0], "text"),
            report(stored[0], "json"),
            report(stored[1], "json"),
            report(stored[2], "text"),
            report(stored[2], "json"),
            {"argv": ["verify", "--input", str(rand), "--statistical-doubling", repr(eps),
                      "--parseval", repr(eps)],
             "check": {"kind": "verify", "input": str(rand), "doubling": eps,
                       "parseval": eps, "closure": None}},
            {"argv": ["verify", "--input", str(sub), "--closure", repr(closure_eps),
                      "--statistical-doubling", "0.4"],
             "check": {"kind": "verify", "input": str(sub), "doubling": 0.4,
                       "parseval": None, "closure": closure_eps}},
            spectrum(rand, eps),
            spectrum(sub, closure_eps),
        ])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    rounds = build(args.workload, args.seed, args.rep, args.out)
    (args.out / "manifest.json").write_text(json.dumps({"rounds": rounds}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
