"""Rewrite the golden traces in tests/data from their own stored input and config.

    PYTHONPATH=src python tests/regen_golden.py

Run it after a change that moves stored outputs on purpose, then review the
diff.  Each trace is rerun through the refine command line that the golden
tests in test_cli.py compare against (refine_argv), in a child process with
one BLAS thread, and the fresh trace replaces the stored one.  For each trace
it prints what moved: the step actions, |A*|, rho* and certified, and the
largest relative change of witness_value and of upper_bound over the steps
that both traces have.  A trace stores no actions, so both traces are read
with read_trace_file, which derives them; an old trace of a version it no
longer reads, as after a format version bump, is replayed from its raw JSON.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from specdbl.fileio import FileFormatError, read_trace_file, write_set_file
from specdbl.groups import ElementSet, FiniteAbelianGroup
from specdbl.refine import OBSERVED, RefineConfig, _replay, _resolve_k

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = ("golden_example1_n5_moved_t1.json", "golden_z13_13_13_t2.json", "golden_z3_5_7_t2.json")
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def refine_argv(name, workdir):
    """(argv, trace path) of the specdbl refine call that reruns the golden
    trace ``name`` on its stored input, which it writes into workdir."""
    doc = json.loads((DATA / name).read_bytes())
    inp, out = Path(workdir) / "input.json", Path(workdir) / "trace.json"
    group = FiniteAbelianGroup(doc["orders"])
    write_set_file(inp, ElementSet.from_coords(group, doc["input_elements"]), {})
    cfg = doc["config"]
    argv = ["refine", "--input", str(inp), "--epsilon", repr(cfg["epsilon"]),
            "--delta", repr(cfg["delta"]), "--theorem", str(doc["theorem"]),
            "--max-iterations", str(cfg["max_iterations"]),
            "--seed", str(cfg["seed"]), "--out", str(out)]
    return argv, out


def _largest_rel_change(old_steps, new_steps, key):
    """(change, step) of the largest |new - old| / |old| of a step field over
    the steps both traces have, where both store it; None when none does."""
    pairs = [(getattr(a, key), getattr(b, key)) for a, b in zip(old_steps, new_steps)]
    changes = [(abs(b - a) / abs(a) if a else abs(b), i)
               for i, (a, b) in enumerate(pairs) if a is not None and b is not None]
    return max(changes, default=None)


def _outline(path):
    """(steps, |A*|, rho*, certified) of a trace file, as read_trace_file reads them."""
    result = read_trace_file(path)[0]
    return result.trace, result.a_star.size, result.rho_star, result.certified


def _raw_outline(path):
    """_outline's fields from a trace file's raw JSON, for a version that
    read_trace_file refuses: the steps are replayed over their stored
    observations by the current step rule, with the config fields that
    RefineConfig still has."""
    doc = json.loads(Path(path).read_bytes())
    names = {field.name for field in dataclasses.fields(RefineConfig)}
    cfg = RefineConfig(**{k: v for k, v in doc["config"].items() if k in names})
    theorem = doc["theorem"]
    k_value = _resolve_k(cfg, theorem, math.prod(doc["orders"]))
    observed = [{name: step[name] for name in OBSERVED} for step in doc["steps"]]
    steps = list(_replay(theorem, cfg, k_value, cfg.epsilon, len(doc["input_elements"]), observed))
    return steps, len(doc["a_star"]), doc["rho_star"], doc["certified"]


def moved(old_path, new_path):
    """Lines that say what moved between two trace files.  An old trace of a
    version the reader no longer reads is read from its raw JSON, and a last
    line says so; one line when that fails too."""
    note = []
    try:
        old = _outline(old_path)
    except FileFormatError as refused:
        try:
            old = _raw_outline(old_path)
        except (KeyError, TypeError, ValueError) as exc:  # FileFormatError is a ValueError
            return [f"the old trace does not read ({refused}), nor its raw JSON ({exc!r}); "
                    "compare the bytes"]
        note = [f"the old trace is read from its raw JSON ({refused})"]
    new = _outline(new_path)
    lines = []
    for label, a, b in zip(("actions", "|A*|", "rho*", "certified"),
                           (",".join(s.action for s in old[0]), *old[1:]),
                           (",".join(s.action for s in new[0]), *new[1:])):
        lines.append(f"{label}: {a}" if a == b else f"{label}: {a} -> {b}")
    for key in ("witness_value", "upper_bound"):
        largest = _largest_rel_change(old[0], new[0], key)
        lines.append(f"{key}: " + ("in no common step" if largest is None else
                                   "largest relative change {:.3g} (step {})".format(*largest)))
    return lines + note


def main():
    env = dict(os.environ, **ONE_BLAS_THREAD)
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as workdir:
            argv, out = refine_argv(name, workdir)
            subprocess.run([sys.executable, "-m", "specdbl.cli", *argv], env=env, check=True)
            lines = moved(DATA / name, out)
            (DATA / name).write_bytes(out.read_bytes())
        print(f"rewrote tests/data/{name}")
        for line in lines:
            print(f"  {line}")


if __name__ == "__main__":
    main()
