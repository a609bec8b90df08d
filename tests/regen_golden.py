"""Rewrite the golden traces in tests/data from their own stored input and config.

    PYTHONPATH=src python tests/regen_golden.py

Run it after a change that moves stored outputs on purpose, then review the
diff.  Each trace is rerun through the refine command line that the golden
tests in test_cli.py compare against (refine_argv), in a child process with
one BLAS thread, and the fresh trace replaces the stored one.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from specdbl.fileio import write_set_file
from specdbl.groups import ElementSet, FiniteAbelianGroup

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
            "--mode", cfg["mode"], "--max-iterations", str(cfg["max_iterations"]),
            "--seed", str(cfg["seed"]), "--out", str(out)]
    return argv, out


def main():
    env = dict(os.environ, **ONE_BLAS_THREAD)
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as workdir:
            argv, out = refine_argv(name, workdir)
            subprocess.run([sys.executable, "-m", "specdbl.cli", *argv], env=env, check=True)
            (DATA / name).write_bytes(out.read_bytes())
        print(f"rewrote {DATA / name}")


if __name__ == "__main__":
    main()
