"""How fast the shared host runs right now, from fixed kernels outside specdbl.

The host's neighbours change how much work a CPU second buys: on the VM
where this benchmark was written, the same op took up to 1.8 times its
usual CPU time for minutes at a time.  So ``run.py`` runs one pass of the
workload's kernel after every op, in the same process, and divides the
gated op times by the run's median pass over the kernel's nominal time.  A
kernel does the same kind of work as its workload but runs no specdbl code,
so a change to specdbl moves the op times and not the kernel, while a
change in the host moves both.

Each pass builds its inputs afresh from a fixed seed and times only the
work, so the inputs are the same on every pass and are freed before the
next op; that keeps them out of ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

SEED = 20150406

# Median CPU seconds of one pass over ten 25 s runs per workload on the
# 2-vCPU VM where the benchmark was written (numpy 2.4, OpenBLAS 0.3.31,
# one BLAS thread).  They only set the scale of the gated times.
NOMINAL_S = {"certify": 0.285, "shrink": 0.0742, "recheck": 0.0103}


def _certify(rng: np.random.Generator, work: Path) -> float:
    """A complex singular value decomposition and a 2^18 FFT, like the
    regularity certificate on the coherence matrix and fourier.dft."""
    matrix = rng.standard_normal((672, 672)) + 1j * rng.standard_normal((672, 672))
    signal = rng.standard_normal(2**18)
    start = time.process_time()
    np.linalg.svd(matrix, compute_uv=False)
    np.abs(np.fft.fft(signal))
    return time.process_time() - start


def _shrink(rng: np.random.Generator, work: Path) -> float:
    """A Python loop of small numpy gathers and scatters, like groups.sumset
    over a spectrum of about 2^11 characters."""
    orders = np.array([13, 13, 13])
    strides = np.array([169, 13, 1])
    coords = rng.integers(0, 13, size=(13**3, 3))
    start = time.process_time()
    hit = np.zeros(len(coords), dtype=bool)
    for shift in coords[:800]:
        hit[((coords + shift) % orders) @ strides] = True
    return time.process_time() - start


def _recheck(rng: np.random.Generator, work: Path) -> float:
    """A trace-like JSON file written and read back, its coordinate lists
    turned into a membership mask of Z_2^18, and a 2^16 FFT, like report
    and verify on stored traces and set files."""
    trace = {"orders": [2] * 18,
             "input_elements": rng.integers(0, 2, size=(1023, 18)).tolist(),
             "steps": [{"index": i, "measured": {"size": i * 7, "bound": i / 3}}
                       for i in range(50)]}
    places = 2 ** np.arange(17, -1, -1)
    signal = rng.standard_normal(2**16)
    path = work / "pace.json"
    start = time.process_time()
    path.write_text(json.dumps(trace))
    doc = json.loads(path.read_text())
    mask = np.zeros(2**18, dtype=bool)
    mask[np.array(doc["input_elements"]) @ places] = True
    np.abs(np.fft.fft(signal)) ** 2
    return time.process_time() - start


KERNELS = {"certify": _certify, "shrink": _shrink, "recheck": _recheck}


def sample(workload: str, work: Path) -> float:
    """CPU seconds of one pass of the workload's kernel."""
    return KERNELS[workload](np.random.default_rng(SEED), work)
