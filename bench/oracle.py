"""Output checks for benchmark operations, independent of specdbl.

Everything here works from the JSON files and the captured stdout alone,
with numpy's FFT standing in for specdbl's transforms and sumsets:

  * a set of coordinate vectors in Z_{n_1} x ... x Z_{n_r} becomes a 0/1
    array of shape (n_1, ..., n_r);
  * |coefficient| of a character is |fftn(indicator)| at its coordinates
    (the sign convention does not change magnitudes);
  * S + S is the support of the cyclic convolution 1_S * 1_S, and the
    number of ordered pairs of S summing into T is the sum of that
    convolution over T.  Counts stay below 2^20, far inside float64's exact
    integers, so rounding the inverse FFT recovers them exactly.

The spectrum cut mirrors the documented rule: |coefficient| >= eps * |A|,
with an absolute slack of 1e-9 * |A| for exact ties.
"""

from __future__ import annotations

import json
import re

import numpy as np

SLACK = 1e-9


class CheckFailed(Exception):
    """An operation's output disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def indicator(orders, coords) -> np.ndarray:
    out = np.zeros(tuple(orders), dtype=np.float64)
    if len(coords):
        out[tuple(np.asarray(coords, dtype=np.int64).T)] = 1.0
    return out


def magnitudes(ind: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fftn(ind))


def spec_mask(mags: np.ndarray, size: int, level: float) -> np.ndarray:
    return mags >= level * size - SLACK * size


def self_convolution(mask: np.ndarray) -> np.ndarray:
    f = np.fft.fftn(mask.astype(np.float64))
    return np.rint(np.fft.ifftn(f * f).real)


def sumset_size(mask: np.ndarray) -> int:
    return int(np.count_nonzero(self_convolution(mask) > 0))


def coord_set(coords) -> set:
    return {tuple(int(x) for x in row) for row in coords}


def mask_coords(mask: np.ndarray) -> set:
    return {tuple(int(x) for x in row) for row in np.argwhere(mask)}


_REFINE_LINE = re.compile(
    r"^(finished|budget_exhausted|inconclusive) after (\d+) steps: \|A\*\|=(\d+) "
    r"rho\*=(\S+) certified=(True|False) audit=(ok|FAIL)$"
)


def check_refine(check: dict, stdout: str, trace_path: str) -> None:
    m = _REFINE_LINE.match(stdout.strip())
    require(m is not None, f"unexpected refine output {stdout.strip()!r}")
    require(m.group(1) == "finished", f"run ended {m.group(1)}")
    require(m.group(6) == "ok", "refine reported a failed audit")
    doc = load_json(trace_path)
    require(doc["audit"]["ok"] and doc["terminated"] == "finished", "stored trace not ok")
    orders = doc["orders"]
    a_star = doc["a_star"]
    require(int(m.group(3)) == len(a_star), "printed |A*| differs from the trace")
    src = load_json(check["input"])
    require(coord_set(a_star) <= coord_set(src["elements"]), "A* is not a subset of A")

    n = check.get("closed_form_n")
    measured = doc["measured"]
    if n is not None:
        # two-axis family: A* is one axis of 2^n elements less one point, its
        # spectrum the annihilator of that axis, a subgroup of size 2^n, so
        # S + S = S
        require(len(a_star) == 2**n - 1, f"|A*|={len(a_star)}, expected 2^{n}-1")
        require(measured["spec_size"] == 2**n, f"|Spec|={measured['spec_size']}, expected 2^{n}")
        require(measured["sumset_size"] == 2**n, f"|S+S|={measured['sumset_size']}, expected 2^{n}")
        require(m.group(5) == "True" and doc["certified"], "run not certified")
        return

    # recompute the final spectrum, its sumset and the certified bound
    size = len(a_star)
    mags = magnitudes(indicator(orders, a_star))
    rho = float(doc["rho_star"])
    eps = check["epsilon"]
    level, gate_level = (eps, eps * rho / 2.0) if check["theorem"] == 1 else (rho, rho * rho / 2.0)
    spec = spec_mask(mags, size, level)
    gate = int(np.count_nonzero(spec_mask(mags, size, gate_level)))
    spec_rho = int(np.count_nonzero(spec_mask(mags, size, rho)))
    plus = sumset_size(spec)
    require(measured["spec_size"] == int(np.count_nonzero(spec)),
            f"spectrum size {measured['spec_size']} != oracle {int(np.count_nonzero(spec))}")
    require(measured["sumset_size"] == plus,
            f"|S+S| {measured['sumset_size']} != oracle {plus}")
    require(plus <= 2.0 * gate**2 / (0.8 * spec_rho),
            f"|S+S|={plus} breaks the doubling bound 2*{gate}^2/(0.8*{spec_rho})")


def check_report(check: dict, stdout: str) -> None:
    if check["format"] == "json":
        doc = json.loads(stdout)
        require(doc["audit_matches_stored"], "stored audit differs from the recomputed one")
        require(doc["ok"] and doc["audit"]["ok"], "report says not ok")
        require(doc["bound_report"] is None or doc["bound_report"]["certified_doubling_holds"],
                "doubling bound fails")
    else:
        lines = stdout.splitlines()
        require(any(line.startswith("audit: ok,") for line in lines), "audit not ok")
        require("stored audit differs" not in stdout, "stored audit differs")
        require("VIOLATED" not in stdout, "a bound is violated")


def _set_oracle(path: str, cache: dict):
    if path not in cache:
        doc = load_json(path)
        ind = indicator(doc["orders"], doc["elements"])
        cache[path] = (doc, ind, magnitudes(ind))
    return cache[path]


_DOUBLING = re.compile(r"^statistical-doubling ok \(exact\): p=(\S+) >= (\S+)$", re.M)
_PARSEVAL = re.compile(r"^parseval ok: (\d+) <= (\S+)$", re.M)
_CLOSURE = re.compile(r"^closure ok: spectrum size (\d+) closed into level (\S+) \(size (\d+)\)$", re.M)


def check_verify(check: dict, stdout: str, cache: dict) -> None:
    doc, ind, mags = _set_oracle(check["input"], cache)
    size = len(doc["elements"])
    if check["doubling"] is not None:
        eps = check["doubling"]
        m = _DOUBLING.search(stdout)
        require(m is not None, "no exact statistical-doubling line")
        p, lower = float(m.group(1)), float(m.group(2))
        require(p >= lower, f"p={p} below its lower bound {lower}")
        spec = spec_mask(mags, size, eps)
        small = spec_mask(mags, size, eps * eps / 2.0)
        hits = float(self_convolution(spec)[small].sum())
        want = hits / float(np.count_nonzero(spec)) ** 2
        require(abs(p - want) <= 1e-9, f"p={p} != oracle {want}")
    if check["parseval"] is not None:
        eps = check["parseval"]
        m = _PARSEVAL.search(stdout)
        require(m is not None, "no parseval line")
        count = int(np.count_nonzero(spec_mask(mags, size, eps)))
        require(int(m.group(1)) == count, f"parseval size {m.group(1)} != oracle {count}")
        require(count <= ind.size / (eps * eps * size), "spectrum exceeds |G|/(eps^2 |A|)")
    if check["closure"] is not None:
        eps = check["closure"]
        m = _CLOSURE.search(stdout)
        require(m is not None, "no closure line")
        spec = spec_mask(mags, size, eps)
        target = spec_mask(mags, size, 4.0 * eps - 3.0)
        sums = self_convolution(spec) > 0
        require(not (sums & ~target).any(), "oracle finds the spectrum not closed")
        require(int(m.group(1)) == int(np.count_nonzero(spec)), "closure spectrum size")
        require(int(m.group(3)) == int(np.count_nonzero(target)), "closure target size")


def check_spectrum(check: dict, stdout: str, cache: dict) -> None:
    doc, _, mags = _set_oracle(check["input"], cache)
    size = len(doc["elements"])
    want = mask_coords(spec_mask(mags, size, check["epsilon"]))
    out = json.loads(stdout)
    require(out["set_size"] == size, "spectrum json has the wrong set size")
    require(out["spectrum_size"] == len(want), f"spectrum size {out['spectrum_size']} != {len(want)}")
    require(coord_set(out["members"]) == want, "spectrum members differ from the oracle")
    require(coord_set(load_json(check["out"])["elements"]) == want, "written spectrum differs")


def check_op(check: dict, stdout: str, out_path: str, cache: dict) -> None:
    kind = check["kind"]
    if kind == "refine":
        check_refine(check, stdout, out_path)
    elif kind == "report":
        check_report(check, stdout)
    elif kind == "verify":
        check_verify(check, stdout, cache)
    elif kind == "spectrum":
        check_spectrum(check, stdout, cache)
    else:
        raise CheckFailed(f"no check for operation kind {kind!r}")
