"""Reference paths the tests check the package against, kept out of the library."""

import itertools
import json
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from specdbl.fileio import _SET_KINDS, SET_FORMAT, FileFormatError, _check_header, _typed
from specdbl.fourier import REL_TOL, FourierTable
from specdbl.groups import ElementSet, FiniteAbelianGroup, char_matrix


def encode(group: FiniteAbelianGroup, coords: Sequence[int]) -> int:
    """Flat index of a coordinate vector, one coordinate at a time: the
    oracle for ``encode_coords`` (coordinates must be in range)."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != group.rank or not all(0 <= c < n for c, n in zip(coords, group.orders)):
        raise ValueError(f"coordinates {coords} out of range for {group!r}")
    idx = 0
    for c, n in zip(reversed(coords), reversed(group.orders)):
        idx = idx * n + c
    return idx


def decode(group: FiniteAbelianGroup, index: int) -> tuple:
    """Coordinate vector of a flat index, one coordinate at a time: the
    oracle for ``decode_indices``."""
    index = int(index)
    if not 0 <= index < group.size:
        raise ValueError(f"index {index} out of range for group of size {group.size}")
    coords = []
    for n in group.orders:
        index, c = divmod(index, n)
        coords.append(c)
    return tuple(coords)


def coords(members: ElementSet) -> list:
    """Member coordinate rows in index order, as tuples of Python ints: the
    rows whose ``json.dumps`` the set and trace writers' text must equal."""
    return list(map(tuple, members.group.decode_indices(members.indices()).tolist()))


def set_from_lists(orders: list, elements: list, path, label: str) -> ElementSet:
    """The set of a row field that ``json.loads`` gave as Python lists: the
    row check of the set and trace readers before rows were parsed in numpy,
    whole-list type passes and then ``ElementSet.from_coords``."""
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders):
        raise FileFormatError(f"{path}: field 'orders' must be a list of positive integers")
    try:
        group = FiniteAbelianGroup(tuple(orders))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    # JSON gives rows as lists and coordinates as ints, and a bool (an int
    # subclass) is not a coordinate
    if not (set(map(type, elements)) <= {list}
            and set(map(len, elements)) <= {len(orders)}
            and set(map(type, itertools.chain.from_iterable(elements))) <= {int}):
        raise FileFormatError(
            f"{path}: field {label!r} must contain coordinate rows of length {len(orders)}"
        )
    try:
        return ElementSet.from_coords(group, elements)
    except ValueError as exc:
        raise FileFormatError(f"{path}: field {label!r}: {exc}") from exc


def read_set_json(path) -> tuple:
    """(set, metadata) of a set file by ``json.loads`` of the whole document
    and ``set_from_lists``: the reference for ``read_set_file``, which parses
    the rows in numpy.  Every error is a ``FileFormatError``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    _check_header(doc, SET_FORMAT, path)
    doc = _typed(dict, _SET_KINDS, {key: doc[key] for key in _SET_KINDS if key in doc}, path)
    return set_from_lists(doc["orders"], doc["elements"], path, "elements"), doc["metadata"]


def subgroup_span_fixpoint(group: FiniteAbelianGroup, generators) -> ElementSet:
    """Smallest subgroup containing the generators, by adding every generator
    to every member until a sweep adds nothing: the oracle for
    ``subgroup_span``, one sweep per multiple of a generator.  Coordinates are
    reduced mod the orders as Python ints, so any integer is a coordinate."""
    gen_coords = []
    for g in generators:
        g = tuple(int(c) for c in g)
        if len(g) != group.rank:
            raise ValueError(f"generator {g} has wrong rank for {group!r}")
        gen_coords.append(np.array([c % n for c, n in zip(g, group.orders)], dtype=np.int64))
    mask = np.zeros(group.size, dtype=bool)
    mask[0] = True
    changed = True
    while changed:
        changed = False
        members = np.flatnonzero(mask)
        member_coords = group.decode_indices(members)
        for g in gen_coords:
            shifted = group.encode_coords(member_coords + g)
            fresh = shifted[~mask[shifted]]
            if fresh.size:
                mask[fresh] = True
                changed = True
    return ElementSet(group, mask)


def char_value(group: FiniteAbelianGroup, gamma: Sequence[int], x: Sequence[int]) -> complex:
    """Value of the character indexed by gamma at the element x.

    gamma(x) = exp(2*pi*i * sum_j gamma_j x_j / n_j), evaluated through a table
    of roots of unity so the modulus is 1 to machine precision.
    """
    g = np.asarray(tuple(gamma), dtype=np.int64) % group._orders_arr
    c = np.asarray(tuple(x), dtype=np.int64) % group._orders_arr
    if g.shape[0] != group.rank or c.shape[0] != group.rank:
        raise ValueError(f"expected {group.rank} coordinates")
    L = group._root_lcm
    phase = int(np.sum(group.char_weights() * g * c) % L)
    return complex(group.root_table()[phase])


def level_parting_a_pair(table) -> Optional[float]:
    """A spectrum level whose cut, eps |A| - 1e-9 |A| as ``spectrum`` takes
    it, has |coeffs[gamma]| below it and |coeffs[-gamma]| at or above it for
    some character gamma, the largest such pair first; None when rounding
    parted no pair below the cut of level 1."""
    size = table.set_size
    mags = np.abs(table.coeffs)
    negated = table.group.negate(mags)
    for i in sorted(np.flatnonzero(mags < negated), key=lambda i: -negated[i]):
        lo, hi = mags[i], negated[i]
        eps = float(hi / size + REL_TOL)
        for _ in range(16):  # a step of eps moves the cut by a few ulps
            cut = eps * size - REL_TOL * size
            if lo < cut <= hi and eps <= 1.0:
                return eps
            eps = math.nextafter(eps, 0.0 if cut > hi else 1.0)
    return None


def pair_counts(group: FiniteAbelianGroup, s: ElementSet, t: ElementSet) -> np.ndarray:
    """#{(a, b) in S x T : a + b = x} for every flat index x, one pair at a
    time with coordinatewise addition: the oracle for ``convolve_counts``."""
    counts = np.zeros(group.size, dtype=np.int64)
    for a in s.indices():
        ca = decode(group, a)
        for b in t.indices():
            cb = decode(group, b)
            counts[encode(group, tuple((x + y) % n for x, y, n in zip(ca, cb, group.orders)))] += 1
    return counts


def pairs_summing_into(group: FiniteAbelianGroup, s: ElementSet, t: ElementSet,
                       u: ElementSet) -> int:
    """#{(a, b) in S x T : a + b in U}, one pair at a time with coordinatewise
    addition, U held as coordinate tuples: the oracle for
    ``groups._pair_count``."""
    targets = {decode(group, x) for x in u.indices()}
    left = [decode(group, a) for a in s.indices()]
    right = [decode(group, b) for b in t.indices()]
    return sum(tuple((x + y) % n for x, y, n in zip(ca, cb, group.orders)) in targets
               for ca in left for cb in right)


def dft_naive(a: ElementSet) -> FourierTable:
    """Fourier table by direct character summation, the oracle for ``dft``.

    O(|A| * |G|) with exact root-of-unity phases; independent of the fast
    transform.  The table takes the dtype of ``root_table``: float64, and
    exact, on a pure 2-group.
    """
    group = a.group
    members = a.indices()
    coeffs = np.zeros(group.size, dtype=group.root_table().dtype)
    gammas = np.arange(group.size, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, members.size))
    for start in range(0, group.size, chunk):
        block = gammas[start : start + chunk]
        coeffs[block] = char_matrix(group, members, block).sum(axis=0)
    return FourierTable(group, coeffs, a.size)


def step_values(n: int, positions, starts, keys, r: int) -> np.ndarray:
    """The step function of ``regularity._step_pieces``' runs on range(n):
    (j/r) e^{2 pi i k/r} on the run of key j r + k, 0 off the runs.  Checks
    that the runs are nonempty and disjoint, their keys increasing and their
    coefficients in the unit ball."""
    out = np.zeros(n, dtype=np.complex128)
    covered = np.zeros(n, dtype=bool)
    assert np.all(np.diff(keys) > 0)
    ends = list(starts[1:]) + [positions.size]
    for start, end, key in zip(starts, ends, keys):
        j, k = divmod(int(key), r)
        run = positions[start:end]
        assert run.size and not covered[run].any() and 1 <= j < r and 0 <= k < r
        covered[run] = True
        out[run] = (j / r) * np.exp(2j * np.pi * k / r)
    return out


def frobenius_bound(entries: np.ndarray) -> float:
    """The certificate that the l1 bound replaced, without its rounding terms:
    the larger Frobenius norm of the column- and of the row-centred matrix,
    over sqrt(rows cols)."""
    entries = np.asarray(entries)
    return max(float(np.linalg.norm(entries - entries.mean(axis=axis, keepdims=True)))
               for axis in (0, 1)) / np.sqrt(entries.size)


def modulus_range(entries: np.ndarray) -> tuple:
    """max|entries| and min|entries| from one full-size ``np.abs``: the oracle
    for ``CoherenceMatrix``'s blocked modulus check."""
    mags = np.abs(np.asarray(entries))
    return float(mags.max()), float(mags.min())


def spectral_certificate_one_shot(entries: np.ndarray) -> float:
    """The bound of ``regularity.spectral_certificate``, each side's sums and
    means taken from the entries afresh: the reference for the certificate
    that reads the matrix's kept column sums."""
    e = np.asarray(entries)
    rows, cols = e.shape
    n = rows * cols
    if e.dtype == np.float64:
        deviation = n - min(int(np.abs(e.sum(axis=axis)).sum()) for axis in (0, 1))
        upper = deviation / n
        num, den = upper.as_integer_ratio()
        if num * n < deviation * den:
            upper = math.nextafter(upper, math.inf)
        return upper
    deviation = max(float(np.abs(e - e.mean(axis=axis, keepdims=True)).sum()) for axis in (0, 1))
    return deviation / n * (1.0 + 2.0 * (n + 5) * (np.finfo(np.float64).eps / 2.0))
