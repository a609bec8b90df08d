"""Reference paths the tests check the package against, kept out of the library."""

import math
from typing import Sequence

import numpy as np

from specdbl.fourier import FourierTable
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
