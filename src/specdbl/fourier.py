"""Fourier coefficients of indicator functions and large-spectrum extraction.

For a subset A of a finite abelian group G the table holds, for every
character gamma (indexed like a group element under the self-duality),

    coeffs[gamma] = sum over a in A of gamma(a),

so coeffs[0] = |A| and sum |coeffs|^2 = |A| * |G| (Parseval).  The spectrum at
level eps collects the characters whose coefficient magnitude is at least
eps * |A|, up to an absolute slack of 1e-9 * |A| so exact boundary ties land
inside the set.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import ElementSet, FiniteAbelianGroup

__all__ = [
    "FourierTable",
    "SpectrumSet",
    "dft",
    "dft_naive",
    "inverse_dft",
    "spectrum",
    "parseval_capacity",
]

REL_TOL = 1e-9


class FourierTable:
    """All Fourier coefficients of one indicator function."""

    __slots__ = ("group", "coeffs", "set_size")

    def __init__(self, group: FiniteAbelianGroup, coeffs: np.ndarray, set_size: int):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (group.size,):
            raise ValueError(f"expected {group.size} coefficients, got {coeffs.shape}")
        scale = max(1.0, float(set_size))
        if abs(coeffs[0] - set_size) > REL_TOL * scale:
            raise AssertionError(
                f"coefficient at 0 is {coeffs[0]}, expected the set size {set_size}"
            )
        energy = float(np.sum(np.abs(coeffs) ** 2))
        expected = float(set_size) * group.size
        if abs(energy - expected) > REL_TOL * max(1.0, expected):
            raise AssertionError(
                f"Parseval mismatch: coefficient energy {energy}, expected {expected}"
            )
        sym_err = float(np.max(np.abs(coeffs[group.negation_perm()] - np.conj(coeffs))))
        if sym_err > REL_TOL * scale:
            raise AssertionError(f"conjugate symmetry violated by {sym_err}")
        coeffs.setflags(write=False)
        self.group = group
        self.coeffs = coeffs
        self.set_size = int(set_size)

    def __repr__(self) -> str:
        return f"FourierTable(|A|={self.set_size}, |G|={self.group.size})"


def dft(a: ElementSet) -> FourierTable:
    """Fourier table of 1_A via per-axis fast transforms.

    The flat index vector is reshaped to the group's array ``shape``, one axis
    per cyclic factor; the sign convention here is the conjugate of the usual
    forward FFT, which coincides for real input.
    """
    group = a.group
    values = a.mask.astype(np.float64).reshape(group.shape)
    transformed = np.fft.fftn(values)
    coeffs = np.conj(transformed).ravel()
    return FourierTable(group, coeffs, a.size)


def dft_naive(a: ElementSet) -> FourierTable:
    """Fourier table by direct character summation (reference path).

    O(|A| * |G|) with exact root-of-unity phases; independent of the fast
    transform above.
    """
    group = a.group
    members = a.indices()
    coeffs = np.zeros(group.size, dtype=np.complex128)
    gammas = np.arange(group.size, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, members.size))
    from .groups import char_matrix

    for start in range(0, group.size, chunk):
        block = gammas[start : start + chunk]
        coeffs[block] = char_matrix(group, members, block).sum(axis=0)
    return FourierTable(group, coeffs, a.size)


def inverse_dft(table: FourierTable) -> np.ndarray:
    """Recover the indicator vector from a Fourier table (real, near 0/1)."""
    group = table.group
    spectrumside = np.conj(table.coeffs).reshape(group.shape)
    values = np.fft.ifftn(spectrumside).ravel()
    return values.real


class SpectrumSet:
    """Characters whose coefficient is large relative to the set size."""

    __slots__ = ("threshold", "base_size", "members")

    def __init__(self, threshold: float, base_size: int, members: ElementSet):
        group = members.group
        if base_size > 0:
            if not members.contains_index(0):
                raise AssertionError("spectrum must contain the trivial character")
            neg = group.negation_perm()
            if not np.array_equal(members.mask, members.mask[neg]):
                raise AssertionError("spectrum must be closed under negation")
            cap = parseval_capacity(group.size, base_size, threshold)
            if members.size > cap + REL_TOL * cap:
                raise AssertionError(
                    f"spectrum size {members.size} exceeds Parseval capacity {cap}"
                )
        self.threshold = float(threshold)
        self.base_size = int(base_size)
        self.members = members

    def indices(self) -> np.ndarray:
        return self.members.indices()

    def __len__(self) -> int:
        return self.members.size

    def __repr__(self) -> str:
        return f"SpectrumSet(eps={self.threshold}, size={self.members.size})"


def spectrum(table: FourierTable, eps: float) -> SpectrumSet:
    """Spectrum of A at level eps: characters with |coeff| >= eps * |A|."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"spectrum level must lie in (0, 1], got {eps}")
    cut = eps * table.set_size - REL_TOL * table.set_size
    mask = np.abs(table.coeffs) >= cut
    members = ElementSet(table.group, mask)
    return SpectrumSet(eps, table.set_size, members)


def parseval_capacity(group_size: int, set_size: int, epsilon: float) -> float:
    """Upper bound |G| / (eps^2 |A|) on the size of the eps-spectrum."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if set_size <= 0:
        return math.inf
    return group_size / (epsilon * epsilon * set_size)
