"""Fourier coefficients of indicator functions and large-spectrum extraction.

For a subset A of a finite abelian group G the table holds, for every
character gamma (indexed like a group element under the self-duality),

    coeffs[gamma] = sum over a in A of gamma(a),

so coeffs[0] = |A| and sum |coeffs|^2 = |A| * |G| (Parseval).  The spectrum at
level eps collects the characters whose coefficient magnitude is at least
eps * |A|, up to an absolute slack of 1e-9 * |A| so exact boundary ties land
inside the set, and it is closed under negation by construction: rounding
may part |coeffs[gamma]| from |coeffs[-gamma]|, so the mask takes both.

``dft`` transforms the order-2 axes of the group's array shape with an exact
Walsh-Hadamard transform and every axis of order above 2 with numpy's FFT
(the transform lives in ``groups``, next to the group's array shape).  On a
pure 2-group (every factor of order 1 or 2) every coefficient of a set is an
integer of magnitude at most |A|, computed exactly in float32 while
|G| <= 2^24, and the table is float64; every other group gives complex128,
and one with no factor of order 2 takes one numpy FFT call.  Nothing
downstream forks on the dtype.  A spectrum's mask is made fresh and becomes
its ``ElementSet`` without a copy; on a real table it is taken from the
signed coefficients, with no array of magnitudes.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import ElementSet, FiniteAbelianGroup, _transform

__all__ = [
    "FourierTable",
    "dft",
    "spectrum",
    "parseval_capacity",
]

REL_TOL = 1e-9


class FourierTable:
    """All Fourier coefficients of one indicator function.

    The coefficients are float64 when real (the exact integer tables of a
    pure 2-group) and complex128 otherwise.  Construction checks the
    coefficient at 0 against the set size, Parseval's energy |A| |G|, and
    conjugate symmetry coeffs[-gamma] = conj(coeffs[gamma]), with -gamma
    taken by ``FiniteAbelianGroup.negate``; a real table on a pure 2-group,
    where every character is its own negative, has that symmetry by dtype.
    """

    __slots__ = ("group", "coeffs", "set_size")

    def __init__(self, group: FiniteAbelianGroup, coeffs: np.ndarray, set_size: int):
        coeffs = np.asarray(coeffs)
        coeffs = coeffs.astype(np.float64 if np.isrealobj(coeffs) else np.complex128, copy=False)
        if coeffs.shape != (group.size,):
            raise ValueError(f"expected {group.size} coefficients, got {coeffs.shape}")
        scale = max(1.0, float(set_size))
        if not abs(coeffs[0] - set_size) <= REL_TOL * scale:  # NaN too
            raise AssertionError(
                f"coefficient at 0 is {coeffs[0]}, expected the set size {set_size}"
            )
        energy = float(np.vdot(coeffs, coeffs).real)
        expected = float(set_size) * group.size
        if not abs(energy - expected) <= REL_TOL * max(1.0, expected):
            raise AssertionError(
                f"Parseval mismatch: coefficient energy {energy}, expected {expected}"
            )
        if np.iscomplexobj(coeffs) or group._fft_axes:
            sym_err = float(np.max(np.abs(group.negate(coeffs) - np.conj(coeffs))))
            if not sym_err <= REL_TOL * scale:
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
    per cyclic factor.  The order-2 axes go first, through the Walsh-Hadamard
    transform in real arithmetic: on 0/1 input every partial sum is an integer
    of magnitude at most |A| <= |G|, so that step is exact, in float32 while
    |G| <= 2^24 and in float64 past it.  Its result is cast to float64, and
    the axes of order above 2 go through ``np.fft.fftn``; with no order-2 axis
    that is the one call over the whole array.  A pure 2-group has no such
    axis, and its table is that float64 transform as it stands.  The sign
    convention here is the conjugate of the usual forward FFT, which
    coincides for real input; the conjugate is taken in place.
    """
    group = a.group
    coeffs = _transform(group, a.mask).ravel()
    if np.iscomplexobj(coeffs):
        np.conjugate(coeffs, out=coeffs)
    return FourierTable(group, coeffs, a.size)


def spectrum(table: FourierTable, eps: float) -> ElementSet:
    """Spectrum of A at level eps: the characters with |coeff| >= eps * |A|,
    as a set of group elements under the self-duality, closed under negation.

    1_A is real, so |coeff[gamma]| = |coeff[-gamma]|, but an FFT's rounding
    can put the two on either side of the cut; on a group with an axis of
    order above 2 the mask is ORed with its negation, which changes no mask
    that is closed already.  The trivial character is always in: the table's
    own check gives coeff[0] >= |A| (1 - 1e-9), and eps <= 1 puts the cut at
    or below that.

    On a real table the signed coefficients are compared with the cut:
    negation is exact, so |c| >= cut exactly when c >= cut or c <= -cut, for
    every cut, at -0.0 too, and neither holds for NaN.  So no |G| array of
    magnitudes is made, and the fresh mask becomes the set as it is."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"spectrum level must lie in (0, 1], got {eps}")
    cut = eps * table.set_size - REL_TOL * table.set_size
    coeffs = table.coeffs
    if np.iscomplexobj(coeffs):
        mask = np.abs(coeffs) >= cut
    else:
        mask = coeffs >= cut
        mask |= coeffs <= -cut
    if table.group._fft_axes:  # on a pure 2-group every character is its own negative
        mask |= table.group.negate(mask)
    members = ElementSet._adopt(table.group, mask)
    cap = parseval_capacity(table.group.size, table.set_size, eps)
    if members.size > cap + REL_TOL * cap:
        raise AssertionError(f"spectrum size {members.size} exceeds Parseval capacity {cap}")
    return members


def parseval_capacity(group_size: int, set_size: int, epsilon: float) -> float:
    """Upper bound |G| / (eps^2 |A|) on the size of the eps-spectrum; inf
    when eps^2 |A| is 0 (an empty set, or eps^2 underflowing)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    denominator = epsilon * epsilon * set_size
    return group_size / denominator if denominator > 0 else math.inf
