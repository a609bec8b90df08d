"""Phase-normalised character matrices of a set against a family of characters.

For a in A and gamma in Gamma with nonzero set-average gamma(A), the entry is

    M[a, gamma] = gamma(a) * conj(gamma(A)) / |gamma(A)|,

a unit-modulus number whose column sums come out real and nonnegative, equal
to |A| * |gamma(A)|.  When Gamma sits inside the eps-spectrum of A the grand
sum is therefore at least eps * |A| * |Gamma|.

On a pure 2-group (every factor of order 1 or 2) every character and every
set-average is real, so each entry is exactly +1 or -1 and the matrix is
float64, its character values written from the sign bit of their phases
(``groups.char_matrix``); every other group gives complex128.  Nothing
downstream forks on the dtype: the regularity code takes either.
"""

from __future__ import annotations

import numpy as np

from .fourier import FourierTable
from .groups import ElementSet, char_matrix

__all__ = ["CoherenceMatrix", "build_matrix"]

_TOL = 1e-9


class CoherenceMatrix:
    """Dense matrix of unit-modulus entries: float64 when the input is real,
    and then exactly +1 or -1 (the matrices of a pure 2-group), complex128
    otherwise.  max_modulus is max|entries|, kept from the unit-modulus check
    for the witness search."""

    __slots__ = ("entries", "max_modulus")

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries)
        entries = entries.astype(np.float64 if np.isrealobj(entries) else np.complex128, copy=False)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError(f"entries must be a nonempty 2-d array, got shape {entries.shape}")
        mags = np.abs(entries)
        max_modulus = float(mags.max())
        mod_err = max(max_modulus - 1.0, 1.0 - float(mags.min()))
        # real entries must be exact signs: the regularity certificate sums them as integers
        if not mod_err <= (0.0 if entries.dtype == np.float64 else _TOL):
            raise AssertionError(
                f"entries must have unit modulus, exactly when real, worst error {mod_err}"
            )
        entries.setflags(write=False)
        self.entries = entries
        self.max_modulus = max_modulus

    def __repr__(self) -> str:
        rows, cols = self.entries.shape
        return f"CoherenceMatrix({rows}x{cols})"


def build_matrix(a: ElementSet, gamma: ElementSet, table: FourierTable) -> CoherenceMatrix:
    """Coherence matrix of the set A against the character family Gamma.

    Row i stands for ``a.indices()[i]``, column j for ``gamma.indices()[j]``.
    The normaliser of a column is conj(c)/|c|: on a pure 2-group the
    characters are real and so is c, so it is sign(c), exactly +-1, and the
    whole matrix is built in float64: ``char_matrix`` writes the exact +-1
    character values, and one in-place product applies the signs.
    """
    group = a.group
    if gamma.group != group or table.group != group:
        raise ValueError("set, characters and table must share one group")
    if a.size == 0 or gamma.size == 0:
        raise ValueError("both the set and the character family must be nonempty")
    rows = a.indices()
    cols = gamma.indices()
    coeffs = table.coeffs[cols]
    mags = np.abs(coeffs)
    dead = mags <= 1e-12 * max(1, a.size)
    if dead.any():
        offenders = list(map(tuple, group.decode_indices(cols[dead][:4]).tolist()))
        raise ValueError(
            f"characters with vanishing set-average cannot be normalised: {offenders}"
        )
    chars = char_matrix(group, rows, cols)
    # sign(c), exactly, also from a complex table of a pure 2-group
    chars *= np.sign(coeffs.real) if np.isrealobj(chars) else np.conj(coeffs) / mags
    m = CoherenceMatrix(chars)
    sums = m.entries.sum(axis=0)
    if float(np.max(np.abs(sums.imag))) > _TOL * a.size:
        raise AssertionError("column sums must be real")
    if float(sums.real.min()) < -_TOL * a.size:
        raise AssertionError("column sums must be nonnegative")
    return m

