"""Phase-normalised character matrices of a set against a family of characters.

For a in A and gamma in Gamma with nonzero set-average gamma(A), the entry is

    M[a, gamma] = gamma(a) * conj(gamma(A)) / |gamma(A)|,

a unit-modulus number whose column sums come out real and nonnegative, equal
to |A| * |gamma(A)|.  When Gamma sits inside the eps-spectrum of A the grand
sum is therefore at least eps * |A| * |Gamma|.

On a pure 2-group (every factor of order 1 or 2) every character and every
set-average is real, so each entry is exactly +1 or -1 and the matrix is
float64: ``groups.char_matrix`` writes the character value times the column
sign from the sign bit of one phase sum; every other group gives
complex128.  Nothing downstream forks on the dtype: the regularity code
takes either.

A ``CoherenceMatrix`` holds its entries, their largest modulus, their
column sums and their row sums.  Its check and every later reader take
those from one pass each: the modulus and the row sums are read in row
blocks through one small buffer, and the column sums, which
``build_matrix`` checks and the regularity certificate and minor extraction
read, are summed once.  The refinement loop keeps one step's matrix alive
at a time, so a matrix is the largest array a step holds.
"""

from __future__ import annotations

import numpy as np

from .fourier import FourierTable
from .groups import _BLOCK_CELLS, ElementSet, char_matrix

__all__ = ["CoherenceMatrix", "build_matrix"]

_TOL = 1e-9


class CoherenceMatrix:
    """Dense matrix of unit-modulus entries: float64 when the input is real,
    and then exactly +1 or -1 (the matrices of a pure 2-group), complex128
    otherwise, in C order.  max_modulus is max|entries|, kept from the
    unit-modulus check for the witness search; col_sums is the read-only
    ``entries.sum(axis=0)``, and _row_sums the read-only
    ``entries.sum(axis=1)``, which only the regularity certificate reads.

    The check takes |entries| in row blocks of about ``_BLOCK_CELLS`` cells
    through one reused buffer, so no matrix-size temporary is made; numpy's
    max and min propagate NaN, and so does ``np.maximum``, so a NaN in any
    block fails it.  The same blocks give the row sums: numpy sums each row
    of a C-ordered array on its own, so a row's sum is the same number in a
    block as in the whole matrix."""

    __slots__ = ("entries", "max_modulus", "col_sums", "_row_sums")

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries)
        entries = np.asarray(entries, order="C",
                             dtype=np.float64 if np.isrealobj(entries) else np.complex128)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError(f"entries must be a nonempty 2-d array, got shape {entries.shape}")
        rows, cols = entries.shape
        step = max(1, _BLOCK_CELLS // cols)
        buf = np.empty((min(rows, step), cols))
        row_sums = np.empty(rows, dtype=entries.dtype)
        hi, lo = np.float64(-np.inf), np.float64(np.inf)
        for start in range(0, rows, step):
            block = entries[start:start + step]
            np.add.reduce(block, axis=1, out=row_sums[start:start + step])
            mags = np.abs(block, out=buf[:len(block)])
            hi, lo = np.maximum(hi, mags.max()), np.minimum(lo, mags.min())
        max_modulus = float(hi)
        mod_err = max(max_modulus - 1.0, 1.0 - float(lo))
        # real entries must be exact signs: the regularity certificate sums them as integers
        if not mod_err <= (0.0 if entries.dtype == np.float64 else _TOL):
            raise AssertionError(
                f"entries must have unit modulus, exactly when real, worst error {mod_err}"
            )
        entries.setflags(write=False)
        col_sums = entries.sum(axis=0)
        for sums in (col_sums, row_sums):
            sums.setflags(write=False)
        self.entries = entries
        self.max_modulus = max_modulus
        self.col_sums = col_sums
        self._row_sums = row_sums

    def __repr__(self) -> str:
        rows, cols = self.entries.shape
        return f"CoherenceMatrix({rows}x{cols})"


def build_matrix(a: ElementSet, gamma: ElementSet, table: FourierTable) -> CoherenceMatrix:
    """Coherence matrix of the set A against the character family Gamma.

    Row i stands for ``a.indices()[i]``, column j for ``gamma.indices()[j]``.
    The normaliser of a column is conj(c)/|c|: on a pure 2-group the
    characters are real and so is c, so it is sign(c), exactly +-1, a phase
    offset of 1 wherever c < 0, and ``char_matrix`` folds those offsets into
    its one phase product, writing the exact +-1 entries of the whole float64
    matrix at once.  Elsewhere one in-place product applies conj(c)/|c|.  The
    column sums the check below reads are the matrix's ``col_sums``.
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
    real = np.isrealobj(group.root_table())
    # NaN too, and on a pure 2-group a c whose real part is 0 has no sign
    dead = ~(mags > 1e-12 * max(1, a.size)) | (real & (coeffs.real == 0))
    if dead.any():
        offenders = list(map(tuple, group.decode_indices(cols[dead][:4]).tolist()))
        raise ValueError(
            f"characters with vanishing set-average cannot be normalised: {offenders}"
        )
    if real:
        # sign(c), exactly, also from a complex table of a pure 2-group
        m = CoherenceMatrix(char_matrix(group, rows, cols, coeffs.real < 0))
    else:
        chars = char_matrix(group, rows, cols)
        chars *= np.conj(coeffs) / mags
        m = CoherenceMatrix(chars)
    sums = m.col_sums
    if not float(np.max(np.abs(sums.imag))) <= _TOL * a.size:  # NaN too
        raise AssertionError("column sums must be real")
    if not float(sums.real.min()) >= -_TOL * a.size:
        raise AssertionError("column sums must be nonnegative")
    return m
