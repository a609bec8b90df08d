"""Sup-norm regularity of coherence matrices: certificates, witnesses, minors.

A matrix M on A x Gamma is lambda-regular when |f^T M g| < lambda * |A| *
|Gamma| for every pair of sup-norm-1 test functions with at least one side
summing to zero.  decide_regularity is the one decision, in two tiers:

1. spectral_certificate: the l1 norm of the matrix minus a centre in each
   column, or in each row, over |A| |Gamma|.  The centre is the majority
   sign on a +-1 matrix, which makes the bound an exact integer ratio, and
   the mean on a complex one, with one stated rounding factor.  Regular
   when below lambda.
2. Once that fails, the best pair of an alternating search, each of whose
   restarts stops once an iteration raises its value by at most 1e-4
   relative, once it comes within the tie rule's 1e-9 of that bound, since
   no pair exceeds it, or after WITNESS_BUDGET's 8 iterations (Irregular
   when it reaches lambda).

The witness test allows 1e-12 relative below lambda for the search's
rounding; the search runs only after the certificate has failed, so a value
in that slack never outranks a bound that would certify.  When neither tier
decides, the verdict is Undetermined and carries the sandwich between the
search value and the certificate's bound.  brute_force_max, an exhaustive
grid over roots of unity on tiny matrices, takes no part in the decision;
it is the tests' reference for the search and the bound.  When a witness
exists, extract_minor cuts a minor with a strictly larger mean out of the
matrix along the level pieces of a step function near the witness pair
(_step_pieces, internal to the cut).

The search and the cut are block linear algebra.  The 16 restarts of both
sides (8 per side) run as the rows of one block, two matrix products per
iteration; the pieces are the runs of one sort, and every piece-pair sum
comes from one np.add.reduceat pass per axis.  Two rules keep their choices
off rounding noise, so a block product and one restart at a time, or one
BLAS thread and several, pick the same witness and minor:

- Zero rule: an entry of a product whose modulus is at or below the
  a-priori rounding bound of its inner product, sqrt(2) gamma_2n n max|M|
  for vectors of sup-norm at most 1 (derived in _product_bound), counts as
  0 and gets phase 0.
- Tie rule: of candidates within 1e-9 relative of the best, the first in a
  fixed order wins: rows restarts 0..7 then cols restarts 0..7 for the
  search, row-major order for the piece pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coherence import _TOL, CoherenceMatrix

__all__ = [
    "RegularityVerdict",
    "IrregularityWitness",
    "MinorExtraction",
    "spectral_certificate",
    "decide_regularity",
    "extract_minor",
]

# Alternating search: restarts per constrained side, alternations per restart.
# A witness need only reach lambda, and the block 1-norm estimator the search
# follows (Higham and Tisseur) stops after 5 iterations.
WITNESS_BUDGET = (8, 8)

_ORTH_TOL = 1e-8
# unit roundoff of float64, the u of the rounding bounds
_UNIT = np.finfo(np.float64).eps / 2.0
# witness values and piece-pair sums this close to the best count as tied
_TIE_REL = 1e-9
# a restart whose value climbs by at most this (relative) in an iteration leaves
_CLIMB_REL = 1e-4
# a witness value this close below lambda (relative) reaches it: the search's rounding
_WITNESS_SLACK = 1e-12
# the most spectral_certificate can return (see there)
_BOUND_CEILING = 1.0 + 1e-3
# step-function grid coordinates this close to an edge count as on it
_EDGE_TOL = 1e-9


def _on_grid(x: np.ndarray) -> np.ndarray:
    """x with every entry within 1e-9 of an integer moved onto that integer."""
    near = np.rint(x)
    return np.where(np.abs(x - near) <= _EDGE_TOL, near, x)


def _build_pieces(values: np.ndarray, r: int):
    """Level pieces, the runs of one stable sort of the keys j r + k: band j
    holds the magnitudes (j/r, (j+1)/r], sector k the angles in (2 pi k / r,
    2 pi (k+1) / r] with angle 0 taken as 2 pi, and a value within rounding of
    an edge counts as on it (_on_grid).  Returns the positions sorted by
    (key, position), the start of each run in them and each run's key."""
    j = np.ceil(_on_grid(np.abs(values) * r)).astype(np.int64) - 1
    j = np.minimum(j, r - 1)
    x = _on_grid(np.angle(values) * r / (2 * np.pi))
    x = np.where(x <= 0, x + r, x)
    k = np.clip(np.ceil(x).astype(np.int64) - 1, 0, r - 1)
    positions = np.flatnonzero(j >= 1)  # the zero magnitude band contributes coefficient 0
    keys = j[positions] * r + k[positions]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # every key is at least r
    return positions[order], starts, keys[starts]


def _step_pieces(values: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Level pieces of a step function within sup-error eta of values, and its grid r.

    Magnitude levels j/r and phase sectors 2*pi*k/r with r = ceil(10/eta); for
    fractional 10/eta the ceiling can push the worst-case piece count past
    100/eta^2, in which case the grid is rebuilt with r = floor(10/eta), which
    still meets the sup-error target (error <= (1+2*pi)/r).  The pieces are
    _build_pieces' (positions, starts, keys), and the step function is
    (j/r) e^{2 pi i k/r} on the run of key j r + k.  The count bound
    100/eta^2, on which the paper's argument rests, is asserted.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    r = math.ceil(10.0 / eta)
    positions, starts, keys = _build_pieces(values, r)
    if starts.size > 100.0 / eta**2:
        r = math.floor(10.0 / eta)
        positions, starts, keys = _build_pieces(values, r)
    if starts.size > 100.0 / eta**2 + 1e-9:
        raise AssertionError(f"{starts.size} pieces exceed the bound 100/eta^2 for eta={eta}")
    return positions, starts, keys, r


@dataclass(frozen=True)
class IrregularityWitness:
    """A violating pair: |f^T M g| >= lambda * |A| * |Gamma|, with f on the
    rows and g on the columns read-only complex128 vectors of sup-norm at
    most 1."""

    f: np.ndarray
    g: np.ndarray
    constrained_side: str
    value: float

    def __post_init__(self):
        for name in ("f", "g"):
            vec = np.asarray(getattr(self, name), dtype=np.complex128)
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"{name} must be a nonempty vector")
            sup = float(np.max(np.abs(vec)))
            if not sup <= 1.0 + _TOL:  # NaN too
                raise ValueError(f"sup-norm {sup} of {name} exceeds 1")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if self.constrained_side not in ("rows", "cols"):
            raise ValueError(f"constrained_side must be 'rows' or 'cols', got {self.constrained_side!r}")
        vec = self.f if self.constrained_side == "rows" else self.g
        drift = abs(complex(vec.sum()))
        if drift > _ORTH_TOL * vec.size:
            raise ValueError(
                f"constrained side of a witness must sum to zero, got |sum| = {drift}"
            )
        if self.value < 0:
            raise ValueError("witness value cannot be negative")


def _verdict_fault(status: str, lam: float, upper_bound: float,
                   witness_value: Optional[float]) -> Optional[str]:
    """What a verdict's fields get wrong, or None; the audit of a trace calls it too."""
    if status not in ("regular", "irregular", "undetermined"):
        return f"unknown verdict {status!r}"
    if not 0.0 <= upper_bound <= _BOUND_CEILING:
        return f"the bound {upper_bound} lies outside [0, {_BOUND_CEILING}]"
    regular = status == "regular"
    if regular != (upper_bound < lam):
        return (f"{'certified' if regular else status} although the bound {upper_bound} "
                f"is {'not ' if regular else ''}below lambda {lam}")
    # only an irregular verdict has a witness, at lambda and within the bound
    if (witness_value is not None) != (status == "irregular") or (
            witness_value is not None
            and not lam * (1 - _WITNESS_SLACK) <= witness_value <= upper_bound + 1e-9):
        return (f"witness_value {witness_value} with verdict {status}, "
                f"lambda {lam} and bound {upper_bound}")
    return None


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the regularity decision.

    upper_bound is spectral_certificate's bound, on every verdict.
    lower_bound is the search value on irregular and undetermined verdicts
    and 0 on regular ones.
    """

    status: str  # "regular" | "irregular" | "undetermined"
    lam: float
    upper_bound: float
    witness: Optional[IrregularityWitness]
    lower_bound: float

    def __post_init__(self):
        fault = _verdict_fault(self.status, self.lam, self.upper_bound,
                               None if self.witness is None else self.witness.value)
        if fault is not None:
            raise AssertionError(fault)
        if self.lower_bound > self.upper_bound + 1e-9:
            raise AssertionError(
                f"sandwich violated: lower {self.lower_bound} > upper {self.upper_bound}"
            )


def spectral_certificate(m: CoherenceMatrix, lam: float) -> tuple[float, bool]:
    """Sound bound on sup_{f,g} |f^T M g| / (|A| |Gamma|), and whether it is below lam.

    A sup-norm-1 f that sums to zero has f^T M g = f^T (M - 1 u^T) g for any
    row vector u, so |f^T M g| <= sum_ij |M_ij - u_j| when |g| <= 1 too;
    likewise with a column vector v subtracted when g sums to zero.  Any
    centre is sound.  The bound is the larger of the two sums (column side,
    row side) divided by n = rows cols:

    - +-1 matrix (float64, whose entries CoherenceMatrix checks to be exact
      signs).  The centre is the majority sign of each column, its median
      and so the best centre: a column with sum s_j gives
      sum_i |M_ij - u_j| = rows - |s_j|.  The column side is
      (n - sum_j |s_j|) / n, the row side the same with the row sums.  The
      sums are integers below 2^53, exact in float64 in any order, so the
      one rounding is the division, taken upwards.  The all-ones matrix
      gets exactly 0.  The column sums are the matrix's ``col_sums``.
    - Complex matrix.  The centre is the computed column (row) mean, so
      its rounding does not matter; the column mean is ``col_sums / rows``,
      which is bit for bit ``e.mean(axis=0)``, numpy's axis mean being that
      sum divided by the count.  Each term of the sum is one
      subtraction (each part off by u = 2^-53 relative) and one modulus
      (hypot, within one ulp); the n nonnegative terms sum, in any order,
      to at least 1 - gamma_{n-1} times the exact sum (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., eq. (3.5)).  With the
      division by n, the rounding of the factor below and the product by
      it, the computed side is at least 1 - gamma_{n+5} times the exact
      one, and the factor 1 + 2 (n + 5) u makes that up while
      (n + 5) u <= 1/4.
    - Never above the Frobenius bound it replaced, ||M - column means||_F
      over sqrt(n) and likewise for rows, up to rounding: the mean-centred
      sum is at most sqrt(n) times that norm by Cauchy-Schwarz, and the
      median's sum at most the mean's.
    - Ceiling.  On a +-1 matrix the bound is at most 1.  On a complex one,
      centring a column at its exact mean is an orthogonal projection, and
      the computed mean is within sqrt(2) gamma_rows max|M| of it, so by
      Cauchy-Schwarz the column's sum is at most
      rows max|M| sqrt(1 + 2 gamma_rows^2); likewise for rows.  No matrix
      that fits in memory has over 2^40 entries (8 TiB of float64), so
      n u <= 2^-13, and with max|M| <= 1 + 1e-9 (checked by
      CoherenceMatrix) the computed bound is below
      (1 + 1e-9) (1 + 2^-12) (1 + 2^-11) < 1 + 8e-4, below _BOUND_CEILING.
    """
    e = m.entries
    rows, cols = e.shape
    n = rows * cols
    if e.dtype == np.float64:
        deviation = n - min(int(np.abs(s).sum()) for s in (m.col_sums, e.sum(axis=1)))
        upper = deviation / n
        num, den = upper.as_integer_ratio()
        if num * n < deviation * den:  # rounded down: take the next float up
            upper = math.nextafter(upper, math.inf)
    else:
        c = np.empty_like(e)  # both centrings in turn, in one buffer
        mods = np.empty(e.shape)
        deviation = max(
            float(np.abs(np.subtract(e, centre, out=c), out=mods).sum())
            for centre in (m.col_sums / rows, e.mean(axis=1, keepdims=True))
        )
        upper = deviation / n * (1.0 + 2.0 * (n + 5) * _UNIT)
    return upper, upper < lam


def _product_bound(n: int, entry: float) -> float:
    """A-priori rounding bound of a complex inner product of length n.

    The zero rule.  The real part of sum_j x_j y_j is a sum of the 2n real
    products a_j c_j and -b_j d_j (x_j = a_j + i b_j, y_j = c_j + i d_j),
    however BLAS orders or fuses the operations, so its computed value is
    off by at most gamma_2n sum_j (|a_j c_j| + |b_j d_j|) <= gamma_2n
    sum_j |x_j| |y_j|, with gamma_m = m u / (1 - m u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., eq. (3.5)); likewise the
    imaginary part.  So the modulus error is at most
    sqrt(2) gamma_2n n max|x| max|y|: the real-arithmetic bound
    gamma_n n max|x| max|y|, widened for complex products.  The same bound
    covers a real matrix times a complex vector done as one real product on
    the stacked real and imaginary parts (_real_times): each part is a real
    inner product of length n, off by at most gamma_n n max|x| max|y|.
    Every f and g of the search has sup-norm at most 1, so the bound takes
    max|y| = 1 and max|x| = entry, the largest matrix entry.  A computed
    entry at or below the bound may stand for an exact zero whose computed
    value is rounding noise with a phase set by the summation order (a +-1
    row against a centred vector, say); _phase_of maps such entries to 0 so
    that no choice follows rounding noise.  Taking
    max|y| = 1 rather than the vector's own maximum also zeroes the product
    of a centred vector that cancelled to rounding noise, as the phases of
    the two conjugate rows of a 2-element set's matrix do.
    """
    gamma = 2 * n * _UNIT / (1.0 - 2 * n * _UNIT)
    return math.sqrt(2.0) * gamma * n * entry


def _real_times(block: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """block @ matrix for a complex (k, n) block and a real matrix.

    The block's real and imaginary rows, stacked into one (2k, n) real
    array, take one real product.  block @ matrix would first cast the
    matrix up to complex, a full-size temporary on every call.
    """
    k = block.shape[0]
    parts = np.concatenate((block.real, block.imag)) @ matrix
    out = np.empty((k, parts.shape[1]), dtype=complex)
    out.real, out.imag = parts[:k], parts[k:]  # ten times faster than parts + 1j * parts
    return out


def _phase_of(values: np.ndarray, bound: float, out: np.ndarray) -> np.ndarray:
    """conj(v)/|v| entrywise, and 0 where |v| <= bound (the zero rule); bound > 0.
    Written into ``out``, which may be ``values``: block-sized arrays are the
    search's peak memory, and a fresh one costs page faults."""
    mags = np.abs(values)
    scale = np.divide(mags > bound, np.maximum(mags, bound, out=mags), out=mags)
    np.conjugate(values, out=out)
    out *= scale
    return out


def _project_centered(values: np.ndarray) -> None:
    """Subtract each row's mean, then scale rows back into the unit ball, in place.

    The mean is the sum divided by the count and the row maximum a maximum
    reduction, which is what ndarray.mean and ndarray.max compute, without
    their Python-level dispatch: on the search's few short rows that
    dispatch costs more than the arithmetic."""
    values -= np.add.reduce(values, axis=-1, keepdims=True) / values.shape[-1]
    values *= 1.0 / np.maximum(np.maximum.reduce(np.abs(values), axis=-1, keepdims=True), 1.0)


def _first_near_max(values) -> int:
    """The tie rule: the first index whose value is within 1e-9 relative of the maximum.

    Two candidates that agree to 1e-9 are equally good witnesses, and which
    of them rounds higher depends on the summation order (and so on the BLAS
    kernel and thread count); the fixed order decides instead.
    """
    values = np.asarray(values)
    return int(np.argmax(values >= values.max() * (1.0 - _TIE_REL)))


def _alternating_search(entries: np.ndarray, seed: int, entry: float, stop: float):
    """Best (value, f, g, constrained_side) found by alternating phase ascent.

    The 16 restarts of both sides run as the rows of one block, as in the
    block 1-norm estimator of Higham and Tisseur (SIAM J. Matrix Anal. Appl.
    21 (2000) 1185-1201): an iteration is the two products G M^T and F M for
    both sides at once.  The 8 rows-side restarts come first, and the side
    of a slot comes from its index; each side's centring applies to its own
    rows only, to f on the rows side and to g on the cols side, and is
    skipped once every restart of that side has left the block.  A restart
    leaves the block once an iteration raises its value by at most 1e-4
    relative (_CLIMB_REL), once its value reaches stop, or after the
    WITNESS_BUDGET cap of 8 iterations, so each keeps its own early stop,
    and the loop runs as long as the longest restart of either side.  Restart 0 of each side starts from g = 1, the other 14 from the
    phases of one default_rng(seed) draw.  On a real matrix f and g stay
    complex, since the sup over complex test functions can exceed the sup
    over real ones, and _real_times keeps the matrix real in the products;
    there restart 0 of each side stays real throughout.  The value f^T M g =
    sum_j (f M)_j g_j is read off the vector just formed; on the
    unconstrained side it is sum |f M|.  Entries at or below the rounding
    bound of their product get phase 0 (_product_bound, with entry = max|M|,
    the matrix's max_modulus), and the best candidate is picked by the tie
    rule over the order rows restarts 0..7, cols restarts 0..7
    (_first_near_max).
    With both rules the choices do not depend on how BLAS rounds, which a
    one-restart-at-a-time search reproduces; only the value may move in its
    last bits with the block's height.

    Most iterations run on a few rows, where each numpy call costs more than
    its arithmetic.  So the product is chosen once per call, and the values,
    stop tests and live slots of the at most 16 restarts are Python floats
    and lists; the count of live rows-side slots changes only when a
    restart leaves.
    """
    restarts, max_iter = WITNESS_BUDGET
    nr, nc = entries.shape
    scale = nr * nc
    zero_f, zero_g = _product_bound(nc, entry), _product_bound(nr, entry)
    times = np.matmul if np.iscomplexobj(entries) else _real_times
    entries_t = entries.T
    g = np.ones((2, restarts, nc), dtype=complex)  # restart 0 of each side: g = 1
    g[:, 1:] = np.exp(2j * np.pi * np.random.default_rng(seed).random((2, restarts - 1, nc)))
    g = g.reshape(2 * restarts, nc)
    slots = list(range(2 * restarts))  # rows-side slots come first and stay first
    n_rows = restarts
    found = [None] * (2 * restarts)
    prev = [-1.0] * (2 * restarts)
    for step in range(max_iter):
        f = times(g, entries_t)
        _phase_of(f, zero_f, out=f)
        if n_rows:
            _project_centered(f[:n_rows])
        raw = times(f, entries)
        _phase_of(raw, zero_g, out=g)
        if n_rows < len(slots):
            _project_centered(g[n_rows:])
        value = (np.abs((raw[:, None, :] @ g[:, :, None])[:, 0, 0]) / scale).tolist()
        del raw  # one block less alive at the next product, the search's peak
        last = step + 1 == max_iter
        keep = []
        for k, slot in enumerate(slots):
            if last or value[k] <= prev[k] * (1.0 + _CLIMB_REL) or value[k] >= stop:
                side = "rows" if slot < restarts else "cols"
                found[slot] = (value[k], f[k].copy(), g[k].copy(), side)
            else:
                keep.append(k)
        if not keep:
            break
        if len(keep) < len(slots):
            g = g[keep]
            slots = [slots[k] for k in keep]
            value = [value[k] for k in keep]
            n_rows = sum(slot < restarts for slot in slots)
        prev = value
    return found[_first_near_max([c[0] for c in found])]


def _root_grid(n: int, r: int) -> np.ndarray:
    choices = np.append(np.exp(2j * np.pi * np.arange(r) / r), 0.0)
    return np.array(list(itertools.product(choices, repeat=n)), dtype=complex)


def brute_force_max(
    m: CoherenceMatrix,
    r: int,
    side: str = "rows",
    budget: int = 20_000_000,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exhaustive |f^T M g| / (|A| |Gamma|) over r-th roots of unity plus 0.

    The tests' reference for the search and the certificate on tiny
    matrices; decide_regularity does not call it.

    The constrained side keeps only grid vectors of minimal |sum| (exact zero
    when attainable, which the 0 entry always makes true).
    """
    if side not in ("rows", "cols"):
        raise ValueError(f"side must be 'rows' or 'cols', got {side!r}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    nr, nc = m.entries.shape
    combos = (r + 1) ** (nr + nc)
    if combos > budget:
        raise ValueError(
            f"grid of {(r + 1)}^{nr + nc} = {combos} pairs exceeds the budget {budget}"
        )
    fs = _root_grid(nr, r)
    gs = _root_grid(nc, r)
    constrained = fs if side == "rows" else gs
    sums = np.abs(constrained.sum(axis=1))
    keep = sums <= sums.min() + 1e-9
    if side == "rows":
        fs = fs[keep]
    else:
        gs = gs[keep]
    scale = nr * nc
    best_val = -1.0
    best_pair = (0, 0)
    left = fs @ m.entries  # (nf, nc)
    chunk = max(1, 4_000_000 // max(1, gs.shape[0]))
    for start in range(0, left.shape[0], chunk):
        block = np.abs(left[start : start + chunk] @ gs.T)
        pos = np.unravel_index(np.argmax(block), block.shape)
        if block[pos] > best_val:
            best_val = float(block[pos])
            best_pair = (start + int(pos[0]), int(pos[1]))
    return best_val / scale, fs[best_pair[0]], gs[best_pair[1]]


def decide_regularity(m: CoherenceMatrix, lam: float, seed: int = 0) -> RegularityVerdict:
    """spectral_certificate, then the witness search once it fails: regular
    below lambda, irregular at it, else undetermined between the two.

    A restart of the search stops once its value reaches
    max(lambda, bound (1 - 1e-9)).  No pair exceeds the bound, so that value
    is within the tie rule of the best any restart could reach, and at or
    above lambda: a restart that stops is a witness, and the stop changes no
    verdict."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    upper, certified = spectral_certificate(m, lam)
    if certified:
        return RegularityVerdict("regular", lam, upper, None, 0.0)
    stop = max(lam, upper * (1 - _TIE_REL))
    value, f, g, side = _alternating_search(m.entries, seed, m.max_modulus, stop)
    if value >= lam * (1 - _WITNESS_SLACK):
        witness = IrregularityWitness(f, g, side, value)
        return RegularityVerdict("irregular", lam, upper, witness, value)
    return RegularityVerdict("undetermined", lam, upper, None, value)


@dataclass(frozen=True)
class MinorExtraction:
    """A quadrant of the matrix, given by the positions of its rows and
    columns, and its coherence mean."""

    row_positions: np.ndarray
    col_positions: np.ndarray
    new_mean: float


def _best_piece_pair(entries: np.ndarray, rho_c: complex, rows, row_starts, cols, col_starts):
    """(i, j) of the piece pair whose block sum deviates most from the mean.

    For pieces P, Q with entry sum S over P x Q, the deviation is
    |phase * S - rho |P| |Q||, where rho = |mean| and phase = conj(mean) / rho:
    the sum of the mean-subtracted matrix, rotated onto the mean.  The pieces
    are runs (_build_pieces), so np.add.reduceat over the run starts sums the
    rows and then the columns: two passes and no indicator matrices, which
    would hold (pieces x positions) complex numbers.  The pick is the tie
    rule's, the first pair in row-major order within 1e-9 of the largest.
    """
    by_row = np.add.reduceat(entries[rows], row_starts, axis=0)
    sums = np.add.reduceat(by_row[:, cols], col_starts, axis=1)
    rho = abs(rho_c)
    phase = np.conj(rho_c) / rho if rho > 0 else 1.0
    sizes = np.outer(np.diff(row_starts, append=rows.size), np.diff(col_starts, append=cols.size))
    raw = np.abs(phase * sums - rho * sizes)
    return divmod(_first_near_max(raw.ravel()), col_starts.size)


def _complement(positions: np.ndarray, n: int) -> np.ndarray:
    """The sorted positions of range(n) outside positions."""
    keep = np.ones(n, dtype=bool)
    keep[positions] = False
    return np.flatnonzero(keep)


def extract_minor(
    m: CoherenceMatrix,
    witness: IrregularityWitness,
    lam: float,
    mode: str = "opportunistic",
) -> MinorExtraction:
    """Cut a quadrant with a larger coherence mean out of an irregular matrix.

    The witness pair is cut into the level pieces of a step function
    (_step_pieces, with eta = lambda/8 faithful, measured value / 8
    opportunistic); the piece pair carrying the largest raw sum of
    the mean-subtracted matrix is located (_best_piece_pair), and of its four
    quadrants (piece or complement on each side) the one with the largest
    recomputed coherence mean wins.  Ties prefer the larger min-side, then
    the fixed quadrant order.  The matrix's mean rho comes from its
    ``col_sums``: on a +-1 matrix the same exact integer ratio as
    ``entries.mean()``, on a complex one within rounding of it.
    """
    if mode not in ("faithful", "opportunistic"):
        raise ValueError(f"mode must be 'faithful' or 'opportunistic', got {mode!r}")
    if witness.value < lam * (1 - _WITNESS_SLACK):
        raise ValueError(
            f"witness value {witness.value} is below the regularity level {lam}"
        )
    entries = m.entries
    nr, nc = entries.shape
    if len(witness.f) != nr or len(witness.g) != nc:
        raise ValueError("witness shape does not match the matrix")
    rho_c = complex(m.col_sums.sum() / entries.size)
    rho = abs(rho_c)

    eta = min(1.0, (lam if mode == "faithful" else witness.value) / 8.0)
    rows, row_starts, _, _ = _step_pieces(witness.f, eta)
    cols, col_starts, _, _ = _step_pieces(witness.g, eta)
    if not row_starts.size or not col_starts.size:
        raise ValueError("degenerate witness: step approximation has no pieces")
    i, j = _best_piece_pair(entries, rho_c, rows, row_starts, cols, col_starts)

    rp = np.split(rows, row_starts[i:i + 2])[1]  # run i: from its start to the next one's
    cp = np.split(cols, col_starts[j:j + 2])[1]
    col_sides = [csel for csel in (cp, _complement(cp, nc)) if csel.size]
    candidates = []  # piece/piece at least: the pieces are nonempty
    for rsel in (rp, _complement(rp, nr)):
        if rsel.size:
            # the column means over these rows, for both column sides at once
            col_means = entries[rsel].sum(axis=0) / rsel.size
            for csel in col_sides:
                mu = float(np.mean(np.abs(col_means[csel])))
                candidates.append((mu, min(rsel.size, csel.size), rsel, csel))
    best_mu = max(cand[0] for cand in candidates)
    tied = [cand for cand in candidates if cand[0] >= best_mu - 1e-12]
    best_min_side = max(cand[1] for cand in tied)
    mu, _, rsel, csel = next(cand for cand in tied if cand[1] == best_min_side)

    # the proof's side floor c*lambda^15*n is below 1 (1.1e-51 for lambda <=
    # 1/150 and n <= 2^20), and every quadrant side holds an element; its
    # mean increment (c/2)*lambda^15 <= 2.3e-25 is below half an ulp of any
    # mean >= 1e-8, the refinement's rho floor, so there the proof's test
    # is that the mean rises
    if mode == "faithful" and mu <= rho:
        raise AssertionError(f"faithful minor does not raise the mean {rho} (got {mu})")
    return MinorExtraction(rsel, csel, mu)
