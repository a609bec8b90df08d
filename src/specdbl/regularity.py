"""Sup-norm regularity of coherence matrices: certificates, witnesses, minors.

A matrix M on A x Gamma is lambda-regular when |f^T M g| < lambda * |A| *
|Gamma| for every pair of sup-norm-1 test functions with at least one side
summing to zero.  decide_regularity is the one decision, in four tiers,
cheapest first; the first that decides wins:

1. Frobenius certificate: ||C||_F bounds the top singular value of the row-
   and column-centred matrix C, plus stated rounding terms (Regular when
   below lambda).
2. The best pair of an alternating search (Irregular when it reaches
   lambda).
3. Gram certificate: the top eigenvalue of the smaller Gram matrix of each
   centring, from one eigvalsh, plus a stated margin (Regular when below
   lambda).
4. On tiny matrices only, a discretised exhaustive grid (Irregular when a
   grid pair reaches lambda).

A sound bound below lambda and a witness at lambda cannot coexist, so the
order decides which work is done, not the status.  The witness test allows
1e-12 relative below lambda; a search value in that slack counts only once
the Gram certificate has failed, so it never outranks a bound that would
certify.  An Undetermined verdict carries the sandwich between the best
candidate value and the Gram bound.  When a witness exists, a minor
with a strictly larger mean is cut out of the matrix along the level pieces
of the step-function approximation of the witness pair.

The search and the cut are block linear algebra.  The 8 restarts of a side
run as the rows of one block, two matrix products per iteration; the
pieces come from one sort, and every piece-pair sum from one
np.add.reduceat pass per axis.  Two rules keep their choices off rounding
noise, so a block product and one restart at a time, or one BLAS thread and
several, pick the same witness and minor:

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

from .coherence import BoundedFunction, CoherenceMatrix

__all__ = [
    "C1_DEFAULT",
    "C_DEFAULT",
    "StepFunction",
    "RegularityVerdict",
    "IrregularityWitness",
    "MinorExtraction",
    "step_approximate",
    "spectral_certificate",
    "brute_force_max",
    "decide_regularity",
    "extract_minor",
]

# Piece-count constant: with eta = lambda/8 a step approximation has at most
# 100/eta^2 = 6400/lambda^2 pieces, so lambda/(2 k^2) >= C1 * lambda^5.
C1_DEFAULT = 1.0 / (2.0 * 6400.0**2)
# Minor-improvement constant; C1^2 - 2*C/C1 = C1^2/2 > 0 as the quadrant
# argument requires.
C_DEFAULT = C1_DEFAULT**3 / 4.0
# Alternating search: restarts per constrained side, alternations per restart.
WITNESS_BUDGET = (8, 60)

_ORTH_TOL = 1e-8
# unit roundoff of float64, the u of the certificates' margins
_UNIT = np.finfo(np.float64).eps / 2.0
# witness values and piece-pair sums this close to the best count as tied
_TIE_REL = 1e-9
# step-function grid coordinates this close to an edge count as on it
_EDGE_TOL = 1e-9


class StepFunction:
    """Sum of constant pieces alpha_i * 1_{P_i} with disjoint supports."""

    __slots__ = ("pieces", "eta", "r", "domain_size")

    def __init__(self, pieces, eta: float, r: int, domain_size: int):
        self.pieces = list(pieces)
        self.eta = float(eta)
        self.r = int(r)
        self.domain_size = int(domain_size)
        sizes = np.array([p.size for p, _ in self.pieces], dtype=np.int64)
        if (sizes == 0).any():
            raise AssertionError("step functions keep nonempty pieces only")
        alphas = np.abs(np.array([alpha for _, alpha in self.pieces], dtype=complex))
        if (alphas > 1.0 + 1e-12).any():
            raise AssertionError(f"piece coefficient {alphas.max()} exceeds the unit ball")
        if self.pieces:
            covered = np.bincount(np.concatenate([p for p, _ in self.pieces]))
            if covered.size > domain_size or covered.max() > 1:
                raise AssertionError("step function pieces must be disjoint and in the domain")
        if len(self.pieces) > 100.0 / self.eta**2 + 1e-9:
            raise AssertionError(
                f"{len(self.pieces)} pieces exceed the bound 100/eta^2 for eta={self.eta}"
            )

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def values(self) -> np.ndarray:
        out = np.zeros(self.domain_size, dtype=np.complex128)
        for positions, alpha in self.pieces:
            out[positions] = alpha
        return out


def _on_grid(x: np.ndarray) -> np.ndarray:
    """x with every entry within 1e-9 of an integer moved onto that integer."""
    near = np.rint(x)
    return np.where(np.abs(x - near) <= _EDGE_TOL, near, x)


def _build_pieces(values: np.ndarray, r: int):
    """Level pieces: magnitude band j holds (j/r, (j+1)/r], phase sector k the
    angles in (2 pi k / r, 2 pi (k+1) / r] with angle 0 taken as 2 pi.  A value
    within rounding of an edge counts as on it (_on_grid), so 1, 1 + 1e-17j
    and 1 - 1e-17j share the last sector."""
    j = np.ceil(_on_grid(np.abs(values) * r)).astype(np.int64) - 1
    j = np.minimum(j, r - 1)
    x = _on_grid(np.angle(values) * r / (2 * np.pi))
    x = np.where(x <= 0, x + r, x)
    k = np.clip(np.ceil(x).astype(np.int64) - 1, 0, r - 1)
    positions = np.flatnonzero(j >= 1)  # the zero magnitude band contributes coefficient 0
    keys = j[positions] * r + k[positions]
    uniq, label, counts = np.unique(keys, return_inverse=True, return_counts=True)
    by_label = positions[np.argsort(label, kind="stable")]
    ends = np.cumsum(counts).tolist()
    jj, kk = np.divmod(uniq, r)
    alphas = ((jj / r) * np.exp(2j * np.pi * kk / r)).tolist()
    return [(by_label[start:end], alpha)
            for start, end, alpha in zip([0] + ends[:-1], ends, alphas)]


def step_approximate(f: BoundedFunction, eta: float) -> StepFunction:
    """Approximate f within sup-error eta by magnitude/phase level pieces.

    Magnitude levels j/r and phase sectors 2*pi*k/r with r = ceil(10/eta); for
    fractional 10/eta the ceiling can push the worst-case piece count past
    100/eta^2, in which case the grid is rebuilt with r = floor(10/eta), which
    still meets the sup-error target (error <= (1+2*pi)/r).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    values = f.values if isinstance(f, BoundedFunction) else np.asarray(f, dtype=complex)
    r = math.ceil(10.0 / eta)
    pieces = _build_pieces(values, r)
    if len(pieces) > 100.0 / eta**2:
        r = math.floor(10.0 / eta)
        pieces = _build_pieces(values, r)
    return StepFunction(pieces, eta, r, values.size)


@dataclass(frozen=True)
class IrregularityWitness:
    """A violating pair: |f^T M g| >= lambda * |A| * |Gamma|."""

    f: BoundedFunction
    g: BoundedFunction
    constrained_side: str
    value: float

    def __post_init__(self):
        if self.constrained_side not in ("rows", "cols"):
            raise ValueError(f"constrained_side must be 'rows' or 'cols', got {self.constrained_side!r}")
        vec = self.f.values if self.constrained_side == "rows" else self.g.values
        drift = abs(complex(vec.sum()))
        if drift > _ORTH_TOL * vec.size:
            raise ValueError(
                f"constrained side of a witness must sum to zero, got |sum| = {drift}"
            )
        if self.value < 0:
            raise ValueError("witness value cannot be negative")


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the regularity decision.

    upper_bound is the last certificate's bound: the Frobenius one when that
    tier certifies or the search reaches lambda outright, the Gram one once
    that tier has run.
    """

    status: str  # "regular" | "irregular" | "undetermined"
    lam: float
    upper_bound: float
    witness: Optional[IrregularityWitness]
    lower_bound: float

    def __post_init__(self):
        if self.status not in ("regular", "irregular", "undetermined"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "irregular":
            if self.witness is None or self.witness.value < self.lam * (1 - 1e-12):
                raise AssertionError("irregular verdicts need a witness at level lambda")
        if self.lower_bound > self.upper_bound + 1e-9:
            raise AssertionError(
                f"sandwich violated: lower {self.lower_bound} > upper {self.upper_bound}"
            )


def _frobenius_top(c: np.ndarray) -> float:
    """Upper bound on ||c||_F, and so on the largest singular value of c.

    The real part of vdot(c, c) sums 2 rows cols nonnegative real squares,
    so in any summation order its computed value is at least
    (1 - gamma_{2 rows cols}) times the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., eq. (3.5)).  Dividing by that
    factor is covered by multiplying by 1 + 4 rows cols u while
    rows cols u <= 1/8, which holds for any matrix that fits in memory; the
    two roundings of that product add u to the square root, which the
    1 + 8u factor of _centred_bound still covers.
    """
    return math.sqrt(float(np.vdot(c, c).real) * (1.0 + 4.0 * c.size * _UNIT))


def _gram_top(c: np.ndarray) -> float:
    """Upper bound on the largest singular value of c, from its smaller Gram matrix H.

    H = c c^H or c^H c has side min(rows, cols); its top eigenvalue comes
    from one eigvalsh, and the margin is the one derived in
    spectral_certificate.
    """
    fro2 = float(np.vdot(c, c).real)
    margin = 4.0 * (max(c.shape) + 1) * _UNIT * fro2
    ch = c.conj().T
    h = c @ ch if c.shape[0] <= c.shape[1] else ch @ c
    top = float(np.linalg.eigvalsh(h)[-1])
    return math.sqrt(max(top, 0.0) + margin)


def _centred_bound(e: np.ndarray, top) -> float:
    """Sound bound on sup |f^T e g| / (rows cols) from both centrings C of e.

    Each C gives (top(C) / sqrt(rows cols) + centring error) (1 + 8u), where
    top(C) bounds the largest singular value of the computed C from above;
    spectral_certificate derives the other two terms.
    """
    rows, cols = e.shape
    scale = math.sqrt(rows * cols)
    entry = float(np.max(np.abs(e)))
    upper = 0.0
    for axis, k in ((0, rows), (1, cols)):
        sigma = top(e - e.mean(axis=axis, keepdims=True))
        centring = 2.0 * (k + 2) * _UNIT * entry
        upper = max(upper, (sigma / scale + centring) * (1.0 + 8.0 * _UNIT))
    return upper


def spectral_certificate(m: CoherenceMatrix, lam: float) -> tuple[float, bool]:
    """Sound upper bound on sup_{f,g} |f^T M g| / (|A| |Gamma|), from the Gram matrices.

    Centring kills the uncontrolled all-ones direction on the constrained
    side: a sup-norm-1 f summing to zero has f^T M g = f^T C g with C = M
    minus its column means, so |f^T M g| <= ||C||_2 sqrt(|A| |Gamma|), and
    likewise with the row means when g sums to zero.  The bound is the
    larger of the two normalised norms, each bounded from above in floating
    point (unit roundoff u = 2^-53):

    - Centring.  Each entry of the computed C is off by at most
      2 (k + 2) u max|M|, where k is the length of the averaged axis (a mean
      of k terms in any summation order, then one subtraction; the 2
      covers real and imaginary parts).  So ||C - C_computed||_2 is below
      sqrt(|A| |Gamma|) times that.
    - Gram matrix.  sigma_max(C)^2 is the top eigenvalue of H = C C^H (or
      C^H C, whichever is smaller), formed after centring: a Gram product
      of the uncentred matrix would cancel against the all-ones direction
      and carry an error of order |A| |Gamma| instead of ||C||_F^2.  With
      n = max(rows, cols) terms per entry, the computed H is within
      1.5 (n + 2) u ||C||_F^2 of H in norm, and eigvalsh returns an exact
      eigenvalue of a matrix within 2 n u ||H||_2 of the computed H
      (LAPACK's backward error, whose modest growth factor is taken as
      2n).  Both together stay below margin = 4 (n + 1) u ||C||_F^2, which
      leaves room for the relative error of evaluating ||C||_F^2 (at most
      4 rows cols u, below 1e-6 for any matrix that fits in memory).  So
      sigma_max(C) <= sqrt(max(top, 0) + margin), top being the largest
      eigenvalue eigvalsh returns for the computed H.
    - Finally the square root, the sums and the division round by at most
      5u relative, covered by the factor 1 + 8u.

    The margin scales with ||C||_F, not with |A| |Gamma|, so a matrix whose
    centring is (nearly) zero, such as the all-ones matrix, still gets a
    bound near 0.  decide_regularity's Frobenius tier is the same bound with
    ||C||_F >= sigma_max(C) in place of the Gram step.
    """
    upper = _centred_bound(m.entries, _gram_top)
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
    gamma_n n max|x| max|y|, widened for complex products.  Every f and g
    of the search has sup-norm at most 1, so the bound takes max|y| = 1
    and max|x| = entry, the largest matrix entry.  A computed entry at or
    below the bound may stand for an exact zero: on Z_2^k the root table
    stores -1 as -1 + 1.2e-16j, so a sum that is exactly 0 comes out near
    1e-16 with a phase set by the summation order.  _phase_of maps such
    entries to 0 so that no choice follows rounding noise.  Taking
    max|y| = 1 rather than the vector's own maximum also zeroes the product
    of a centred vector that cancelled to rounding noise, as the phases of
    the two conjugate rows of a 2-element set's matrix do.
    """
    gamma = 2 * n * _UNIT / (1.0 - 2 * n * _UNIT)
    return math.sqrt(2.0) * gamma * n * entry


def _phase_of(values: np.ndarray, bound: float) -> np.ndarray:
    """conj(v)/|v| entrywise, and 0 where |v| <= bound (the zero rule); bound > 0."""
    mags = np.abs(values)
    scale = np.divide(mags > bound, np.maximum(mags, bound, out=mags), out=mags)
    out = np.conj(values)
    out *= scale  # in place: a fresh block-sized product costs page faults
    return out


def _project_centered(values: np.ndarray) -> np.ndarray:
    """Subtract each row's mean, then scale rows back into the unit ball."""
    shifted = values - values.mean(axis=-1, keepdims=True)
    shifted *= 1.0 / np.maximum(np.abs(shifted).max(axis=-1, keepdims=True), 1.0)
    return shifted


def _first_near_max(values) -> int:
    """The tie rule: the first index whose value is within 1e-9 relative of the maximum.

    Two candidates that agree to 1e-9 are equally good witnesses, and which
    of them rounds higher depends on the summation order (and so on the BLAS
    kernel and thread count); the fixed order decides instead.
    """
    values = np.asarray(values)
    return int(np.argmax(values >= values.max() * (1.0 - _TIE_REL)))


def _alternating_search(entries: np.ndarray, seed: int):
    """Best (value, f, g, constrained_side) found by alternating phase ascent.

    Per side, the restarts run as the rows of one block, as in the block
    1-norm estimator of Higham and Tisseur (SIAM J. Matrix Anal. Appl. 21
    (2000) 1185-1201): an iteration is the two products G M^T and F M.  A
    restart leaves the block when its value stops climbing by more than
    1e-12, so each keeps its own early stop.  The value f^T M g =
    sum_j (f M)_j g_j is read off the vector just formed; on the
    unconstrained side it is sum |f M|.  Entries at or below the rounding
    bound of their product get phase 0 (_product_bound), and the best
    candidate is picked by the tie rule over the order rows restarts 0..7,
    cols restarts 0..7 (_first_near_max).  With both rules the result does
    not depend on how BLAS rounds, which a one-restart-at-a-time search
    reproduces.
    """
    restarts, max_iter = WITNESS_BUDGET
    nr, nc = entries.shape
    scale = nr * nc
    entry = float(np.max(np.abs(entries)))
    zero_f, zero_g = _product_bound(nc, entry), _product_bound(nr, entry)
    found = [None] * (2 * restarts)
    for side_idx, side in enumerate(("rows", "cols")):
        g = np.empty((restarts, nc), dtype=complex)
        g[0] = 1.0
        for restart in range(1, restarts):
            rng = np.random.default_rng([seed, side_idx, restart])
            g[restart] = np.exp(2j * np.pi * rng.random(nc))
        slots = side_idx * restarts + np.arange(restarts)
        prev = np.full(restarts, -1.0)
        for step in range(max_iter):
            f = _phase_of(g @ entries.T, zero_f)
            if side == "rows":
                f = _project_centered(f)
            raw = f @ entries
            g = _phase_of(raw, zero_g)
            if side == "cols":
                g = _project_centered(g)
            value = np.abs((raw[:, None, :] @ g[:, :, None])[:, 0, 0]) / scale
            stop = (value <= prev + 1e-12) | (step + 1 == max_iter)
            if stop.any():
                for k in np.flatnonzero(stop):
                    found[slots[k]] = (float(value[k]), f[k].copy(), g[k].copy(), side)
                if stop.all():
                    break
                keep = ~stop
                g, value, slots = g[keep], value[keep], slots[keep]
            prev = value
    return found[_first_near_max([c[0] for c in found])]


def _root_grid(n: int, r: int) -> np.ndarray:
    choices = np.append(np.exp(2j * np.pi * np.arange(r) / r), 0.0)
    grid = np.array(list(itertools.product(choices, repeat=n)), dtype=complex)
    return grid


def brute_force_max(
    m: CoherenceMatrix,
    r: int,
    side: str = "rows",
    budget: int = 20_000_000,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exhaustive |f^T M g| / (|A| |Gamma|) over r-th roots of unity plus 0.

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


def _witness_candidates(m: CoherenceMatrix, seed: int):
    """Lazy (value, f, g, constrained_side) candidates in the order they are tried.

    The alternating search comes first.  The exhaustive grid follows only
    when neither the search nor the Gram certificate decided, and only on
    matrices small enough for it.
    """
    yield _alternating_search(m.entries, seed)
    if 5 ** (m.n_rows + m.n_cols) <= 10_000_000:  # 4th roots of unity and 0 per entry
        for side in ("rows", "cols"):
            value, f, g = brute_force_max(m, 4, side)
            yield value, f, g, side


def decide_regularity(m: CoherenceMatrix, lam: float, seed: int = 0) -> RegularityVerdict:
    """Frobenius certificate, search, Gram certificate, grid: the first that decides wins."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    upper = _centred_bound(m.entries, _frobenius_top)
    if upper < lam:
        return RegularityVerdict("regular", lam, upper, None, 0.0)
    candidates = _witness_candidates(m, seed)
    search = next(candidates)
    if search[0] < lam:
        upper, certified = spectral_certificate(m, lam)
        if certified:
            return RegularityVerdict("regular", lam, upper, None, 0.0)
    lower = 0.0
    for value, f, g, side in itertools.chain([search], candidates):
        if value >= lam * (1 - 1e-12):
            witness = IrregularityWitness(
                BoundedFunction("rows", f), BoundedFunction("cols", g), side, value
            )
            return RegularityVerdict("irregular", lam, upper, witness, value)
        lower = max(lower, value)
    return RegularityVerdict("undetermined", lam, upper, None, lower)


@dataclass(frozen=True)
class MinorExtraction:
    """A quadrant of the matrix whose coherence mean beats the parent mean,
    given by the positions of its rows and columns."""

    row_positions: np.ndarray
    col_positions: np.ndarray
    old_mean: float
    new_mean: float
    improvement: float
    row_fraction: float
    col_fraction: float
    quadrant: str


def _best_piece_pair(entries: np.ndarray, rho_c: complex, row_pieces, col_pieces):
    """(i, j) of the piece pair whose block sum deviates most from the mean.

    For pieces P, Q with entry sum S over P x Q, the deviation is
    |phase * S - rho |P| |Q||, where rho = |mean| and phase = conj(mean) / rho:
    the sum of the mean-subtracted matrix, rotated onto the mean.  Pieces
    are disjoint and come ordered by label, so concatenating them sorts the
    positions by label, and np.add.reduceat over the label runs sums the
    rows and then the columns: two passes and no indicator matrices, which
    would hold (pieces x positions) complex numbers.  The pick is the tie
    rule's, the first pair in row-major order within 1e-9 of the largest.
    """
    def runs(pieces):
        sizes = np.array([p.size for p in pieces])
        return np.concatenate(pieces), sizes, np.cumsum(sizes) - sizes

    rows, row_sizes, row_starts = runs(row_pieces)
    cols, col_sizes, col_starts = runs(col_pieces)
    by_row = np.add.reduceat(entries[rows], row_starts, axis=0)
    sums = np.add.reduceat(by_row[:, cols], col_starts, axis=1)
    rho = abs(rho_c)
    phase = np.conj(rho_c) / rho if rho > 0 else 1.0
    raw = np.abs(phase * sums - rho * np.outer(row_sizes, col_sizes))
    return divmod(_first_near_max(raw.ravel()), len(col_pieces))


def _complement(positions: np.ndarray, n: int) -> np.ndarray:
    """The sorted positions of range(n) outside positions."""
    keep = np.ones(n, dtype=bool)
    keep[positions] = False
    return np.flatnonzero(keep)


def _quadrant_mean(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    block = entries[np.ix_(rows, cols)]
    return float(np.mean(np.abs(block.mean(axis=0))))


def extract_minor(
    m: CoherenceMatrix,
    witness: IrregularityWitness,
    lam: float,
    mode: str = "opportunistic",
) -> MinorExtraction:
    """Cut a quadrant with a larger coherence mean out of an irregular matrix.

    The witness pair is step-approximated (eta = lambda/8 faithful, measured
    value / 8 opportunistic); the piece pair carrying the largest raw sum of
    the mean-subtracted matrix is located (_best_piece_pair), and of its four
    quadrants (piece or complement on each side) the one with the largest
    recomputed coherence mean wins.  Ties prefer the larger min-side, then
    the fixed quadrant order.
    """
    if mode not in ("faithful", "opportunistic"):
        raise ValueError(f"mode must be 'faithful' or 'opportunistic', got {mode!r}")
    if witness.value < lam * (1 - 1e-12):
        raise ValueError(
            f"witness value {witness.value} is below the regularity level {lam}"
        )
    entries = m.entries
    nr, nc = entries.shape
    if len(witness.f) != nr or len(witness.g) != nc:
        raise ValueError("witness shape does not match the matrix")
    rho_c = complex(entries.mean())
    rho = abs(rho_c)

    eta = min(1.0, (lam if mode == "faithful" else witness.value) / 8.0)
    f_step = step_approximate(witness.f, eta)
    g_step = step_approximate(witness.g, eta)
    if not f_step.pieces or not g_step.pieces:
        raise ValueError("degenerate witness: step approximation has no pieces")

    row_pieces = [p for p, _ in f_step.pieces]
    col_pieces = [p for p, _ in g_step.pieces]
    i, j = _best_piece_pair(entries, rho_c, row_pieces, col_pieces)

    rp = row_pieces[i]
    cp = col_pieces[j]
    row_options = [("piece", rp), ("complement", _complement(rp, nr))]
    col_options = [("piece", cp), ("complement", _complement(cp, nc))]
    candidates = []
    for rname, rsel in row_options:
        for cname, csel in col_options:
            if rsel.size == 0 or csel.size == 0:
                continue
            mu = _quadrant_mean(entries, rsel, csel)
            candidates.append((mu, min(rsel.size, csel.size), rname, cname, rsel, csel))
    if not candidates:
        raise ValueError("all candidate quadrants are empty on one side")
    best_mu = max(cand[0] for cand in candidates)
    tied = [cand for cand in candidates if cand[0] >= best_mu - 1e-12]
    best_min_side = max(cand[1] for cand in tied)
    tied = [cand for cand in tied if cand[1] == best_min_side]
    mu, _, rname, cname, rsel, csel = tied[0]

    improvement = mu - rho
    if mode == "faithful":
        floor_rows = C_DEFAULT * lam**15 * nr
        floor_cols = C_DEFAULT * lam**15 * nc
        if rsel.size < floor_rows or csel.size < floor_cols:
            raise AssertionError(
                f"faithful minor sides {rsel.size}x{csel.size} fall below the "
                f"c*lambda^15 floor ({floor_rows}, {floor_cols})"
            )
        if improvement < (C_DEFAULT / 2.0) * lam**15:
            raise AssertionError(
                f"faithful minor improves the mean by {improvement}, below (c/2)*lambda^15"
            )

    return MinorExtraction(
        row_positions=rsel,
        col_positions=csel,
        old_mean=rho,
        new_mean=mu,
        improvement=improvement,
        row_fraction=rsel.size / nr,
        col_fraction=csel.size / nc,
        quadrant=f"{rname}/{cname}",
    )
