"""Sup-norm regularity of coherence matrices: certificates, witnesses, minors.

A matrix M on A x Gamma is lambda-regular when |f^T M g| < lambda * |A| *
|Gamma| for every pair of sup-norm-1 test functions with at least one side
summing to zero.  decide_regularity is the one decision: a sound certificate
that bounds the top singular values of the row- and column-centred matrix
by the top eigenvalue of the smaller Gram matrix plus a stated rounding
margin (Regular when it beats lambda), then witness candidates in a fixed
order, the best pair of an alternating search and, on tiny matrices only, a
discretised exhaustive grid (Irregular at the first candidate that reaches
lambda).  An Undetermined verdict carries the sandwich between the best
candidate value and the certificate bound.  When a witness exists, a minor
with a strictly larger mean is cut out of the matrix along the level pieces
of the step-function approximation of the witness pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coherence import BoundedFunction, CoherenceMatrix
from .groups import ElementSet

__all__ = [
    "C1_DEFAULT",
    "C_DEFAULT",
    "WITNESS_BUDGET",
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
# unit roundoff of float64, the u of the certificate's margin
_UNIT = np.finfo(np.float64).eps / 2.0
# centred matrices with imaginary parts this small take the real path
_REAL_IMAG_TOL = 1e-12


class StepFunction:
    """Sum of constant pieces alpha_i * 1_{P_i} with disjoint supports."""

    __slots__ = ("pieces", "eta", "r", "domain_size")

    def __init__(self, pieces, eta: float, r: int, domain_size: int):
        self.pieces = list(pieces)
        self.eta = float(eta)
        self.r = int(r)
        self.domain_size = int(domain_size)
        seen = np.zeros(domain_size, dtype=bool)
        for positions, alpha in self.pieces:
            if positions.size == 0:
                raise AssertionError("step functions keep nonempty pieces only")
            if abs(alpha) > 1.0 + 1e-12:
                raise AssertionError(f"piece coefficient {alpha} exceeds the unit ball")
            if seen[positions].any():
                raise AssertionError("step function pieces must be disjoint")
            seen[positions] = True
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


def _build_pieces(values: np.ndarray, r: int):
    mags = np.abs(values)
    j = np.ceil(mags * r).astype(np.int64) - 1
    j = np.minimum(j, r - 1)
    theta = np.angle(values)
    theta = np.where(theta <= 0, theta + 2 * np.pi, theta)
    k = np.ceil(theta * r / (2 * np.pi)).astype(np.int64) - 1
    k = np.clip(k, 0, r - 1)
    live = j >= 1  # the zero magnitude band contributes coefficient 0
    pieces = []
    if live.any():
        keys = j[live] * r + k[live]
        positions = np.flatnonzero(live)
        for key in np.unique(keys):
            sel = positions[keys == key]
            jj, kk = divmod(int(key), r)
            alpha = (jj / r) * np.exp(2j * np.pi * kk / r)
            pieces.append((sel, complex(alpha)))
    return pieces


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
    """Outcome of the three-tier regularity decision."""

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


def _gram_top(c: np.ndarray) -> float:
    """Upper bound on the largest singular value of c, from its smaller Gram matrix.

    The Gram product is formed on the smaller side, so its eigenproblem has
    min(rows, cols) unknowns; the margin is the one derived in
    spectral_certificate.
    """
    rows, cols = c.shape
    ct = c.conj().T if np.iscomplexobj(c) else c.T  # c @ c.T runs as one dsyrk
    h = c @ ct if rows <= cols else ct @ c
    top = float(np.linalg.eigvalsh(h)[-1])
    fro2 = float(np.vdot(c, c).real)
    margin = 4.0 * (max(rows, cols) + 1) * _UNIT * fro2
    return math.sqrt(max(top, 0.0) + margin)


def spectral_certificate(m: CoherenceMatrix, lam: float) -> tuple[float, bool]:
    """Sound upper bound on sup_{f,g} |f^T M g| / (|A| |Gamma|).

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
    - Real arithmetic.  When max|Im C| <= 1e-12, as on Z_2^k where every
      entry is +-1 up to the rounding of the root table, the norm is taken
      of Re C and ||Im C||_F is added: ||C||_2 <= ||Re C||_2 + ||Im C||_F
      holds for any C, so the threshold only picks the cheaper path.
    - Gram matrix.  sigma_max(C)^2 is the top eigenvalue of H = C C^H (or
      C^H C, whichever is smaller), formed after centring: a Gram product
      of the uncentred matrix would cancel against the all-ones direction
      and carry an error of order |A| |Gamma| instead of ||C||_F^2.  With
      n = max(rows, cols) terms per entry, the computed H is within
      1.5 (n + 2) u ||C||_F^2 of H in norm (real or complex inner
      products), and eigvalsh returns an exact eigenvalue of a matrix
      within 2 n u ||H||_2 of the computed H (LAPACK's backward error,
      whose modest growth factor is taken as 2n).  Both together stay
      below margin = 4 (n + 1) u ||C||_F^2, which leaves room for the
      relative error of evaluating ||C||_F^2 (at most rows*cols*u, below
      1e-6 for any matrix that fits in memory).  So sigma_max(C) <=
      sqrt(max(top, 0) + margin).
    - Finally the square root, the sums and the division round by at most
      5u relative, covered by the factor 1 + 8u.

    The margin scales with ||C||_F, not with |A| |Gamma|, so a matrix whose
    centring is (nearly) zero, such as the all-ones matrix, still gets a
    bound near 0.
    """
    e = m.entries
    rows, cols = e.shape
    scale = math.sqrt(rows * cols)
    entry = float(np.max(np.abs(e)))
    re, im = e.real, e.imag
    upper = 0.0
    for axis, k in ((0, rows), (1, cols)):
        im_c = im - im.mean(axis=axis, keepdims=True)
        if float(np.max(np.abs(im_c))) <= _REAL_IMAG_TOL:
            re_c = re - re.mean(axis=axis, keepdims=True)
            sigma = _gram_top(re_c) + float(np.linalg.norm(im_c))
        else:
            sigma = _gram_top(e - e.mean(axis=axis, keepdims=True))
        centring = 2.0 * (k + 2) * _UNIT * entry
        upper = max(upper, (sigma / scale + centring) * (1.0 + 8.0 * _UNIT))
    return upper, upper < lam


def _phase_of(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    nz = values != 0
    out[nz] = np.conj(values[nz]) / np.abs(values[nz])
    return out


def _project_centered(values: np.ndarray) -> np.ndarray:
    shifted = values - values.mean()
    sup = float(np.max(np.abs(shifted)))
    if sup > 1.0:
        shifted = shifted / sup
    return shifted


def _alternating_search(entries: np.ndarray, seed: int):
    """Best (value, f, g, constrained_side) found by alternating phase ascent."""
    restarts, max_iter = WITNESS_BUDGET
    nr, nc = entries.shape
    scale = nr * nc
    best = (0.0, np.zeros(nr, dtype=complex), np.zeros(nc, dtype=complex), "rows")
    for side_idx, side in enumerate(("rows", "cols")):
        for restart in range(restarts):
            if restart == 0:
                g = np.ones(nc, dtype=complex)
            else:
                rng = np.random.default_rng([seed, side_idx, restart])
                g = np.exp(2j * np.pi * rng.random(nc))
            prev = -1.0
            f = np.zeros(nr, dtype=complex)
            for _ in range(max_iter):
                f = _phase_of(entries @ g)
                if side == "rows":
                    f = _project_centered(f)
                g = _phase_of(entries.T @ f)
                if side == "cols":
                    g = _project_centered(g)
                value = abs(complex(f @ entries @ g)) / scale
                if value <= prev + 1e-12:
                    break
                prev = value
            value = abs(complex(f @ entries @ g)) / scale
            if value > best[0]:
                best = (value, f.copy(), g.copy(), side)
    return best


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

    The exhaustive grid is only reached when the alternating search failed,
    and only on matrices small enough for it.
    """
    yield _alternating_search(m.entries, seed)
    if 5 ** (m.n_rows + m.n_cols) <= 10_000_000:  # 4th roots of unity and 0 per entry
        for side in ("rows", "cols"):
            value, f, g = brute_force_max(m, 4, side)
            yield value, f, g, side


def decide_regularity(m: CoherenceMatrix, lam: float, seed: int = 0) -> RegularityVerdict:
    """Certificate first, then witness candidates until one reaches lambda."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    upper, certified = spectral_certificate(m, lam)
    if certified:
        return RegularityVerdict("regular", lam, upper, None, 0.0)
    lower = 0.0
    for value, f, g, side in _witness_candidates(m, seed):
        if value >= lam * (1 - 1e-12):
            witness = IrregularityWitness(
                BoundedFunction("rows", f), BoundedFunction("cols", g), side, value
            )
            return RegularityVerdict("irregular", lam, upper, witness, value)
        lower = max(lower, value)
    return RegularityVerdict("undetermined", lam, upper, None, lower)


@dataclass(frozen=True)
class MinorExtraction:
    """A quadrant of the matrix whose coherence mean beats the parent mean."""

    row_positions: np.ndarray
    col_positions: np.ndarray
    a_sub: Optional[ElementSet]
    gamma_sub: Optional[ElementSet]
    old_mean: float
    new_mean: float
    improvement: float
    row_fraction: float
    col_fraction: float
    quadrant: str


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
    the mean-subtracted matrix is located, and of its four quadrants (piece or
    complement on each side) the one with the largest recomputed coherence
    mean wins.  Ties prefer the larger min-side, then the fixed quadrant
    order.
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
    phase = np.conj(rho_c) / rho if rho > 0 else 1.0

    eta = min(1.0, (lam if mode == "faithful" else witness.value) / 8.0)
    f_step = step_approximate(witness.f, eta)
    g_step = step_approximate(witness.g, eta)
    if not f_step.pieces or not g_step.pieces:
        raise ValueError("degenerate witness: step approximation has no pieces")

    row_pieces = [p for p, _ in f_step.pieces]
    col_pieces = [p for p, _ in g_step.pieces]
    best_sum = -1.0
    pick = (0, 0)
    for i, rp in enumerate(row_pieces):
        sums_along = entries[rp].sum(axis=0)
        for j, cp in enumerate(col_pieces):
            raw = phase * complex(sums_along[cp].sum()) - rho * rp.size * cp.size
            if abs(raw) > best_sum:
                best_sum = abs(raw)
                pick = (i, j)

    all_rows = np.arange(nr)
    all_cols = np.arange(nc)
    rp = row_pieces[pick[0]]
    cp = col_pieces[pick[1]]
    row_options = [("piece", rp), ("complement", np.setdiff1d(all_rows, rp))]
    col_options = [("piece", cp), ("complement", np.setdiff1d(all_cols, cp))]
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

    a_sub = gamma_sub = None
    if m.group is not None and m.row_indices is not None and m.col_indices is not None:
        a_sub = ElementSet.from_indices(m.group, m.row_indices[rsel])
        gamma_sub = ElementSet.from_indices(m.group, m.col_indices[csel])
    return MinorExtraction(
        row_positions=rsel,
        col_positions=csel,
        a_sub=a_sub,
        gamma_sub=gamma_sub,
        old_mean=rho,
        new_mean=mu,
        improvement=improvement,
        row_fraction=rsel.size / nr,
        col_fraction=csel.size / nc,
        quadrant=f"{rname}/{cname}",
    )
