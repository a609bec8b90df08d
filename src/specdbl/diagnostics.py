"""Spectrum statistics: doubling probabilities, closure checks, worked sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fourier import FourierTable, spectrum
from .groups import ElementSet, FiniteAbelianGroup, _pair_count, difference_set, sumset

__all__ = [
    "DoublingReport",
    "ClosureReport",
    "ExampleSetBundle",
    "SumsetStats",
    "statistical_doubling",
    "high_threshold_closure",
    "example_counterexample",
    "sumset_stats",
]


@dataclass(frozen=True)
class DoublingReport:
    """Probability that a random ordered pair of large characters sums large.

    Every pair is counted, so ``exact`` is always True.  ``hit_pairs`` of
    the ``total_pairs`` = ``spec_size``^2 ordered pairs land in the smaller
    spectrum, of ``small_spec_size`` characters.
    """

    epsilon: float
    p: float
    lower_bound: float
    total_pairs: int
    hit_pairs: int
    spec_size: int
    small_spec_size: int
    exact: bool


def statistical_doubling(table: FourierTable, eps: float) -> DoublingReport:
    """Measure Pr[g1 + g2 lands in the (eps^2/2)-spectrum] over ordered pairs
    g1, g2 drawn from the eps-spectrum of the set whose table is ``table``.

    Counts all pairs at once (``groups._pair_count``), with no array of
    pair counts on a pure 2-group, and asserts the lower bound eps^2/2.
    """
    lower = eps * eps / 2.0
    if not lower > 0:  # a tiny eps underflows; name it, not the level
        raise ValueError(f"statistical doubling needs eps^2/2 > 0, got eps={eps}")
    spec = spectrum(table, eps)
    small = spectrum(table, lower)
    m = len(spec)
    hits = _pair_count(spec, spec, small)
    total = m * m
    p = hits / total
    if p < lower:
        raise AssertionError(
            f"exact doubling probability {p} fell below the bound {lower}"
        )
    return DoublingReport(eps, p, lower, total, hits, m, len(small), True)


@dataclass(frozen=True)
class ClosureReport:
    """Whether the eps-spectrum is sumset-closed into the (4*eps-3)-spectrum."""

    epsilon: float
    target_level: float
    ok: bool
    spec_size: int
    target_size: int
    violation: Optional[tuple]


def high_threshold_closure(table: FourierTable, eps: float) -> ClosureReport:
    """For eps > 3/4, check Spec_eps + Spec_eps is contained in Spec_{4*eps-3},
    the spectra of the set whose table is ``table``.

    The check holds exactly when every one of the |Spec_eps|^2 ordered pairs
    sums into the target (``groups._pair_count``).  Only a failed check forms
    the sumset, to name one pair whose sum falls outside.
    """
    if not 0.75 < eps <= 1.0:
        raise ValueError(f"closure check needs a level in (3/4, 1], got {eps}")
    group = table.group
    spec = spectrum(table, eps)
    target = spectrum(table, 4.0 * eps - 3.0)
    if _pair_count(spec, spec, target) == len(spec) ** 2:
        return ClosureReport(eps, 4.0 * eps - 3.0, True, len(spec), len(target), None)
    outside = sumset(spec, spec).mask & ~target.mask
    bad = group.decode_indices(np.flatnonzero(outside)[:1])  # one (1, rank) row
    members = spec.indices()
    partners = group.encode_coords(bad - group.decode_indices(members))
    first = int(np.flatnonzero(spec.mask[partners])[0])
    witness = tuple(map(tuple, group.decode_indices([members[first], partners[first]]).tolist()))
    return ClosureReport(eps, 4.0 * eps - 3.0, False, len(spec), len(target), witness)


@dataclass(frozen=True)
class ExampleSetBundle:
    """Union of two coordinate planes through 0 in Z_2^(2n)."""

    n: int
    members: ElementSet
    valid_threshold_bound: float


def example_counterexample(n: int) -> ExampleSetBundle:
    """The set (Z_2^n x {0}) union ({0} x Z_2^n) inside Z_2^(2n).

    Its sumset is the whole group while its nonzero Fourier coefficients on
    the set itself all equal 2^n - 1 (and -1 everywhere else), so from n = 2
    on its spectrum at each level in (1/|A|, ``valid_threshold_bound``], with
    the bound (2^n - 1)/|A|, is the set itself; 0.4 is one such level.  At
    level 1/2 the spectrum collapses to {0}.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"n must lie in [1, 10], got {n}")
    group = FiniteAbelianGroup([2] * (2 * n))
    half = 1 << n
    idx = sorted(set(range(half)) | {v * half for v in range(half)})
    return ExampleSetBundle(n, ElementSet.from_indices(group, idx), (half - 1) / (2 * half - 1))


@dataclass(frozen=True)
class SumsetStats:
    plus_size: int
    minus_size: int
    doubling: float


def sumset_stats(s: ElementSet) -> SumsetStats:
    """Exact |S+S|, |S-S| and the doubling constant |S+S|/|S|."""
    if len(s) == 0:
        raise ValueError("sumset statistics need a nonempty set")
    plus = sumset(s, s)
    minus = difference_set(s, s)
    return SumsetStats(len(plus), len(minus), len(plus) / len(s))
