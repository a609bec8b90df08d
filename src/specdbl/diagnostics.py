"""Spectrum statistics: doubling probabilities, closure checks, worked sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fourier import dft, spectrum
from .groups import ElementSet, convolve_counts, difference_set, make_group, sumset

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

    Every pair is counted, so ``exact`` is always True.
    """

    epsilon: float
    p: float
    lower_bound: float
    total_pairs: int
    hit_pairs: int
    spec_size: int
    small_spec_size: int
    exact: bool


def statistical_doubling(a: ElementSet, eps: float) -> DoublingReport:
    """Measure Pr[g1 + g2 lands in the (eps^2/2)-spectrum] over ordered pairs
    g1, g2 drawn from the eps-spectrum.

    Counts all pairs at once through one convolution of the spectrum with
    itself, and asserts the lower bound eps^2/2.
    """
    lower = eps * eps / 2.0
    table = dft(a)
    spec = spectrum(table, eps)
    small = spectrum(table, lower)
    m = len(spec)
    counts = convolve_counts(spec.members, spec.members)
    hits = int(counts[small.members.mask].sum())
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


def high_threshold_closure(a: ElementSet, eps: float) -> ClosureReport:
    """For eps > 3/4, check Spec_eps + Spec_eps is contained in Spec_{4*eps-3}."""
    if not 0.75 < eps <= 1.0:
        raise ValueError(f"closure check needs a level in (3/4, 1], got {eps}")
    group = a.group
    table = dft(a)
    spec = spectrum(table, eps)
    target = spectrum(table, 4.0 * eps - 3.0)
    sums = sumset(spec.members, spec.members)
    outside = sums.mask & ~target.members.mask
    if not outside.any():
        return ClosureReport(eps, 4.0 * eps - 3.0, True, len(spec), len(target), None)
    bad = group.decode(int(np.flatnonzero(outside)[0]))
    members = spec.indices()
    partners = group.encode_coords(np.asarray(bad) - group.decode_indices(members))
    first = int(np.flatnonzero(spec.members.mask[partners])[0])
    witness = (group.decode(members[first]), group.decode(partners[first]))
    return ClosureReport(eps, 4.0 * eps - 3.0, False, len(spec), len(target), witness)


@dataclass(frozen=True)
class ExampleSetBundle:
    """Union of two coordinate planes through 0 in Z_2^(2n), with checks."""

    n: int
    members: ElementSet
    size_ok: bool
    sumset_is_group: bool
    coeffs_ok: bool
    spec04_size: int
    spec04_equals_set: bool
    spec_half_size: int
    valid_threshold_bound: float


def example_counterexample(n: int) -> ExampleSetBundle:
    """The set (Z_2^n x {0}) union ({0} x Z_2^n) inside Z_2^(2n).

    Its sumset is the whole group while its nonzero Fourier coefficients on
    the set itself all equal 2^n - 1 (and -1 everywhere else), so the
    0.4-spectrum reproduces the set exactly once 2^n - 1 >= 0.4 * (2^(n+1)-1),
    which holds from n = 2 on.  At level 1/2 the spectrum collapses to {0}.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"n must lie in [1, 10], got {n}")
    group = make_group([2] * (2 * n))
    half = 1 << n
    idx = sorted(set(range(half)) | {v * half for v in range(half)})
    members = ElementSet.from_indices(group, idx)
    size_ok = len(members) == 2 * half - 1

    total = sumset(members, members)
    sumset_is_group = len(total) == group.size

    table = dft(members)
    expected = np.full(group.size, -1.0)
    expected[members.mask] = half - 1
    expected[0] = len(members)
    coeffs_ok = bool(np.max(np.abs(table.coeffs - expected)) < 1e-9)

    spec04 = spectrum(table, 0.4)
    spec_half = spectrum(table, 0.5)
    return ExampleSetBundle(
        n=n,
        members=members,
        size_ok=size_ok,
        sumset_is_group=sumset_is_group,
        coeffs_ok=coeffs_ok,
        spec04_size=len(spec04),
        spec04_equals_set=spec04.members == members,
        spec_half_size=len(spec_half),
        valid_threshold_bound=(half - 1) / (2 * half - 1),
    )


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
