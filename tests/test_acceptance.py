"""Acceptance suite: eleven criteria, one test and one printed verdict line
each.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import time

import numpy as np
import pytest

from oracles import dft_naive, step_values
from specdbl import (
    CoherenceMatrix,
    IrregularityWitness,
    RefineConfig,
    audit_trace,
    decide_regularity,
    dft,
    difference_set,
    example_counterexample,
    extract_minor,
    high_threshold_closure,
    parseval_capacity,
    random_subset,
    refine_theorem1,
    refine_theorem2,
    spectrum,
    statistical_doubling,
    subgroup_span,
    sumset,
)
from specdbl.groups import FiniteAbelianGroup
from specdbl.regularity import _step_pieces


def _verdict(number: int, label: str) -> None:
    print(f"criterion {number:2d} ({label}): PASS")


def z2(n):
    return FiniteAbelianGroup((2,) * n)


# ------------------------------------------------------------------ criterion 1


def test_criterion_01_structured_example_reproduction():
    start = time.monotonic()
    for n in range(1, 6):
        bundle = example_counterexample(n)
        a = bundle.members
        group = a.group
        assert a.size == 2 ** (n + 1) - 1
        assert len(sumset(a, a)) == group.size

        table = dft(a)
        coeffs = table.coeffs
        indices = a.indices()
        assert coeffs[0] == pytest.approx(a.size)
        nonzero = indices[indices != 0]
        assert np.allclose(coeffs[nonzero], 2**n - 1)
        rest = np.setdiff1d(np.arange(group.size), indices)
        assert np.allclose(coeffs[rest], -1.0)

        spec = spectrum(table, 0.4)
        if n == 1:
            # at n = 1 the two nonzero coefficient classes have equal
            # magnitude, so no threshold separates the set from its
            # complement; the spectrum collapses to the trivial character
            assert len(spec) == 1
            assert spec.mask[0]
        else:
            assert spec == a
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _verdict(1, "structured example reproduction")


# ------------------------------------------------------------------ criterion 2


def test_criterion_02_statistical_doubling_exact():
    start = time.monotonic()
    group = z2(4)
    checked = 0
    for seed in range(100):
        size = 1 + seed % 15
        table = dft(random_subset(group, size, seed=seed))
        for eps in (0.3, 0.5, 0.7):
            report = statistical_doubling(table, eps)  # raises on violation
            assert report.exact
            assert report.p >= eps**2 / 2
            checked += 1
    assert checked == 300
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _verdict(2, "statistical doubling, 300 exact instances")


# ------------------------------------------------------------------ criterion 3


def test_criterion_03_parseval_bound_sweep():
    # spectrum() enforces the capacity bound on every spectrum built
    # anywhere in the suite; this sweep checks it explicitly
    groups = [z2(4), FiniteAbelianGroup((3, 3, 3)), FiniteAbelianGroup((4, 5))]
    for gi, group in enumerate(groups):
        for seed in range(20):
            size = 1 + (7 * seed + gi) % (group.size - 1)
            a = random_subset(group, size, seed=seed)
            table = dft(a)
            for eps in (0.2, 0.4, 0.6, 0.8, 1.0):
                spec = spectrum(table, eps)
                assert len(spec) <= parseval_capacity(group.size, a.size, eps)
    _verdict(3, "Parseval capacity bound")


# ------------------------------------------------------------------ criterion 4


def test_criterion_04_high_threshold_closure():
    start = time.monotonic()
    groups = [z2(4), FiniteAbelianGroup((3, 3, 3))]
    sets = 0
    for group in groups:
        for seed in range(25):
            size = 1 + (5 * seed) % (group.size - 1)
            table = dft(random_subset(group, size, seed=1000 + seed))
            for eps in (0.8, 0.9):
                report = high_threshold_closure(table, eps)
                assert report.ok, report.violation
            sets += 1
    assert sets == 50
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _verdict(4, "high-threshold closure")


# ------------------------------------------------------------------ criterion 5


def _refinement_sweep():
    runs = []
    for n in (2, 3, 4, 5):
        a = example_counterexample(n).members
        for fn in (refine_theorem1, refine_theorem2):
            cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
            runs.append((fn(a, cfg), cfg))
    for orders in ((2, 2, 2, 2), (3, 3, 3)):
        group = FiniteAbelianGroup(orders)
        for seed in (11, 12, 13):
            a = random_subset(group, 2 + (3 * seed) % (group.size // 2), seed=seed)
            for fn in (refine_theorem1, refine_theorem2):
                cfg = RefineConfig(epsilon=0.35, delta=0.4, seed=seed)
                runs.append((fn(a, cfg), cfg))
    h = subgroup_span(z2(4), [(1, 0, 0, 0), (0, 1, 0, 0)])
    cfg = RefineConfig(epsilon=0.5, delta=0.3, seed=0)
    runs.append((refine_theorem1(h, cfg), cfg))
    runs.append((refine_theorem2(h, cfg), cfg))
    return runs


def test_criterion_05_certified_finish_doubling_bounds():
    certified = 0
    for result, cfg in _refinement_sweep():
        if not (result.terminated == "finished" and result.certified):
            continue
        certified += 1
        # recompute everything from scratch on the final set
        a_star = result.a_star
        rho = result.rho_star
        table = dft(a_star)
        level = cfg.epsilon if result.theorem == 1 else rho
        spec = spectrum(table, level)
        spec_rho = spectrum(table, rho)
        gate_level = (cfg.epsilon * rho if result.theorem == 1 else rho * rho) / 2
        gate = spectrum(table, gate_level)
        diff = difference_set(spec, spec)
        doubling_bound = 2 * len(gate) ** 2 / (0.8 * len(spec_rho))
        assert len(diff) <= doubling_bound
        if result.theorem == 1:
            k_value = float(a_star.group.size) ** cfg.delta
            interim = 8 * k_value * a_star.group.size / (
                cfg.epsilon**2 * rho**2 * a_star.size
            )
            plus = sumset(spec, spec)
            assert len(plus) <= interim
    assert certified >= 10
    _verdict(5, f"doubling bound on {certified} certified finishes")


# ------------------------------------------------------------------ criterion 6


def test_criterion_06_regularity_sandwich():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        rows = int(rng.integers(2, 41))
        cols = int(rng.integers(2, 41))
        entries = np.exp(2j * np.pi * rng.random((rows, cols)))
        m = CoherenceMatrix(entries)
        verdict = decide_regularity(m, 0.1, seed=5)
        assert verdict.lower_bound <= verdict.upper_bound + 1e-9

    ones = CoherenceMatrix(np.ones((12, 9), dtype=complex))
    assert decide_regularity(ones, 1e-4).status == "regular"

    s = np.concatenate([np.ones(4), -np.ones(4)])
    block = CoherenceMatrix(np.outer(s, s).astype(complex))
    verdict = decide_regularity(block, 0.5)
    assert verdict.status == "irregular"
    assert verdict.witness.value >= 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _verdict(6, "regularity sandwich and planted verdicts")


# ------------------------------------------------------------------ criterion 7


def test_criterion_07_step_function_approximation():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(200):
        size = int(rng.integers(4, 400))
        values = rng.random(size) * np.exp(2j * np.pi * rng.random(size))
        for eta in (0.05, 0.1, 0.2, 0.5):
            pieces = _step_pieces(values, eta)
            assert np.max(np.abs(step_values(size, *pieces) - values)) <= eta + 1e-12
            assert pieces[1].size <= 100 / eta**2 + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _verdict(7, "step approximation error and piece count")


# ------------------------------------------------------------------ criterion 8


def _planted(seed, size=16, block=8):
    rng = np.random.default_rng([777, seed])
    entries = np.exp(2j * np.pi * rng.random((size, size)))
    entries[:block, :block] = 1.0
    m = CoherenceMatrix(entries)
    f = np.full(size, -block / size, dtype=complex)
    f[:block] = 1.0 - block / size
    g = np.zeros(size, dtype=complex)
    g[:block] = 1.0
    value = abs(complex(f @ entries @ g)) / (size * size)
    witness = IrregularityWitness(f, g, "rows", value)
    return m, witness


def test_criterion_08_planted_minor_extraction():
    for seed in range(20):
        m, witness = _planted(seed)
        first = extract_minor(m, witness, 0.05)
        again = extract_minor(m, witness, 0.05)
        assert first.row_positions.size > 0 and first.col_positions.size > 0
        assert first.new_mean >= abs(m.entries.mean()) + 0.1
        assert np.array_equal(first.row_positions, again.row_positions)
        assert np.array_equal(first.col_positions, again.col_positions)
        assert first.new_mean == again.new_mean
    _verdict(8, "planted-block minor extraction")


# ------------------------------------------------------------------ criterion 9


def test_criterion_09_subgroup_fixed_points():
    cases = [
        (z2(4), [(1, 0, 0, 0), (0, 1, 0, 0)]),
        (FiniteAbelianGroup((3, 3, 3)), [(1, 0, 0)]),
        (FiniteAbelianGroup((4, 2)), [(2, 0), (0, 1)]),
    ]
    for group, gens in cases:
        h = subgroup_span(group, gens)
        for fn in (refine_theorem1, refine_theorem2):
            cfg = RefineConfig(epsilon=0.5, delta=0.3, seed=0)
            result = fn(h, cfg)
            assert result.terminated == "finished"
            assert result.certified
            assert len(result.trace) == 1
            assert result.a_star == h
            assert result.measured["doubling"] == 1.0
    _verdict(9, "subgroup fixed points")


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_end_to_end_refinement():
    start = time.monotonic()
    # the criterion names n = 3 and a group size of 4096; those disagree
    # (|G| = 2^(2n) = 64 at n = 3), so both readings are exercised
    for n, limit in ((3, 64), (6, 4096)):
        bundle = example_counterexample(n)
        assert bundle.members.group.size == limit
        cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1, max_iterations=200)
        result = refine_theorem1(bundle.members, cfg)
        assert result.terminated == "finished"
        assert len(result.trace) <= 200

        table = dft(result.a_star)
        spec = spectrum(table, 0.4)
        plus = sumset(spec, spec)
        assert len(plus) < limit

        report = audit_trace(result, bundle.members)
        assert report.ok, report.violations
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _verdict(10, "end-to-end refinement with audit")


# ----------------------------------------------------------------- criterion 11


def test_criterion_11_dft_oracle_equivalence():
    shapes = [(2, 2, 2, 2, 2), (16, 16), (3, 3, 3, 3), (5, 7, 7), (4, 4, 4, 4), (252,)]
    count = 0
    worst = 0.0
    rng = np.random.default_rng(31)
    while count < 50:
        orders = shapes[count % len(shapes)]
        group = FiniteAbelianGroup(orders)
        size = int(rng.integers(1, group.size))
        a = random_subset(group, size, seed=count)
        fast = dft(a).coeffs
        naive = dft_naive(a).coeffs
        err = float(np.max(np.abs(fast - naive)))
        worst = max(worst, err / a.size)
        assert err < 1e-9 * a.size
        count += 1
    _verdict(11, f"fft vs direct summation, worst {worst:.2e} relative")
