import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdbl.coherence import BoundedFunction, CoherenceMatrix, build_matrix
from specdbl.diagnostics import example_counterexample
from specdbl.fourier import dft, spectrum
from specdbl.groups import make_group, random_subset, subgroup_span, sumset, ElementSet
from specdbl import refine, regularity
from specdbl.regularity import (
    C1_DEFAULT,
    C_DEFAULT,
    WITNESS_BUDGET,
    IrregularityWitness,
    StepFunction,
    _alternating_search,
    _best_piece_pair,
    _build_pieces,
    brute_force_max,
    decide_regularity,
    extract_minor,
    spectral_certificate,
    step_approximate,
)


def block_sign_matrix(half=2):
    s = np.concatenate([np.ones(half), -np.ones(half)])
    return CoherenceMatrix(np.outer(s, s))


def planted_matrix(seed, size=16, block=8):
    rng = np.random.default_rng([777, seed])
    entries = np.exp(2j * np.pi * rng.random((size, size)))
    entries[:block, :block] = 1.0
    return CoherenceMatrix(entries)


def planted_witness(size=16, block=8):
    f = np.full(size, -block / size, dtype=complex)
    f[:block] = 1.0 - block / size
    g = np.zeros(size, dtype=complex)
    g[:block] = 1.0
    return f, g


# ---------------------------------------------------------------- step functions


def test_step_constant_function_single_piece():
    f = BoundedFunction("rows", np.full(10, 0.7 + 0.0j))
    s = step_approximate(f, 0.1)
    assert s.piece_count == 1
    assert np.max(np.abs(s.values() - f.values)) <= 0.1
    assert s.r == 100


def test_step_constants_derived():
    assert C1_DEFAULT == 1.0 / 81_920_000.0
    assert C_DEFAULT == pytest.approx(C1_DEFAULT**3 / 4.0)
    assert C1_DEFAULT**2 - 2 * C_DEFAULT / C1_DEFAULT > 0


def test_step_pointwise_error_and_count_sweep():
    rng = np.random.default_rng(12)
    for eta in [0.05, 0.1, 0.2, 0.33, 0.5, 0.77, 1.0]:
        for n in [1, 7, 200]:
            mags = rng.random(n)
            vals = mags * np.exp(2j * np.pi * rng.random(n))
            f = BoundedFunction("rows", vals)
            s = step_approximate(f, eta)
            assert np.max(np.abs(s.values() - vals)) <= eta + 1e-12
            assert s.piece_count <= 100.0 / eta**2
            for _, alpha in s.pieces:
                assert abs(alpha) <= 1.0


def test_step_boundary_magnitudes():
    # values sitting exactly on grid boundaries, including 0 and 1
    vals = np.array([0.0, 1.0, 0.5, -0.5, 1j, -1j, 0.1, -0.1])
    s = step_approximate(BoundedFunction("rows", vals), 0.1)
    assert np.max(np.abs(s.values() - vals)) <= 0.1
    # the exact zero keeps no piece
    covered = np.zeros(vals.size, dtype=bool)
    for pos, _ in s.pieces:
        covered[pos] = True
    assert not covered[0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_step_property(values, eta):
    vals = np.asarray(values, dtype=complex)
    s = step_approximate(BoundedFunction("rows", vals), eta)
    assert np.max(np.abs(s.values() - vals)) <= eta + 1e-12
    assert s.piece_count <= 100.0 / eta**2


def test_step_rejects_bad_eta():
    f = BoundedFunction("rows", np.ones(3))
    for eta in [0.0, -0.1, 1.5]:
        with pytest.raises(ValueError):
            step_approximate(f, eta)


def _snapped(x):
    """x, or the integer within 1e-9 of it: a grid coordinate on an edge up to rounding."""
    return float(round(x)) if abs(x - round(x)) <= 1e-9 else x


def _loop_build_pieces(values, r):
    """The per-key loop that _build_pieces replaced, one value at a time with the
    edge rule: oracle for its pieces and their order."""
    j = np.array([min(math.ceil(_snapped(abs(v) * r)) - 1, r - 1) for v in values], dtype=np.int64)
    sectors = [_snapped(np.angle(v) * r / (2 * np.pi)) for v in values]
    k = np.array([min(max(math.ceil(x if x > 0 else x + r) - 1, 0), r - 1) for x in sectors],
                 dtype=np.int64)
    live = j >= 1
    pieces = []
    if live.any():
        keys = j[live] * r + k[live]
        positions = np.flatnonzero(live)
        for key in np.unique(keys):
            jj, kk = divmod(int(key), r)
            pieces.append((positions[keys == key], complex((jj / r) * np.exp(2j * np.pi * kk / r))))
    return pieces


def _assert_same_pieces(pieces, expected):
    # np.exp over an array may take another code path than the scalar call,
    # a few ulp apart, so coefficients agree to 8 eps; positions exactly
    assert len(pieces) == len(expected)
    for (pos, alpha), (want_pos, want_alpha) in zip(pieces, expected):
        assert np.array_equal(pos, want_pos)
        assert abs(alpha - want_alpha) <= 8 * np.finfo(np.float64).eps


def test_build_pieces_matches_the_loop():
    rng = np.random.default_rng(17)
    boundary = np.array([0.0, 1.0, 0.5, -0.5, 1j, -1j, 0.1, -0.1, -1 + 1.2e-16j, 1 - 1e-17j])
    for n, r in [(1, 10), (40, 13), (500, 100), (2155, 800)]:
        values = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        values[: min(n, boundary.size)] = boundary[: min(n, boundary.size)]
        _assert_same_pieces(_build_pieces(values, r), _loop_build_pieces(values, r))
    assert _build_pieces(np.zeros(5, dtype=complex), 10) == []


@pytest.mark.parametrize("r", [10, 13, 800])
def test_build_pieces_puts_rounding_noise_on_the_edge(r):
    # +1 lies on the edge between the last sector and sector 0; its two
    # rounded neighbours used to land on either side of it
    for value in (1.0 + 0j, 1 + 1e-17j, 1 - 1e-17j):
        [(positions, alpha)] = _build_pieces(np.array([value]), r)
        assert positions.tolist() == [0]
        assert alpha == pytest.approx((r - 1) / r * np.exp(-2j * np.pi / r), abs=1e-15)
    # the same on an inner sector edge and on a magnitude level
    level, edge = 4 / r, np.exp(2j * np.pi * 3 / r)
    want = _build_pieces(np.array([level * edge]), r)[0][1]
    assert want == pytest.approx(3 / r * np.exp(2j * np.pi * 2 / r), abs=1e-15)  # the lower band and sector
    for value in (level * edge * np.exp(1e-15j), level * edge * np.exp(-1e-15j),
                  (level + 1e-16) * edge, (level - 1e-16) * edge):
        assert _build_pieces(np.array([value]), r)[0][1] == want


def test_step_function_rejects_overlapping_pieces():
    fine = StepFunction([(np.array([0, 2]), 0.5), (np.array([1]), 1j)], 1.0, 10, 3)
    assert fine.values().tolist() == [0.5, 1j, 0.5]
    with pytest.raises(AssertionError, match="disjoint"):
        StepFunction([(np.array([0, 2]), 0.5), (np.array([2]), 1j)], 1.0, 10, 3)
    with pytest.raises(AssertionError, match="disjoint"):
        StepFunction([(np.array([3]), 0.5)], 1.0, 10, 3)  # outside the domain
    with pytest.raises(AssertionError, match="nonempty"):
        StepFunction([(np.array([], dtype=np.int64), 0.5)], 1.0, 10, 3)
    with pytest.raises(AssertionError, match="unit ball"):
        StepFunction([(np.array([0]), 1.5)], 1.0, 10, 3)


# ---------------------------------------------------------------- certificate


def test_certificate_all_ones_regular():
    m = CoherenceMatrix(np.ones((5, 7), dtype=complex))
    upper, certified = spectral_certificate(m, 1e-4)
    assert upper < 1e-12
    assert certified


def test_certificate_block_sign_upper_is_one():
    m = block_sign_matrix()
    upper, certified = spectral_certificate(m, 0.5)
    assert upper == pytest.approx(1.0)
    assert not certified
    # never certifies any lambda below 1
    assert not spectral_certificate(m, 0.999)[1]


def _centrings(entries):
    return (entries - entries.mean(axis=0, keepdims=True),
            entries - entries.mean(axis=1, keepdims=True))


def _svd_upper(entries):
    """Reference bound: top singular value of each centring by dense SVD."""
    top = max(np.linalg.svd(c, compute_uv=False)[0] for c in _centrings(entries))
    return top / np.sqrt(entries.size)


def _fro_upper(entries):
    """The larger Frobenius norm of the two centrings, normalised, without rounding terms."""
    return max(np.linalg.norm(c) for c in _centrings(entries)) / np.sqrt(entries.size)


def _frobenius_bound(entries):
    """The bound of decide_regularity's first tier."""
    return regularity._centred_bound(entries, regularity._frobenius_top)


def _unit_matrix(shape):
    return np.exp(2j * np.pi * np.random.default_rng([41, *shape]).random(shape))


def _sign_matrix(shape=(30, 50)):
    return np.random.default_rng([43, *shape]).choice([-1.0, 1.0], size=shape).astype(complex)


def _noisy(entries):
    # the Z_2^k case: root_table gives -1 as -1 + 1.2e-16j
    return entries + 1e-16j * np.random.default_rng(47).standard_normal(entries.shape)


@pytest.mark.parametrize("entries", [
    *(_unit_matrix(shape) for shape in [(1, 12), (12, 1), (7, 40), (40, 7), (60, 60)]),
    _sign_matrix(), _sign_matrix((50, 30)), _noisy(_sign_matrix()), _noisy(_sign_matrix((50, 30))),
    np.ones((5, 7), dtype=complex), block_sign_matrix().entries,
], ids=["unit-1x12", "unit-12x1", "unit-7x40", "unit-40x7", "unit-60x60",
        "sign-30x50", "sign-50x30", "noisy-sign-30x50", "noisy-sign-50x30", "ones", "block-sign"])
def test_certificate_is_sound_against_svd(entries):
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    reference = _svd_upper(entries)
    assert reference <= upper <= reference + 1e-9
    frobenius = _frobenius_bound(entries)
    assert reference <= frobenius <= _fro_upper(entries) + 1e-9


def _rank_one_noise(shape):
    # phases a_i + b_j plus noise of 0.05 turns: a dominant top singular value
    rng = np.random.default_rng([53, *shape])
    angles = rng.random(shape[0])[:, None] + rng.random(shape[1]) + 0.05 * rng.random(shape)
    return np.exp(2j * np.pi * angles)


def _counting(owner, name):
    """A patch of owner.name that records the first argument of every call."""
    calls, real = [], getattr(owner, name)

    def counted(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    return mock.patch.object(owner, name, counted), calls


LARGE = {
    "sign-256x300": _sign_matrix((256, 300)),
    "sign-300x256": _sign_matrix((300, 256)),
    "noisy-sign-256x300": _noisy(_sign_matrix((256, 300))),
    "unit-256x256": _unit_matrix((256, 256)),
    "unit-400x256": _unit_matrix((400, 256)),
    "rank-one-noise-300x260": _rank_one_noise((300, 260)),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_certificate_is_sound_and_tight(name):
    # Gram sides of 256 and more: never below the SVD bound, and within the
    # small matrices' tolerance above it
    entries = LARGE[name]
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    reference = _svd_upper(entries)
    assert reference <= upper <= reference + 1e-9


@pytest.mark.parametrize("name", ["sign-256x300", "unit-400x256", "rank-one-noise-300x260"])
def test_large_certificate_around_lambda(name):
    m = CoherenceMatrix(LARGE[name])
    reference = _svd_upper(m.entries)
    # top singular value just above lambda: never certified
    assert not spectral_certificate(m, reference * (1 - 1e-9))[1]
    assert not spectral_certificate(m, reference)[1]
    # just below: certified, and decide_regularity gets there through the
    # Gram tier, since the Frobenius bound misses lambda and the search
    # stays below it
    lam = reference * (1 + 2e-3)
    assert spectral_certificate(m, lam)[1]
    assert _frobenius_bound(m.entries) >= lam
    patch, calls = _counting(regularity, "spectral_certificate")
    with patch:
        verdict = decide_regularity(m, lam)
    assert verdict.status == "regular"
    assert len(calls) == 1
    assert verdict.upper_bound == spectral_certificate(m, lam)[0]


def test_search_value_within_the_witness_slack_waits_for_the_gram_tier():
    # the block sign pattern times [[1, 1], [1, -1]]: flat top singular
    # vectors that the search reaches, at 1/sqrt(2), against a Frobenius
    # bound of 1.  With lambda 5e-13 relative above the search value, that
    # value lies in the witness test's slack while the Gram bound, 8e-15
    # above it, certifies: the verdict must be the certificate's.
    m = CoherenceMatrix(np.kron(block_sign_matrix().entries, [[1, 1], [1, -1]]))
    value = _alternating_search(m.entries, 0)[0]
    lam = value * (1 + 5e-13)
    assert lam * (1 - 1e-12) <= value < lam
    assert spectral_certificate(m, lam)[1]
    assert _frobenius_bound(m.entries) >= lam
    verdict = decide_regularity(m, lam)
    assert verdict.status == "regular"
    assert verdict.witness is None
    assert verdict.upper_bound < lam


def test_large_all_ones_takes_the_fast_path():
    # the centred matrix is exactly 0, so both bounds are rounding terms
    m = CoherenceMatrix(np.ones((256, 300), dtype=complex))
    upper, certified = spectral_certificate(m, 1e-4)
    assert upper < 1e-12
    assert certified
    assert _frobenius_bound(m.entries) < 1e-12


def test_certify_run_decides_without_the_gram_tier():
    # the certify workload's run on example_counterexample(9): its 1023x1023
    # matrix is irregular and its 511x512 finishing matrix regular, and the
    # Frobenius bound and the search decide both; a silent return to the
    # Gram certificate first keeps every output and loses the speed
    matrices, verdicts = [], []

    def recorded(m, lam, seed=0):
        verdict = decide_regularity(m, lam, seed)
        matrices.append(m)
        verdicts.append((m.entries.shape, verdict.status))
        return verdict

    bundle = example_counterexample(9)
    certificates, certificate_calls = _counting(regularity, "spectral_certificate")
    eigensolver, eigvalsh_calls = _counting(np.linalg, "eigvalsh")
    with certificates, eigensolver, mock.patch.object(refine, "decide_regularity", recorded):
        result = refine.refine_theorem1(bundle.members, refine.RefineConfig(0.4, 0.3))
    assert verdicts == [((1023, 1023), "irregular"), ((511, 512), "regular")]
    assert result.certified
    assert certificate_calls == [] and eigvalsh_calls == []
    # both bounds stay sound on the large matrix, and the Gram one tight
    entries = matrices[0].entries
    reference = _svd_upper(entries)
    upper, _ = spectral_certificate(matrices[0], 1.0)
    assert reference <= upper <= reference + 1e-9
    assert reference <= _frobenius_bound(entries)


def test_certificate_dominates_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(10):
        entries = np.exp(2j * np.pi * rng.random((4, 4)))
        m = CoherenceMatrix(entries)
        upper, _ = spectral_certificate(m, 1.0)
        frobenius = _frobenius_bound(entries)
        for side in ("rows", "cols"):
            value, _, _ = brute_force_max(m, 4, side)
            assert value <= upper + 1e-9
            assert value <= frobenius + 1e-9


# ---------------------------------------------------------------- witnesses


def test_witness_block_sign():
    m = block_sign_matrix()
    verdict = decide_regularity(m, 0.5, seed=1)
    assert verdict.status == "irregular"
    w = verdict.witness
    assert w.value >= 0.5
    recomputed = abs(w.f.values @ m.entries @ w.g.values) / m.entries.size
    assert recomputed == pytest.approx(w.value, abs=1e-9)


def test_witness_none_on_all_ones():
    m = CoherenceMatrix(np.ones((6, 6), dtype=complex))
    verdict = decide_regularity(m, 1e-3, seed=0)
    assert verdict.status != "irregular"
    assert verdict.witness is None


def test_witness_deterministic():
    m = planted_matrix(3)
    a = decide_regularity(m, 0.05, seed=9).witness
    b = decide_regularity(m, 0.05, seed=9).witness
    assert a is not None and b is not None
    assert np.array_equal(a.f.values, b.f.values)
    assert np.array_equal(a.g.values, b.g.values)
    assert a.value == b.value


def test_witness_validation():
    f = BoundedFunction("rows", np.array([1.0, 1.0]))
    g = BoundedFunction("cols", np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        IrregularityWitness(f, g, "rows", 0.5)  # rows side does not sum to zero
    w = IrregularityWitness(f, g, "cols", 0.5)
    assert w.constrained_side == "cols"


_U = np.finfo(np.float64).eps / 2


def _zero_bound(n, entry):
    """sqrt(2) gamma_2n n max|M| for vectors of sup-norm <= 1: at or below it a product is 0."""
    return math.sqrt(2) * (2 * n * _U / (1 - 2 * n * _U)) * n * entry


def _reference_phase(matrix, x, entry):
    bound = _zero_bound(x.size, entry)
    return np.array([0j if abs(v) <= bound else np.conj(v) / abs(v) for v in matrix @ x])


def _reference_centre(v):
    shifted = v - v.mean()
    sup = np.max(np.abs(shifted))
    return shifted / sup if sup > 1 else shifted


def reference_search(entries, seed):
    """One restart at a time with three products per step: the oracle for the block search."""
    restarts, max_iter = WITNESS_BUDGET
    nr, nc = entries.shape
    entry = np.max(np.abs(entries))
    found = []
    for side_idx, side in enumerate(("rows", "cols")):
        for restart in range(restarts):
            if restart == 0:
                g = np.ones(nc, dtype=complex)
            else:
                g = np.exp(2j * np.pi * np.random.default_rng([seed, side_idx, restart]).random(nc))
            prev = -1.0
            for _ in range(max_iter):
                f = _reference_phase(entries, g, entry)
                if side == "rows":
                    f = _reference_centre(f)
                g = _reference_phase(entries.T, f, entry)
                if side == "cols":
                    g = _reference_centre(g)
                value = abs(complex(f @ entries @ g)) / (nr * nc)
                if value <= prev + 1e-12:
                    break
                prev = value
            found.append((value, f, g, side))
    top = max(c[0] for c in found)
    return next(c for c in found if c[0] >= top * (1 - 1e-9))  # the tie rule


def _pair_matrix():
    # the matrix of a 2-element set: its rows are conjugate and, the spectrum
    # being closed under negation, both row sums are real, so the centred
    # phases of the first rows restart cancel to rounding noise, and only
    # the zero rule keeps the phase of that noise out of the search
    a = ElementSet.from_indices(make_group([13, 13, 13]), np.array([5, 1000]))
    t = dft(a)
    return build_matrix(a, spectrum(t, 0.1), t).entries


@pytest.mark.parametrize("entries", [
    *(_unit_matrix(shape) for shape in [(3, 40), (40, 3), (60, 60)]),
    _noisy(_sign_matrix((50, 30))), _noisy(_sign_matrix((2, 165))), block_sign_matrix().entries,
    _pair_matrix(),
], ids=["unit-3x40", "unit-40x3", "unit-60x60", "noisy-sign-50x30", "noisy-sign-2x165",
        "block-sign", "pair-set"])
def test_block_search_matches_the_sequential_reference(entries):
    for seed in (0, 3):
        value, f, g, side = _alternating_search(entries, seed)
        want_value, want_f, want_g, want_side = reference_search(entries, seed)
        assert side == want_side
        assert value == pytest.approx(want_value, rel=1e-12)
        assert np.max(np.abs(f - want_f)) <= 1e-9
        assert np.max(np.abs(g - want_g)) <= 1e-9


def test_block_search_runs_the_restarts_together():
    # every product with the matrix is counted; a block search makes at most
    # two per iteration and side, the one-restart-at-a-time form three per
    # iteration and restart
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                calls.append(ufunc)
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    entries = _unit_matrix((60, 60)).view(Counting)
    cap_per_side = 2 * WITNESS_BUDGET[1]
    _alternating_search(entries, 3)
    assert 0 < len(calls) <= 2 * cap_per_side
    calls.clear()
    reference_search(entries, 3)
    assert len(calls) > 2 * cap_per_side


# ---------------------------------------------------------------- brute force


def test_brute_force_all_ones_is_zero():
    m = CoherenceMatrix(np.ones((3, 3), dtype=complex))
    value, f, g = brute_force_max(m, 2, "rows")
    assert value == pytest.approx(0.0, abs=1e-12)
    assert abs(f.sum()) < 1e-9


def test_brute_force_block_sign_reaches_one():
    m = block_sign_matrix()
    value, f, g = brute_force_max(m, 2, "rows")
    assert value == pytest.approx(1.0)
    assert abs(f.sum()) < 1e-9
    assert abs(complex(f @ m.entries @ g)) / 16 == pytest.approx(value)


def test_brute_force_budget_guard():
    m = CoherenceMatrix(np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="budget"):
        brute_force_max(m, 4, "rows", budget=1000)


# ---------------------------------------------------------------- decide


def test_decide_three_tiers():
    regular = decide_regularity(CoherenceMatrix(np.ones((4, 4), dtype=complex)), 1e-4)
    assert regular.status == "regular"
    assert regular.witness is None

    irregular = decide_regularity(block_sign_matrix(), 0.5, seed=2)
    assert irregular.status == "irregular"
    assert irregular.witness is not None
    assert irregular.witness.value >= 0.5
    assert irregular.lower_bound <= irregular.upper_bound + 1e-9


def test_decide_sandwich_on_random_matrices():
    rng = np.random.default_rng(31)
    statuses = set()
    for trial in range(25):
        nr = int(rng.integers(2, 12))
        nc = int(rng.integers(2, 12))
        entries = np.exp(2j * np.pi * rng.random((nr, nc)))
        m = CoherenceMatrix(entries)
        verdict = decide_regularity(m, 0.4, seed=trial)
        statuses.add(verdict.status)
        assert verdict.lower_bound <= verdict.upper_bound + 1e-9
        if verdict.status == "irregular":
            w = verdict.witness
            recomputed = abs(w.f.values @ m.entries @ w.g.values) / m.entries.size
            assert recomputed == pytest.approx(w.value, abs=1e-9)
    assert "irregular" in statuses or "regular" in statuses


def test_decide_example_set_matrix_is_irregular():
    bundle = example_counterexample(2)
    t = dft(bundle.members)
    spec = spectrum(t, 0.4)
    m = build_matrix(bundle.members, spec, t)
    verdict = decide_regularity(m, 0.01, seed=0)
    assert verdict.status == "irregular"
    assert verdict.witness.value >= 0.01
    value, _, _ = brute_force_max(m, 2, "rows")
    assert value >= 0.01


def test_neighbourhood_count_under_certified_regularity():
    # if M(A, Spec_rho(A)) is certified (eps*rho/150)-regular then every
    # gamma in Spec_eps(A) has 0.9 |Spec_rho| shifted neighbours inside
    # Spec_{eps*rho/2}(A)
    g = make_group([2] * 4)
    eps, rho = 0.5, 0.5
    instances = [subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])]
    instances += [random_subset(g, 5, seed=s) for s in range(12)]
    certified_count = 0
    for a in instances:
        if a.size == 0:
            continue
        t = dft(a)
        spec_rho = spectrum(t, rho)
        m = build_matrix(a, spec_rho, t)
        lam = eps * rho / 150.0
        verdict = decide_regularity(m, lam, seed=0)
        if verdict.status != "regular":
            continue
        certified_count += 1
        spec_eps = spectrum(t, eps)
        gate = spectrum(t, eps * rho / 2.0)
        rho_members = spec_rho.indices()
        rho_coords = g.decode_indices(rho_members)
        for gamma in spec_eps.indices():
            gamma_coords = g.decode_indices(np.array([gamma]))[0]
            shifted = g.encode_coords(rho_coords + gamma_coords)
            good = int(np.count_nonzero(gate.members.mask[shifted]))
            assert good >= 0.9 * len(spec_rho)
    assert certified_count >= 1


# ---------------------------------------------------------------- extraction


def test_extract_planted_blocks():
    for trial in range(5):
        m = planted_matrix(trial)
        f, g = planted_witness()
        value = abs(complex(f @ m.entries @ g)) / m.entries.size
        witness = IrregularityWitness(
            BoundedFunction("rows", f), BoundedFunction("cols", g), "rows", value
        )
        assert value >= 0.05
        ext = extract_minor(m, witness, 0.05)
        assert ext.new_mean >= ext.old_mean + 0.1
        assert ext.row_positions.size > 0 and ext.col_positions.size > 0
        # the planted block is exactly the best quadrant
        assert ext.row_positions.tolist() == list(range(8))
        assert ext.col_positions.tolist() == list(range(8))
        assert ext.new_mean == pytest.approx(1.0)
        again = extract_minor(m, witness, 0.05)
        assert again.row_positions.tolist() == ext.row_positions.tolist()
        assert again.new_mean == ext.new_mean


def test_extract_faithful_mode_matches_on_planted():
    m = planted_matrix(1)
    f, g = planted_witness()
    value = abs(complex(f @ m.entries @ g)) / m.entries.size
    witness = IrregularityWitness(
        BoundedFunction("rows", f), BoundedFunction("cols", g), "rows", value
    )
    opp = extract_minor(m, witness, 0.05, mode="opportunistic")
    faith = extract_minor(m, witness, 0.05, mode="faithful")
    assert faith.row_positions.tolist() == opp.row_positions.tolist()
    assert faith.col_positions.tolist() == opp.col_positions.tolist()
    assert faith.improvement >= (C_DEFAULT / 2.0) * 0.05**15


def test_extract_mean_recomputation_invariant():
    m = planted_matrix(2)
    f, g = planted_witness()
    value = abs(complex(f @ m.entries @ g)) / m.entries.size
    witness = IrregularityWitness(
        BoundedFunction("rows", f), BoundedFunction("cols", g), "rows", value
    )
    ext = extract_minor(m, witness, 0.05)
    block = m.entries[np.ix_(ext.row_positions, ext.col_positions)]
    recomputed = float(np.mean(np.abs(block.mean(axis=0))))
    assert recomputed == pytest.approx(ext.new_mean, abs=1e-12)
    assert abs(complex(m.entries.mean())) == pytest.approx(ext.old_mean, abs=1e-12)


def test_extract_rejects_weak_witness():
    m = planted_matrix(0)
    f, g = planted_witness()
    witness = IrregularityWitness(
        BoundedFunction("rows", f), BoundedFunction("cols", g), "rows", 0.0
    )
    with pytest.raises(ValueError, match="below"):
        extract_minor(m, witness, 0.3)


def test_extract_on_example_set_matrix():
    bundle = example_counterexample(2)
    t = dft(bundle.members)
    m = build_matrix(bundle.members, spectrum(t, 0.4), t)
    verdict = decide_regularity(m, 0.01, seed=0)
    assert verdict.status == "irregular"
    ext = extract_minor(m, verdict.witness, 0.01)
    assert ext.improvement > 0.0
    # the quadrant is given by distinct, sorted positions inside the matrix
    for positions, n in ((ext.row_positions, m.n_rows), (ext.col_positions, m.n_cols)):
        assert positions.size >= 1 and np.all(np.diff(positions) > 0)
        assert 0 <= positions[0] and positions[-1] < n
    assert ext.row_fraction == ext.row_positions.size / m.n_rows
    assert ext.col_fraction == ext.col_positions.size / m.n_cols
    # and its mean is the recomputed coherence mean of those rows and columns
    block = m.entries[np.ix_(ext.row_positions, ext.col_positions)]
    assert ext.new_mean == pytest.approx(np.mean(np.abs(block.mean(axis=0))), abs=1e-12)


def _loop_pick(entries, row_pieces, col_pieces):
    """The double loop over piece pairs that _best_piece_pair replaced (first strict maximum)."""
    rho_c = complex(entries.mean())
    rho = abs(rho_c)
    phase = np.conj(rho_c) / rho if rho > 0 else 1.0
    best_sum = -1.0
    pick = (0, 0)
    for i, rp in enumerate(row_pieces):
        sums_along = entries[rp].sum(axis=0)
        for j, cp in enumerate(col_pieces):
            raw = phase * complex(sums_along[cp].sum()) - rho * rp.size * cp.size
            if abs(raw) > best_sum:
                best_sum = abs(raw)
                pick = (i, j)
    return pick


@pytest.mark.parametrize("shape", [(16, 16), (7, 40), (40, 7), (60, 60), (7, 2155)])
def test_piece_pair_matches_the_double_loop(shape):
    entries = _unit_matrix(shape)
    m = CoherenceMatrix(entries)
    value, f, g, side = _alternating_search(entries, 5)
    witness = IrregularityWitness(BoundedFunction("rows", f), BoundedFunction("cols", g), side, value)
    f_step = step_approximate(witness.f, value / 8)
    g_step = step_approximate(witness.g, value / 8)
    _assert_same_pieces(f_step.pieces, _loop_build_pieces(witness.f.values, f_step.r))
    _assert_same_pieces(g_step.pieces, _loop_build_pieces(witness.g.values, g_step.r))
    rows = [p for p, _ in f_step.pieces]
    cols = [p for p, _ in g_step.pieces]
    if shape == (7, 2155):
        assert len(cols) >= 200
    i, j = _best_piece_pair(entries, complex(entries.mean()), rows, cols)
    assert (i, j) == _loop_pick(entries, rows, cols)
    ext = extract_minor(m, witness, value)
    row_piece, col_piece = ext.quadrant.split("/")
    want_rows = rows[i] if row_piece == "piece" else np.setdiff1d(np.arange(shape[0]), rows[i])
    want_cols = cols[j] if col_piece == "piece" else np.setdiff1d(np.arange(shape[1]), cols[j])
    assert np.array_equal(ext.row_positions, want_rows)
    assert np.array_equal(ext.col_positions, want_cols)


def test_tied_piece_pairs_go_to_the_first_in_row_major_order():
    # a symmetric matrix with a planted block at pieces (0, 2) and its
    # transpose at (2, 0): the two pair sums are the same numbers added in
    # another order, tied in exact arithmetic; with this seed the later pair
    # rounds higher, so the old strict maximum took (2, 0) and (3, 1)
    rng = np.random.default_rng(5)
    angles = rng.random((20, 20))
    block = 0.05 * rng.random((5, 5))
    angles[0:5, 10:15] = block
    angles[10:15, 0:5] = block.T
    entries = np.exp(2j * np.pi * (angles + angles.T) / 2)
    pieces = [np.arange(s, s + 5) for s in range(0, 20, 5)]
    assert _best_piece_pair(entries, complex(entries.mean()), pieces, pieces) == (0, 2)
    flipped = entries[::-1, ::-1]  # now the block pairs are (1, 3) and (3, 1)
    assert _best_piece_pair(flipped, complex(flipped.mean()), pieces, pieces) == (1, 3)
