import decimal
import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frobenius_bound, spectral_certificate_one_shot, step_values
from specdbl.coherence import CoherenceMatrix, build_matrix
from specdbl.diagnostics import example_counterexample
from specdbl.fourier import FourierTable, dft, spectrum
from specdbl.groups import (ElementSet, FiniteAbelianGroup, convolve_counts, random_subset,
                            subgroup_span)
from specdbl import coherence, groups, refine, regularity
from specdbl.regularity import (
    WITNESS_BUDGET,
    IrregularityWitness,
    _best_piece_pair,
    _build_pieces,
    _row_piece_sums,
    _complement,
    _step_pieces,
    brute_force_max,
    decide_regularity,
    extract_minor,
    spectral_certificate,
)


def block_sign_matrix(half=2):
    s = np.concatenate([np.ones(half), -np.ones(half)])
    return CoherenceMatrix(np.outer(s, s))


def run_search(entries, seed, stop=math.inf):
    """The witness search as decide_regularity runs it, with max|M| as CoherenceMatrix keeps it,
    by default to the end."""
    return regularity._alternating_search(entries, seed, float(np.abs(entries).max()), stop)


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


def _pure_2_group_matrix(k=8, size=100, level=0.08):
    a = random_subset(FiniteAbelianGroup([2] * k), size, seed=k)
    t = dft(a)
    return build_matrix(a, spectrum(t, level), t).entries


def _example_matrix(n, level=0.4):
    """The matrix of example_counterexample(n) against its spectrum: the +-1 bound is its sup."""
    members = example_counterexample(n).members
    t = dft(members)
    return build_matrix(members, spectrum(t, level), t).entries


# ---------------------------------------------------------------- step functions


def test_step_constant_function_single_piece():
    values = np.full(10, 0.7 + 0.0j)
    pieces = _step_pieces(values, 0.1)
    positions, starts, keys, r = pieces
    assert starts.tolist() == [0] and positions.tolist() == list(range(10))
    assert np.max(np.abs(step_values(10, *pieces) - values)) <= 0.1
    # band 69 holds (0.69, 0.7], and angle 0 is the top of the last sector
    assert r == 100 and keys.tolist() == [69 * 100 + 99]


def test_step_pointwise_error_and_count_sweep():
    rng = np.random.default_rng(12)
    for eta in [0.05, 0.1, 0.2, 0.33, 0.5, 0.77, 1.0]:
        for n in [1, 7, 200]:
            mags = rng.random(n)
            vals = mags * np.exp(2j * np.pi * rng.random(n))
            pieces = _step_pieces(vals, eta)
            assert np.max(np.abs(step_values(n, *pieces) - vals)) <= eta + 1e-12
            assert pieces[1].size <= 100.0 / eta**2
    # one value at the centre of each of the 11 x 12 cells of r = ceil(10/0.9)
    # = 12: 132 pieces pass 100/0.9^2, so the grid is rebuilt at r = 11
    mags = (np.arange(1, 12) + 0.5) / 12
    phases = 2 * np.pi * (np.arange(12) + 0.5) / 12
    vals = (mags[:, None] * np.exp(1j * phases[None, :])).ravel()
    pieces = _step_pieces(vals, 0.9)
    assert (pieces[3], pieces[1].size) == (11, 110)
    assert np.max(np.abs(step_values(vals.size, *pieces) - vals)) == pytest.approx(0.507, abs=1e-3)


def test_step_boundary_magnitudes():
    # values sitting exactly on grid boundaries, including 0 and 1
    vals = np.array([0.0, 1.0, 0.5, -0.5, 1j, -1j, 0.1, -0.1])
    pieces = _step_pieces(vals, 0.1)
    assert np.max(np.abs(step_values(vals.size, *pieces) - vals)) <= 0.1
    # the exact zero keeps no piece
    assert sorted(pieces[0].tolist()) == list(range(1, vals.size))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_step_property(values, eta):
    vals = np.asarray(values, dtype=complex)
    pieces = _step_pieces(vals, eta)
    assert np.max(np.abs(step_values(vals.size, *pieces) - vals)) <= eta + 1e-12
    assert pieces[1].size <= 100.0 / eta**2


def test_step_rejects_bad_eta():
    for eta in [0.0, -0.1, 1.5]:
        with pytest.raises(ValueError):
            _step_pieces(np.ones(3, dtype=complex), eta)


def _snapped(x):
    """x, or the integer within 1e-9 of it: a grid coordinate on an edge up to rounding."""
    return float(round(x)) if abs(x - round(x)) <= 1e-9 else x


def _loop_build_pieces(values, r):
    """The per-key loop that _build_pieces replaced, one value at a time with the
    edge rule: oracle for its runs, their order and their keys."""
    j = np.array([min(math.ceil(_snapped(abs(v) * r)) - 1, r - 1) for v in values], dtype=np.int64)
    sectors = [_snapped(np.angle(v) * r / (2 * np.pi)) for v in values]
    k = np.array([min(max(math.ceil(x if x > 0 else x + r) - 1, 0), r - 1) for x in sectors],
                 dtype=np.int64)
    live = np.flatnonzero(j >= 1)
    keys = j[live] * r + k[live]
    positions, starts, run_keys = [], [], []
    for key in sorted(set(keys.tolist())):
        starts.append(len(positions))
        run_keys.append(key)
        positions.extend(live[keys == key].tolist())
    return positions, starts, run_keys


def _assert_same_pieces(pieces, expected):
    # positions, run starts and keys, exactly
    assert [x.tolist() for x in pieces[:3]] == list(expected)


def test_build_pieces_matches_the_loop():
    rng = np.random.default_rng(17)
    boundary = np.array([0.0, 1.0, 0.5, -0.5, 1j, -1j, 0.1, -0.1, -1 + 1.2e-16j, 1 - 1e-17j])
    for n, r in [(1, 10), (40, 13), (500, 100), (2155, 800)]:
        values = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        values[: min(n, boundary.size)] = boundary[: min(n, boundary.size)]
        _assert_same_pieces(_build_pieces(values, r), _loop_build_pieces(values, r))
    assert [x.size for x in _build_pieces(np.zeros(5, dtype=complex), 10)] == [0, 0, 0]


@pytest.mark.parametrize("r", [10, 13, 800])
def test_build_pieces_puts_rounding_noise_on_the_edge(r):
    # +1 lies on the edge between the last sector and sector 0; its two
    # rounded neighbours used to land on either side of it
    for value in (1.0 + 0j, 1 + 1e-17j, 1 - 1e-17j):
        positions, starts, keys = _build_pieces(np.array([value]), r)
        assert (positions.tolist(), starts.tolist()) == ([0], [0])
        assert keys.tolist() == [(r - 1) * r + r - 1]  # the top band, the last sector
    # the same on an inner sector edge and on a magnitude level: the lower
    # band and sector, key 3 r + 2
    level, edge = 4 / r, np.exp(2j * np.pi * 3 / r)
    for value in (level * edge, level * edge * np.exp(1e-15j), level * edge * np.exp(-1e-15j),
                  (level + 1e-16) * edge, (level - 1e-16) * edge):
        assert _build_pieces(np.array([value]), r)[2].tolist() == [3 * r + 2]


# ---------------------------------------------------------------- certificate


def test_certificate_all_ones_regular():
    m = CoherenceMatrix(np.ones((5, 7), dtype=complex))
    upper, certified = spectral_certificate(m, 1e-4)
    assert upper < 1e-12
    assert certified


def test_certificate_block_sign_upper_is_one():
    m = block_sign_matrix()
    upper, certified = spectral_certificate(m, 0.5)
    assert upper == 1.0  # every column and every row sums to 0
    assert not certified
    # never certifies any lambda below 1
    assert not spectral_certificate(m, 0.999)[1]
    # a real matrix must hold exact signs, so the largest modulus that
    # CoherenceMatrix admits comes complex; there the column and row means
    # are 0, so no centre lowers the bound, and it comes closest to the ceiling
    wide = np.kron(m.entries, np.ones((64, 64))) * (1 + 0.9e-9)
    with pytest.raises(AssertionError, match="exactly when real"):
        CoherenceMatrix(wide)
    widest = CoherenceMatrix(wide.astype(complex))
    assert 1.0 < spectral_certificate(widest, 0.5)[0] <= regularity._BOUND_CEILING


def test_certificate_matches_the_one_shot_bound():
    # both sides read from the kept sums (their modulus on +-1, sums over
    # the count as the centre on complex) give the same float as the sums
    # and means taken from the entries; the last shapes span several row
    # blocks of the modulus check, or one row a block
    rng = np.random.default_rng(23)
    shapes = [tuple(int(x) for x in rng.integers(1, 120, size=2)) for _ in range(40)]
    for shape in shapes + [(400, 300), (2, coherence._BLOCK_CELLS + 3)]:
        signs = np.outer(rng.choice([-1.0, 1.0], shape[0]), rng.choice([-1.0, 1.0], shape[1]))
        signs[rng.random(shape) < rng.uniform(0.0, 0.5)] *= -1.0
        phases = np.exp(2j * np.pi * (np.add.outer(rng.random(shape[0]), rng.random(shape[1]))
                                      + rng.uniform(0.0, 0.5) * rng.random(shape)))
        for entries in (signs, phases):
            upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
            assert upper == spectral_certificate_one_shot(entries)


def _svd_pair_value(entries):
    """|f^T M g| / (rows cols) at the top singular pair of the column-centred
    matrix, scaled into the sup-norm ball: a value the sup reaches.  The left
    vector lies in the range of the centred matrix, so f sums to zero."""
    centred = entries - entries.mean(axis=0, keepdims=True)
    u, s, vh = np.linalg.svd(centred)
    if s[0] <= 1e-9:
        return 0.0
    f = np.conj(u[:, 0]) / np.max(np.abs(u[:, 0]))
    g = np.conj(vh[0]) / np.max(np.abs(vh[0]))
    assert abs(f.sum()) <= 1e-9 * f.size
    return abs(complex(f @ entries @ g)) / entries.size


def _unit_matrix(shape):
    return np.exp(2j * np.pi * np.random.default_rng([41, *shape]).random(shape))


def _real_sign_matrix(shape=(30, 50)):
    return np.random.default_rng([43, *shape]).choice([-1.0, 1.0], size=shape)


def _sign_matrix(shape=(30, 50)):
    return _real_sign_matrix(shape).astype(complex)


def _noisy(entries):
    # +-1 entries with imaginary rounding noise, as a complex computation of them leaves
    return entries + 1e-16j * np.random.default_rng(47).standard_normal(entries.shape)


@pytest.mark.parametrize("entries", [
    *(_unit_matrix(shape) for shape in [(1, 12), (12, 1), (7, 40), (40, 7), (60, 60)]),
    _sign_matrix(), _sign_matrix((50, 30)), _noisy(_sign_matrix()), _noisy(_sign_matrix((50, 30))),
    np.ones((5, 7), dtype=complex), block_sign_matrix().entries,
    _real_sign_matrix(), _real_sign_matrix((50, 30)), np.ones((5, 7)),
], ids=["unit-1x12", "unit-12x1", "unit-7x40", "unit-40x7", "unit-60x60",
        "sign-30x50", "sign-50x30", "noisy-sign-30x50", "noisy-sign-50x30", "ones", "block-sign",
        "real-sign-30x50", "real-sign-50x30", "real-ones"])
def test_certificate_is_sound_against_svd(entries):
    # never below a value the sup reaches (the centred matrix's top singular
    # pair, the search's pair), never above the Frobenius bound it replaced
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    reached = max(_svd_pair_value(entries), run_search(entries, 0)[0])
    assert reached <= upper + 1e-12
    assert upper <= frobenius_bound(entries) + 1e-12


def _sign_bound_fraction(entries):
    """The +-1 bound in exact arithmetic: each column (row) about its best sign."""
    signs = entries.astype(int).tolist()

    def side(lines):
        return sum(min(sum(abs(x - u) for x in line) for u in (-1, 1)) for line in lines)

    return Fraction(max(side(zip(*signs)), side(signs)), entries.size)


@pytest.mark.parametrize("entries", [
    _real_sign_matrix((1, 1)), _real_sign_matrix((3, 4)), _real_sign_matrix(),
    _real_sign_matrix((50, 30)), _real_sign_matrix((257, 3)), _real_sign_matrix((7, 1000)),
    np.ones((5, 7)), block_sign_matrix().entries, _pure_2_group_matrix(),
], ids=["sign-1x1", "sign-3x4", "sign-30x50", "sign-50x30", "sign-257x3", "sign-7x1000",
        "ones", "block-sign", "z2-8"])
def test_sign_bound_is_the_exact_ratio_rounded_up(entries):
    m = CoherenceMatrix(entries)
    upper, _ = spectral_certificate(m, 1.0)
    exact = _sign_bound_fraction(entries)
    assert Fraction(math.nextafter(upper, -math.inf)) < exact <= Fraction(upper)
    # the majority sign is the median, never worse than the mean, the complex path's centre
    assert upper <= spectral_certificate(CoherenceMatrix(entries.astype(complex)), 1.0)[0]


def _rank_one_noise(shape):
    # phases a_i + b_j plus noise of 0.05 turns: a dominant top singular value
    rng = np.random.default_rng([53, *shape])
    angles = rng.random(shape[0])[:, None] + rng.random(shape[1]) + 0.05 * rng.random(shape)
    return np.exp(2j * np.pi * angles)


def _l1_side_exact(entries, centre):
    """sum_ij |M_ij - centre| in decimal at 40 digits, from the float entries
    and the float centre as they stand (a float converts exactly, and each
    difference, square, root and partial sum is off by 1e-40 relative)."""
    with decimal.localcontext(decimal.Context(prec=40)):
        total = Decimal(0)
        for z, u in zip(entries.ravel().tolist(), np.broadcast_to(centre, entries.shape).ravel().tolist()):
            dr = Decimal(z.real) - Decimal(u.real)
            di = Decimal(z.imag) - Decimal(u.imag)
            total += (dr * dr + di * di).sqrt()
        return total


def _near_constant_columns(shape):
    # each column one phase to within 1e-12 turns: every |M_ij - u_j| is a
    # cancellation of nearly equal floats
    rng = np.random.default_rng([59, *shape])
    return np.exp(2j * np.pi * (rng.random(shape[1]) + 1e-12 * rng.random(shape)))


def _cancelling_columns(shape):
    # each column all the rows-th roots of unity, turned: column means of
    # rounding size, and a row of near-equal phases where one column shifts
    rng = np.random.default_rng([61, *shape])
    turns = np.arange(shape[0])[:, None] / shape[0] + rng.random(shape[1])
    return np.exp(2j * np.pi * (turns + 1e-13 * rng.random(shape)))


@pytest.mark.parametrize("entries", [
    *(_unit_matrix(shape) for shape in [(1, 12), (12, 1), (7, 40), (40, 7), (60, 60)]),
    _rank_one_noise((50, 30)), _noisy(_sign_matrix()), np.ones((5, 7), dtype=complex),
    _near_constant_columns((30, 50)), _near_constant_columns((50, 30)),
    _cancelling_columns((64, 48)), _cancelling_columns((48, 64)),
    _near_constant_columns((512, 128)), _cancelling_columns((128, 512)),
], ids=["unit-1x12", "unit-12x1", "unit-7x40", "unit-40x7", "unit-60x60", "rank-one-50x30",
        "noisy-sign-30x50", "ones", "near-constant-30x50", "near-constant-50x30",
        "cancelling-64x48", "cancelling-48x64", "near-constant-512x128", "cancelling-128x512"])
def test_complex_bound_is_at_least_the_exact_sum(entries):
    # the computed bound against sum |M_ij - u_j| over n in exact arithmetic,
    # each side about the centres the certificate takes; the largest cases
    # are 2^16 entries, where the factor 1 + 2 (n + 5) u is widest at test
    # scale; and the factor is not slack: the bound is within 4 (n + 5) u of it
    m = CoherenceMatrix(entries)
    upper, _ = spectral_certificate(m, 1.0)
    rows, cols = entries.shape
    n = rows * cols
    exact = max(_l1_side_exact(entries, m.col_sums / rows),
                _l1_side_exact(entries, (m._row_sums / cols)[:, None])) / n
    assert Decimal(upper) >= exact
    assert Decimal(upper) <= exact * (1 + Decimal(4 * (n + 5)) * Decimal(regularity._UNIT))


def _counting(owner, name):
    """A patch of owner.name that records the first argument of every call."""
    calls, real = [], getattr(owner, name)

    def counted(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    return mock.patch.object(owner, name, counted), calls


def _linalg_calls():
    """A patch of every function in np.linalg that records the name of each call."""
    calls = []

    def recording(name, real):
        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return recorded

    functions = {name: getattr(np.linalg, name) for name in np.linalg.__all__}
    patches = {name: recording(name, fn) for name, fn in functions.items()
               if callable(fn) and not isinstance(fn, type)}
    return mock.patch.multiple(np.linalg, **patches), calls


LARGE = {
    "sign-256x300": _sign_matrix((256, 300)),
    "sign-300x256": _sign_matrix((300, 256)),
    "real-sign-256x300": _real_sign_matrix((256, 300)),
    "noisy-sign-256x300": _noisy(_sign_matrix((256, 300))),
    "unit-256x256": _unit_matrix((256, 256)),
    "unit-400x256": _unit_matrix((400, 256)),
    "rank-one-noise-300x260": _rank_one_noise((300, 260)),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_certificate_is_sound_and_tight(name):
    # sides of 256 and more: never below the top singular pair's value,
    # never above the Frobenius bound, and below the ceiling
    entries = LARGE[name]
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    assert _svd_pair_value(entries) <= upper <= frobenius_bound(entries) + 1e-12
    assert upper <= regularity._BOUND_CEILING


@pytest.mark.parametrize("name", ["sign-256x300", "unit-400x256", "rank-one-noise-300x260"])
def test_large_certificate_around_lambda(name):
    m = CoherenceMatrix(LARGE[name])
    upper, _ = spectral_certificate(m, 1.0)
    # at the search value or at the bound: never certified
    assert not spectral_certificate(m, run_search(m.entries, 0)[0])[1]
    assert not spectral_certificate(m, upper)[1]
    # just above the bound, and below the Frobenius bound: certified, and
    # decide_regularity gets there with its one certificate call
    lam = upper * (1 + 1e-9)
    assert lam < frobenius_bound(m.entries)
    assert spectral_certificate(m, lam)[1]
    patch, calls = _counting(regularity, "spectral_certificate")
    with patch:
        verdict = decide_regularity(m, lam)
    assert verdict.status == "regular"
    assert calls == [m]
    assert verdict.upper_bound == spectral_certificate(m, lam)[0]


def test_search_value_within_the_witness_slack_is_a_witness():
    # the block sign pattern times [[1, 1], [1, -1]]: flat top singular
    # vectors that the search reaches, at 1/sqrt(2), against a certificate
    # bound of 1.  With lambda 5e-13 relative above the search value, that
    # value lies in the witness test's slack; the certificate has failed,
    # so the value is a witness.
    m = CoherenceMatrix(np.kron(block_sign_matrix().entries, [[1, 1], [1, -1]]))
    value = run_search(m.entries, 0)[0]
    lam = value * (1 + 5e-13)
    assert lam * (1 - 1e-12) <= value < lam
    upper, certified = spectral_certificate(m, lam)
    assert upper == pytest.approx(1.0) and not certified
    verdict = decide_regularity(m, lam)
    assert verdict.status == "irregular"
    assert verdict.witness.value == verdict.lower_bound == value
    assert verdict.upper_bound == upper


def test_large_all_ones_takes_the_fast_path():
    # the centred matrix is exactly 0, so both bounds are rounding terms
    m = CoherenceMatrix(np.ones((256, 300), dtype=complex))
    upper, certified = spectral_certificate(m, 1e-4)
    assert upper < 1e-12
    assert certified


def test_certify_run_makes_one_certificate_call_per_decision():
    # the certify workload's run on example_counterexample(9): its 1023x1023
    # matrix is irregular and its 511x512 finishing matrix regular; each
    # decision makes one certificate call and no np.linalg call
    matrices, verdicts = [], []

    def recorded(m, lam, seed=0):
        verdict = decide_regularity(m, lam, seed)
        matrices.append(m)
        verdicts.append(verdict)
        return verdict

    bundle = example_counterexample(9)
    certificates, certificate_calls = _counting(regularity, "spectral_certificate")
    linalg, linalg_calls = _linalg_calls()
    with certificates, linalg, mock.patch.object(refine, "decide_regularity", recorded):
        result = refine.refine_theorem1(bundle.members, refine.RefineConfig(0.4, 0.3))
    assert [(m.entries.shape, v.status) for m, v in zip(matrices, verdicts)] == [
        ((1023, 1023), "irregular"), ((511, 512), "regular")]
    assert result.certified
    assert certificate_calls == matrices and linalg_calls == []
    # on the large matrix the +-1 bound is 1/2 - 1/(2 1023^2), rounded up,
    # below the Frobenius bound, and the search stops at it: the witness is
    # a restart within the tie rule of one that came within the tie rule of it
    upper = verdicts[0].upper_bound
    assert Fraction(math.nextafter(upper, -math.inf)) < Fraction(1023**2 - 1, 2 * 1023**2) <= upper
    assert upper < frobenius_bound(matrices[0].entries)
    assert upper * (1 - 1e-9) ** 2 <= verdicts[0].lower_bound <= upper + 1e-12


def test_certificate_dominates_brute_force():
    rng = np.random.default_rng(5)
    cases = [(np.exp(2j * np.pi * rng.random((4, 4))), 4) for _ in range(10)]
    # +-1 and Z_3 phases, on grids of roots of unity that hold their own phases
    cases += [(rng.choice([-1.0, 1.0], size=(3, 4)), 4) for _ in range(8)]
    cases += [(np.exp(2j * np.pi * rng.integers(0, 3, size=(3, 4)) / 3), 6) for _ in range(8)]
    for entries, r in cases:
        m = CoherenceMatrix(entries)
        upper, _ = spectral_certificate(m, 1.0)
        for side in ("rows", "cols"):
            value, _, _ = brute_force_max(m, r, side)
            assert value <= upper + 1e-9


# ---------------------------------------------------------------- witnesses


def test_witness_block_sign():
    m = block_sign_matrix()
    verdict = decide_regularity(m, 0.5, seed=1)
    assert verdict.status == "irregular"
    w = verdict.witness
    assert w.value >= 0.5
    recomputed = abs(w.f @ m.entries @ w.g) / m.entries.size
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
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.g, b.g)
    assert a.value == b.value


def test_witness_validation():
    f = np.array([1.0, 1.0])
    g = np.array([1.0, -1.0])
    with pytest.raises(ValueError):
        IrregularityWitness(f, g, "rows", 0.5)  # rows side does not sum to zero
    w = IrregularityWitness(f, g, "cols", 0.5)
    assert w.constrained_side == "cols"


def _table_with_nan(members, at):
    coeffs = dft(members).coeffs.copy()
    coeffs[at] = math.nan
    return lambda: FourierTable(members.group, coeffs, members.size)


def _plane_in_z2_4():
    return subgroup_span(FiniteAbelianGroup((2,) * 4), [(1, 0, 0, 0)])


def _table_with_nan_negation(monkeypatch):
    # every coefficient finite, so only the symmetry check sees the NaN
    monkeypatch.setattr(FiniteAbelianGroup, "negate", lambda self, c: np.full_like(c, math.nan))
    members = random_subset(FiniteAbelianGroup((3, 3)), 4, seed=0)
    return lambda: FourierTable(members.group, dft(members).coeffs, members.size)


def _convolution_with_nan(monkeypatch):
    inverse = groups._inverse_transform

    def with_nan(group, y):
        raw = inverse(group, y)
        raw.flat[1] = math.nan
        return raw

    monkeypatch.setattr(groups, "_inverse_transform", with_nan)
    members = random_subset(FiniteAbelianGroup((3, 3)), 4, seed=0)
    return lambda: convolve_counts(members, members)


def _matrix_with_nan_column_sum(monkeypatch):
    def with_nan(entries):
        m = CoherenceMatrix(entries)
        m.col_sums = np.where(np.arange(m.col_sums.size) == 0, math.nan, m.col_sums)
        return m

    monkeypatch.setattr(coherence, "CoherenceMatrix", with_nan)
    members = _plane_in_z2_4()
    table = dft(members)
    return lambda: build_matrix(members, spectrum(table, 0.4), table)


@pytest.mark.parametrize("make,error,needle", [
    (lambda mp: _table_with_nan(_plane_in_z2_4(), 0), AssertionError, "coefficient at 0"),
    (lambda mp: _table_with_nan(_plane_in_z2_4(), 3), AssertionError, "Parseval"),
    (lambda mp: _table_with_nan(random_subset(FiniteAbelianGroup((3, 3)), 4, seed=0), 3),
     AssertionError, "Parseval"),
    (_table_with_nan_negation, AssertionError, "conjugate symmetry"),
    (lambda mp: lambda: IrregularityWitness(np.array([1.0, -1.0]), np.ones(2), "rows", math.nan),
     ValueError, "witness value"),
    (lambda mp: lambda: regularity.RegularityVerdict("undetermined", 0.1, 0.5, None, math.nan),
     AssertionError, "sandwich"),
    (lambda mp: lambda: decide_regularity(CoherenceMatrix(np.ones((2, 2))), math.nan),
     ValueError, "lambda"),
    (_convolution_with_nan, AssertionError, "residue"),
    (_matrix_with_nan_column_sum, AssertionError, "column sums"),
], ids=["table-coefficient-at-0", "table-parseval-real", "table-parseval-complex",
        "table-symmetry", "witness-value", "verdict-sandwich", "decide-lambda",
        "convolution-residue", "matrix-column-sums"])
def test_tolerance_checks_reject_nan(monkeypatch, make, error, needle):
    # each check is written `not err <= tol`, since `err > tol` is false for NaN
    build = make(monkeypatch)
    with pytest.raises(error, match=needle):
        build()


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


def relative_climb(value, prev):
    """The search's climb rule: a restart leaves once an iteration raises its
    value by at most 1e-4 relative."""
    return value <= prev * (1 + 1e-4)


def absolute_climb(value, prev):
    """The climb rule the relative one replaced: leave once an iteration
    raises the value by at most 1e-12."""
    return value <= prev + 1e-12


def reference_search(entries, seed, iterations=None, stop=math.inf, leaves=relative_climb,
                     cap=WITNESS_BUDGET[1]):
    """One restart at a time with three products per step: the oracle for the block search.

    Restart 0 of each side starts from g = 1, the others from the random
    phases of one generator draw for both sides; a restart leaves when
    leaves(value, previous value) holds or it has run cap iterations.  Every
    restart ends at the first iteration at which any restart's value reaches
    stop, and the pick is then the first restart, rows 0..7 then cols 0..7,
    whose value reached it; when none did, the tie rule picks.  When given a
    list, iterations gets (side, iterations run) for each restart."""
    restarts = WITNESS_BUDGET[0]
    nr, nc = entries.shape
    entry = np.max(np.abs(entries))
    phases = np.random.default_rng(seed).random((2, restarts - 1, nc))
    runs = []  # each restart's (value, f, g, side) after each of its iterations
    for side_idx, side in enumerate(("rows", "cols")):
        for restart in range(restarts):
            if restart == 0:
                g = np.ones(nc, dtype=complex)
            else:
                g = np.exp(2j * np.pi * phases[side_idx, restart - 1])
            prev = -1.0
            run = []
            for _ in range(cap):
                f = _reference_phase(entries, g, entry)
                if side == "rows":
                    f = _reference_centre(f)
                g = _reference_phase(entries.T, f, entry)
                if side == "cols":
                    g = _reference_centre(g)
                value = abs(complex(f @ entries @ g)) / (nr * nc)
                run.append((value, f, g, side))
                if leaves(value, prev):
                    break
                prev = value
            runs.append(run)
    end = min((t for run in runs for t, c in enumerate(run) if c[0] >= stop), default=cap)
    found = [run[min(end, len(run) - 1)] for run in runs]
    if iterations is not None:
        iterations.extend((c[3], min(end, len(run) - 1) + 1) for c, run in zip(found, runs))
    reached = [c for c in found if c[0] >= stop]
    if reached:
        return reached[0]
    top = max(c[0] for c in found)
    return next(c for c in found if c[0] >= top * (1 - 1e-9))  # the tie rule


def _pair_matrix():
    # the matrix of a 2-element set: its rows are conjugate and, the spectrum
    # being closed under negation, both row sums are real, so the centred
    # phases of the first rows restart cancel to rounding noise, and only
    # the zero rule keeps the phase of that noise out of the search
    a = ElementSet.from_indices(FiniteAbelianGroup([13, 13, 13]), np.array([5, 1000]))
    t = dft(a)
    return build_matrix(a, spectrum(t, 0.1), t).entries


_SEQUENTIAL_CASES = pytest.mark.parametrize("entries", [
    *(_unit_matrix(shape) for shape in [(3, 40), (40, 3), (60, 60), (5, 600), (300, 50)]),
    _noisy(_sign_matrix((50, 30))), _noisy(_sign_matrix((2, 165))), block_sign_matrix().entries,
    _pair_matrix(),
], ids=["unit-3x40", "unit-40x3", "unit-60x60", "unit-5x600", "unit-300x50", "noisy-sign-50x30",
        "noisy-sign-2x165", "block-sign", "pair-set"])


@_SEQUENTIAL_CASES
def test_block_search_matches_the_sequential_reference(entries):
    for seed in (0, 3):
        _assert_same_search(run_search(entries, seed), reference_search(entries, seed))


@_SEQUENTIAL_CASES
def test_relative_climb_stop_costs_at_most_a_thousandth(entries):
    # from the same starts, climbing on until an iteration gains at most
    # 1e-12 finds little more than the relative stop does
    for seed in (0, 3):
        full = reference_search(entries, seed, leaves=absolute_climb)[0]
        assert run_search(entries, seed)[0] >= (1 - 1e-3) * full


@_SEQUENTIAL_CASES
def test_iteration_cap_costs_at_most_a_twentieth(entries):
    # from the same starts, running each restart up to 60 iterations in
    # place of the cap finds little more than the capped search does
    assert WITNESS_BUDGET[1] < 60
    for seed in (0, 3):
        uncapped = reference_search(entries, seed, cap=60)[0]
        assert run_search(entries, seed)[0] >= 0.95 * uncapped


@pytest.mark.parametrize("n", [4, 9])
def test_search_on_example1_ends_before_the_cap(n):
    # certify's searches: on the example1 matrix against its spectrum every
    # restart leaves before the cap, so the cap does not bind there; the
    # search for n = 9 (certify's size) leaves at the certificate's bound,
    # the one for n = 4 by the climb rule, within 1e-6 of it
    entries = _example_matrix(n)
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    stop = upper * (1 - 1e-9)
    for seed in (0, 3):
        patch, phases = _counting(regularity, "_phase_of")
        with patch:
            value = run_search(entries, seed, stop)[0]
        assert len(phases) // 2 < WITNESS_BUDGET[1]  # two phase maps per block iteration
        assert value >= (stop if n == 9 else upper * (1 - 1e-6))


def test_search_draws_all_starts_from_one_generator():
    entries = _unit_matrix((60, 60))
    patch, seeds = _counting(np.random, "default_rng")
    with patch:
        run_search(entries, 3)
    assert seeds == [3]


@pytest.mark.parametrize("entries", [
    _unit_matrix((60, 60)), _unit_matrix((5, 600)), _noisy(_sign_matrix((50, 30))),
    _pure_2_group_matrix(), _real_sign_matrix((40, 3)), _example_matrix(4),
], ids=["unit-60x60", "unit-5x600", "noisy-sign-50x30", "z2-8", "sign-40x3", "example1-n4"])
def test_block_search_stops_each_restart_as_the_reference_does(entries):
    # stops at the certificate's bound, where decide_regularity puts it (only
    # example1's matrix reaches it), and halfway between the best value after
    # one iteration and the last one: in both forms every restart ends at the
    # first iteration at which any restart's value reaches the stop, and the
    # pick is the first restart that reached it
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    for seed in (0, 3):
        full = []
        last = reference_search(entries, seed, full)[0]
        first = reference_search(entries, seed, stop=0.0)[0]
        assert first < last
        for stop in (upper * (1 - 1e-9), (first + last) / 2):
            cut = []
            want = reference_search(entries, seed, cut, stop)
            _assert_same_search(run_search(entries, seed, stop), want)
            if stop < last:
                assert want[0] >= stop
                assert sum(n for _, n in cut) < sum(n for _, n in full)


def test_search_on_certifys_matrix_ends_when_one_restart_reaches_the_bound():
    # certify's step-0 matrix: the block ends at the first iteration at which
    # any restart reaches the stop, two phase maps per iteration, and the pick
    # is the first restart that reached it, not the tie rule's, which may sit
    # within 1e-9 below the stop
    entries = _example_matrix(9)
    upper, _ = spectral_certificate(CoherenceMatrix(entries), 1.0)
    stop = upper * (1 - 1e-9)
    for seed in (0, 3):
        iterations, uncut = [], []
        want = reference_search(entries, seed, iterations, stop)
        reference_search(entries, seed, uncut)
        end = max(n for _, n in iterations)
        assert end < max(n for _, n in uncut)
        patch, phases = _counting(regularity, "_phase_of")
        with patch:
            got = run_search(entries, seed, stop)
        assert len(phases) == 2 * end
        _assert_same_search(got, want)
        assert got[0] >= stop


def _assert_same_search(got, want):
    value, f, g, side = got
    want_value, want_f, want_g, want_side = want
    assert side == want_side
    assert value == pytest.approx(want_value, rel=1e-12)
    assert np.max(np.abs(f - want_f)) <= 1e-9
    assert np.max(np.abs(g - want_g)) <= 1e-9


@pytest.mark.parametrize("entries, first", [
    (_noisy(_sign_matrix((4, 10))), "rows"), (_noisy(_sign_matrix((10, 4))), "cols"),
], ids=["rows-side-leaves-first", "cols-side-leaves-first"])
def test_block_search_after_one_side_has_left(entries, first):
    # once every restart of one side has left the block, the other side's
    # restarts run on alone, and the empty side is not centred: the block
    # centres the rows side for as many iterations as its longest restart
    # runs, and likewise the cols side
    project = regularity._project_centered
    rows_centred = []

    def centre(values):
        rows_centred.append(values.shape[0])
        project(values)

    for seed in (0, 3):
        iterations = []
        want = reference_search(entries, seed, iterations)
        last = {side: max(n for s, n in iterations if s == side) for side in ("rows", "cols")}
        assert last[first] < max(last.values())
        rows_centred.clear()
        with mock.patch.object(regularity, "_project_centered", centre):
            got = run_search(entries, seed)
        _assert_same_search(got, want)
        assert len(rows_centred) == last["rows"] + last["cols"]
        assert min(rows_centred) >= 1


@pytest.mark.parametrize("entries", [
    _real_sign_matrix(), _real_sign_matrix((50, 30)), _real_sign_matrix((2, 165)),
    block_sign_matrix().entries, _pure_2_group_matrix(),
], ids=["sign-30x50", "sign-50x30", "sign-2x165", "block-sign", "z2-8"])
def test_real_matrix_search_and_minor_match_its_complex_copy(entries):
    # the real path (one real product on the stacked block) and numpy's
    # complex product pick the same witness, pieces and minor
    assert entries.dtype == np.float64
    for seed in (0, 3):
        real, cplx = (run_search(x, seed) for x in (entries, entries.astype(complex)))
        assert real[3] == cplx[3]
        assert real[0] == pytest.approx(cplx[0], rel=1e-9)
        lam = min(real[0], cplx[0])
        found = []
        for (value, f, g, side), x in ((real, entries), (cplx, entries.astype(complex))):
            witness = IrregularityWitness(f, g, side, value)
            for vec in (witness.f, witness.g):
                found.append([x.tolist() for x in _step_pieces(vec, value / 8)[:3]])
            ext = extract_minor(CoherenceMatrix(x), witness, lam)
            found.append((ext.row_positions.tolist(), ext.col_positions.tolist()))
        assert found[:3] == found[3:]


def test_block_search_runs_the_restarts_together():
    # every product with the matrix is counted; the block search makes at
    # most two per iteration for both sides together, the one-restart-at-a-
    # time form three per iteration and restart
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                calls.append(ufunc)
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    entries = _unit_matrix((60, 60)).view(Counting)
    cap = 2 * WITNESS_BUDGET[1]
    run_search(entries, 3)
    assert 0 < len(calls) <= cap
    calls.clear()
    reference_search(entries, 3)
    assert len(calls) > 2 * cap


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


def test_decide_two_tiers():
    regular = decide_regularity(CoherenceMatrix(np.ones((4, 4), dtype=complex)), 1e-4)
    assert regular.status == "regular"
    assert regular.witness is None

    irregular = decide_regularity(block_sign_matrix(), 0.5, seed=2)
    assert irregular.status == "irregular"
    assert irregular.witness is not None
    assert irregular.witness.value >= 0.5
    assert irregular.lower_bound <= irregular.upper_bound + 1e-9


def test_decide_undetermined_between_the_search_and_the_bound():
    # search 0.5795, certificate bound 0.8780, grid 0.5734: at lambda 0.64
    # neither a certificate nor a witness decides, and the sandwich is what
    # is left
    m = CoherenceMatrix(np.exp(2j * np.pi * np.random.default_rng(3).random((4, 5))))
    lam = 0.64
    search = run_search(m.entries, 0)[0]
    upper, certified = spectral_certificate(m, lam)
    assert search < lam <= upper and not certified
    assert _svd_pair_value(m.entries) <= upper <= frobenius_bound(m.entries)
    verdict = decide_regularity(m, lam)
    assert verdict.status == "undetermined"
    assert verdict.witness is None
    assert verdict.lower_bound == search
    assert verdict.upper_bound == upper
    for side in ("rows", "cols"):
        assert brute_force_max(m, 4, side)[0] <= verdict.upper_bound


def test_undetermined_verdict_makes_no_linalg_call():
    # a subgroup of order 3^4 plus one point in Z_3^6, against its spectrum
    # at 0.4: at lambda 0.02 the search value, 0.0141, is below it and the
    # certificate's bound, 0.0278, above
    group = FiniteAbelianGroup([3] * 6)
    basis = [tuple(int(i == j) for i in range(6)) for j in range(4)]
    mask = subgroup_span(group, basis).mask.copy()
    mask[group.size - 1] = True
    a = ElementSet(group, mask)
    t = dft(a)
    m = build_matrix(a, spectrum(t, 0.4), t)
    lam = 0.02
    patch, calls = _linalg_calls()
    with patch:
        verdict = decide_regularity(m, lam)
    assert verdict.status == "undetermined"
    assert calls == []
    assert verdict.lower_bound == pytest.approx(0.0141, abs=1e-4)
    assert verdict.upper_bound == spectral_certificate(m, lam)[0] == pytest.approx(0.0278, abs=1e-4)


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
            recomputed = abs(w.f @ m.entries @ w.g) / m.entries.size
            assert recomputed == pytest.approx(w.value, abs=1e-9)
    assert "irregular" in statuses or "regular" in statuses


@pytest.mark.parametrize("status,upper,needle", [
    ("regular", 0.1, "certified although the bound 0.1 is not below lambda 0.1"),
    ("regular", 0.5, "certified although the bound 0.5 is not below lambda 0.1"),
    ("undetermined", 0.05, "undetermined although the bound 0.05 is below lambda 0.1"),
    ("irregular", 0.05, "irregular although the bound 0.05 is below lambda 0.1"),
    ("undetermined", -0.5, "the bound -0.5 lies outside [0, 1.001]"),
    ("undetermined", 2.0, "the bound 2.0 lies outside [0, 1.001]"),
    ("undetermined", math.nan, "the bound nan lies outside [0, 1.001]"),
    ("bogus", 0.5, "unknown verdict 'bogus'"),
])
def test_verdict_rejects_what_the_audit_rejects(status, upper, needle):
    with pytest.raises(AssertionError) as info:
        regularity.RegularityVerdict(status, 0.1, upper, None, 0.0)
    assert str(info.value) == needle
    assert regularity._verdict_fault(status, 0.1, upper, None) == needle


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
    g = FiniteAbelianGroup([2] * 4)
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
            good = int(np.count_nonzero(gate.mask[shifted]))
            assert good >= 0.9 * len(spec_rho)
    assert certified_count >= 1


# ---------------------------------------------------------------- extraction


def test_extract_planted_blocks():
    for trial in range(5):
        m = planted_matrix(trial)
        f, g = planted_witness()
        value = abs(complex(f @ m.entries @ g)) / m.entries.size
        witness = IrregularityWitness(f, g, "rows", value)
        assert value >= 0.05
        ext = extract_minor(m, witness, 0.05)
        assert ext.new_mean >= abs(complex(m.entries.mean())) + 0.1
        assert ext.row_positions.size > 0 and ext.col_positions.size > 0
        # the planted block is exactly the best quadrant
        assert ext.row_positions.tolist() == list(range(8))
        assert ext.col_positions.tolist() == list(range(8))
        assert ext.new_mean == pytest.approx(1.0)
        again = extract_minor(m, witness, 0.05)
        assert again.row_positions.tolist() == ext.row_positions.tolist()
        assert again.new_mean == ext.new_mean


def test_cut_on_the_proofs_grid_raises_the_mean():
    """The proof's constants, which the deleted faithful mode ran: step 0 of
    example1 n = 3 at epsilon 0.4, cut on the grid of eta = lambda / 8 in
    place of the run's witness value / 8.  The grid keeps the 100/eta^2
    piece bound, and the best piece pair's best quadrant beats the mean."""
    members = example_counterexample(3).members
    table = dft(members)
    m = build_matrix(members, spectrum(table, 0.4), table)
    lam = 0.4 * 0.4 / 150
    verdict = decide_regularity(m, lam, seed=1)
    assert m.entries.shape == (15, 15) and verdict.status == "irregular"
    eta = lam / 8
    rows, row_starts, _, _ = _step_pieces(verdict.witness.f, eta)
    cols, col_starts, _, _ = _step_pieces(verdict.witness.g, eta)
    assert max(row_starts.size, col_starts.size) <= 100 / eta**2
    mean = complex(m.col_sums.sum() / m.entries.size)
    assert abs(mean) == pytest.approx(0.5022, abs=1e-4)
    i, j = _piece_pair(m.entries, mean, rows, row_starts, cols, col_starts)
    rp = np.split(rows, row_starts[i:i + 2])[1]
    cp = np.split(cols, col_starts[j:j + 2])[1]
    quadrants = [(float(np.mean(np.abs(m.entries[np.ix_(rsel, csel)].mean(axis=0)))),
                  rsel.size, csel.size)
                 for rsel in (rp, _complement(rp, 15)) for csel in (cp, _complement(cp, 15))
                 if rsel.size and csel.size]
    best = max(quadrants, key=lambda q: q[0])
    assert best[0] > abs(mean)
    assert best == (1.0, 7, 8)


def test_extract_mean_recomputation_invariant():
    m = planted_matrix(2)
    f, g = planted_witness()
    value = abs(complex(f @ m.entries @ g)) / m.entries.size
    witness = IrregularityWitness(f, g, "rows", value)
    ext = extract_minor(m, witness, 0.05)
    block = m.entries[np.ix_(ext.row_positions, ext.col_positions)]
    recomputed = float(np.mean(np.abs(block.mean(axis=0))))
    assert recomputed == pytest.approx(ext.new_mean, abs=1e-12)
    assert ext.new_mean > abs(complex(m.entries.mean()))


def test_extract_rejects_weak_witness():
    m = planted_matrix(0)
    f, g = planted_witness()
    witness = IrregularityWitness(f, g, "rows", 0.0)
    with pytest.raises(ValueError, match="below"):
        extract_minor(m, witness, 0.3)


def test_extract_on_example_set_matrix():
    bundle = example_counterexample(2)
    t = dft(bundle.members)
    m = build_matrix(bundle.members, spectrum(t, 0.4), t)
    verdict = decide_regularity(m, 0.01, seed=0)
    assert verdict.status == "irregular"
    ext = extract_minor(m, verdict.witness, 0.01)
    assert ext.new_mean > abs(complex(m.entries.mean()))
    # the quadrant is given by distinct, sorted positions inside the matrix
    for positions, n in zip((ext.row_positions, ext.col_positions), m.entries.shape):
        assert positions.size >= 1 and np.all(np.diff(positions) > 0)
        assert 0 <= positions[0] and positions[-1] < n
    # and its mean is the recomputed coherence mean of those rows and columns
    block = m.entries[np.ix_(ext.row_positions, ext.col_positions)]
    assert ext.new_mean == pytest.approx(np.mean(np.abs(block.mean(axis=0))), abs=1e-12)


def test_extract_skips_a_quadrant_with_an_empty_side():
    # g is constant, so its one piece covers every column and leaves no complement
    entries = np.ones((6, 5))
    entries[:3] = -1.0
    f = np.array([1, 1, 1, -1, -1, -1], dtype=complex)
    g = np.ones(5, dtype=complex)
    m = CoherenceMatrix(entries)
    value = abs(complex(f @ entries @ g)) / entries.size
    witness = IrregularityWitness(f, g, "rows", value)
    ext = extract_minor(m, witness, 0.05)
    # rows 3-5 are the first piece, and the tied complement/piece quadrant,
    # rows 0-2, comes later in the quadrant order
    assert ext.row_positions.tolist() == [3, 4, 5]
    assert ext.col_positions.tolist() == list(range(5))
    assert ext.new_mean == 1.0


def _piece_pair(entries, mean, rows, row_starts, cols, col_starts):
    """_best_piece_pair on the row pieces' column sums, as extract_minor calls it."""
    by_row = _row_piece_sums(entries, rows, row_starts)
    return _best_piece_pair(by_row, mean, np.diff(row_starts, append=rows.size), cols, col_starts)


def _gathered_cut(m, witness):
    """extract_minor as it was before it reused sums: the row pieces' column
    sums from one gather and np.add.reduceat, and each quadrant's column sums
    from a gather of its rows.  Returns (row positions, col positions, mean)."""
    entries = m.entries
    nr, nc = entries.shape
    eta = min(1.0, witness.value / 8.0)
    rows, row_starts, _, _ = _step_pieces(witness.f, eta)
    cols, col_starts, _, _ = _step_pieces(witness.g, eta)
    by_row = np.add.reduceat(entries[rows], row_starts, axis=0)
    i, j = _best_piece_pair(by_row, complex(m.col_sums.sum() / entries.size),
                            np.diff(row_starts, append=rows.size), cols, col_starts)
    rp = np.split(rows, row_starts[i:i + 2])[1]
    cp = np.split(cols, col_starts[j:j + 2])[1]
    candidates = []
    for rsel in (rp, _complement(rp, nr)):
        for csel in (cp, _complement(cp, nc)):
            if rsel.size and csel.size:
                mu = float(np.mean(np.abs((entries[rsel].sum(axis=0) / rsel.size)[csel])))
                candidates.append((mu, min(rsel.size, csel.size), rsel, csel))
    best_mu = max(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] >= best_mu - 1e-12]
    mu, _, rsel, csel = next(c for c in tied if c[1] == max(t[1] for t in tied))
    return rsel, csel, mu


@pytest.mark.parametrize("entries", [
    _example_matrix(9), _real_sign_matrix((40, 3)), _real_sign_matrix((3, 40)),
    _pure_2_group_matrix(), _unit_matrix((60, 60)), _noisy(_sign_matrix((50, 30))),
], ids=["certify-1023x1023", "sign-40x3", "sign-3x40", "z2-8", "unit-60x60", "noisy-sign-50x30"])
def test_cut_from_reused_sums_equals_the_gathered_cut(entries):
    # on a +-1 matrix every column sum is an exact integer, so the indicator
    # product equals the gather and np.add.reduceat, and a piece's row of it
    # and col_sums minus that row equal the gathers of the piece's rows and
    # of the rest, bit for bit; with more row pieces than columns (sign-40x3)
    # the sums are gathered; a complex matrix gathers as before
    m = CoherenceMatrix(entries)
    for seed in (0, 3):
        value, f, g, side = run_search(entries, seed)
        witness = IrregularityWitness(f, g, side, value)
        rows, row_starts, _, _ = _step_pieces(witness.f, value / 8)
        by_row = _row_piece_sums(entries, rows, row_starts)
        assert np.array_equal(by_row, np.add.reduceat(entries[rows], row_starts, axis=0))
        if entries.dtype == np.float64:
            for i, rp in enumerate(np.split(rows, row_starts[1:])):
                assert np.array_equal(by_row[i], entries[rp].sum(axis=0))
                rest = _complement(rp, entries.shape[0])
                assert np.array_equal(m.col_sums - by_row[i], entries[rest].sum(axis=0))
        ext = extract_minor(m, witness, value)
        rsel, csel, mu = _gathered_cut(m, witness)
        assert np.array_equal(ext.row_positions, rsel)
        assert np.array_equal(ext.col_positions, csel)
        assert ext.new_mean == mu


def test_indicator_sums_only_while_the_pieces_fit_the_columns():
    # the 0/1 indicator is (pieces x rows): it is taken only while it is no
    # larger than the matrix, and never on a complex matrix
    def products(entries, n_pieces):
        rows, starts = np.arange(entries.shape[0]), np.arange(n_pieces)
        calls = []

        class Counting(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls.append(ufunc)
                inputs = tuple(x.view(np.ndarray) if isinstance(x, Counting) else x
                               for x in inputs)
                return getattr(ufunc, method)(*inputs, **kwargs)

        got = _row_piece_sums(entries.view(Counting), rows, starts)
        assert np.array_equal(np.asarray(got), np.add.reduceat(entries, starts, axis=0))
        return calls.count(np.matmul)

    assert products(_real_sign_matrix((8, 3)), 3) == 1
    assert products(_real_sign_matrix((8, 3)), 4) == 0
    assert products(_sign_matrix((8, 3)), 3) == 0


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
    value, f, g, side = run_search(entries, 5)
    witness = IrregularityWitness(f, g, side, value)
    f_pieces = _step_pieces(witness.f, value / 8)
    g_pieces = _step_pieces(witness.g, value / 8)
    _assert_same_pieces(f_pieces, _loop_build_pieces(witness.f, f_pieces[3]))
    _assert_same_pieces(g_pieces, _loop_build_pieces(witness.g, g_pieces[3]))
    rows = np.split(f_pieces[0], f_pieces[1][1:])
    cols = np.split(g_pieces[0], g_pieces[1][1:])
    if shape == (7, 2155):
        assert len(cols) >= 200
    i, j = _piece_pair(entries, complex(entries.mean()), *f_pieces[:2], *g_pieces[:2])
    assert (i, j) == _loop_pick(entries, rows, cols)
    ext = extract_minor(m, witness, value)
    # each side of the minor is the chosen piece or its complement
    for got, piece, n in ((ext.row_positions, rows[i], shape[0]),
                          (ext.col_positions, cols[j], shape[1])):
        assert np.array_equal(got, piece) or np.array_equal(got, np.setdiff1d(np.arange(n), piece))


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
    pieces = (np.arange(20), np.arange(0, 20, 5))  # four runs of five
    assert _piece_pair(entries, complex(entries.mean()), *pieces, *pieces) == (0, 2)
    flipped = entries[::-1, ::-1]  # now the block pairs are (1, 3) and (3, 1)
    assert _piece_pair(flipped, complex(flipped.mean()), *pieces, *pieces) == (1, 3)
