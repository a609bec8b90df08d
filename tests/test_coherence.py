import tracemalloc

import numpy as np
import pytest

from oracles import char_value, decode, modulus_range
from specdbl import coherence, groups
from specdbl.coherence import CoherenceMatrix, build_matrix
from specdbl.fourier import FourierTable, dft, spectrum
from specdbl.groups import (
    ElementSet,
    FiniteAbelianGroup,
    char_matrix,
    random_subset,
    subgroup_span,
)
from specdbl.regularity import IrregularityWitness, extract_minor


def test_subgroup_matrix_is_all_ones():
    g = FiniteAbelianGroup([2] * 4)
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = dft(h)
    m = build_matrix(h, spectrum(t, 1.0), t)
    assert m.entries.shape == (4, 4)
    assert np.max(np.abs(m.entries - 1.0)) < 1e-12
    assert m.entries.mean() == pytest.approx(1.0)


def test_trivial_set_matrix():
    g = FiniteAbelianGroup([3, 3])
    a = ElementSet.from_indices(g, [0])
    t = dft(a)
    m = build_matrix(a, spectrum(t, 1.0), t)
    assert m.entries.shape == (1, 9)
    assert np.max(np.abs(np.abs(m.entries) - 1.0)) < 1e-12
    # every column sum of a coherence matrix is real nonnegative
    sums = m.entries.sum(axis=0)
    assert np.max(np.abs(sums.imag)) < 1e-9
    assert sums.real.min() >= -1e-9


def test_zero_average_character_rejected():
    g = FiniteAbelianGroup([2] * 4)
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = dft(h)
    bad = ElementSet.from_indices(g, [0, 1])  # index 1 is not in the perp
    with pytest.raises(ValueError, match="vanishing"):
        build_matrix(h, bad, t)


def _naive_matrix(a, gamma, table):
    g = a.group
    rows = a.indices()
    cols = gamma.indices()
    out = np.zeros((rows.size, cols.size), dtype=complex)
    for j, ci in enumerate(cols):
        cval = table.coeffs[ci]
        for i, ai in enumerate(rows):
            chi = char_value(g, decode(g, ci), decode(g, ai))
            out[i, j] = chi * np.conj(cval) / abs(cval)
    return out


def test_matrix_matches_naive_construction():
    g = FiniteAbelianGroup([2, 3, 4])
    a = random_subset(g, 9, seed=3)
    t = dft(a)
    spec = spectrum(t, 0.2)
    m = build_matrix(a, spec, t)
    assert m.entries.dtype == np.complex128  # a factor of order above 2
    assert np.max(np.abs(m.entries - _naive_matrix(a, spec, t))) < 1e-9


@pytest.mark.parametrize("orders", [(2, 3, 4), (4, 4), (3, 5, 7), (2, 2, 9)], ids=str)
def test_matrix_off_pure_2_groups_applies_the_normaliser(orders):
    # L > 2: the character matrix times conj(c)/|c| in one product, bit for
    # bit, and the naive construction within rounding
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, g.size // 3, seed=len(orders))
    t = dft(a)
    spec = spectrum(t, 0.15)
    m = build_matrix(a, spec, t)
    c = t.coeffs[spec.indices()]
    expected = char_matrix(g, a.indices(), spec.indices()) * (np.conj(c) / np.abs(c))
    assert m.entries.dtype == np.complex128
    assert m.entries.tobytes() == expected.tobytes()
    assert np.max(np.abs(m.entries - _naive_matrix(a, spec, t))) < 1e-9


def test_complex_build_matrix_makes_its_phases_in_row_blocks(monkeypatch):
    # with L > 2 the int64 phases are made one row block at a time, straight
    # into the output, so the build peaks near the matrix itself (1.51 times
    # it with the whole matrix's phases), and the entries are a one-block
    # build's, bit for bit
    g = FiniteAbelianGroup((3,) * 10)
    a = random_subset(g, 1000, seed=0)
    t = dft(a)
    gamma = spectrum(t, 0.06)
    tracemalloc.start()
    try:
        m = build_matrix(a, gamma, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.entries.shape == (1000, 1559)
    assert peak <= 1.1 * m.entries.nbytes
    monkeypatch.setattr(groups, "_BLOCK_CELLS", m.entries.size)
    assert build_matrix(a, gamma, t).entries.tobytes() == m.entries.tobytes()


def test_pure_2_group_matrix_from_a_complex_table():
    # the column signs are sign(Re c), so a complex table of a pure 2-group
    # gives the same float64 matrix as its real one
    g = FiniteAbelianGroup([2] * 8)
    a = random_subset(g, 60, seed=8)
    t = dft(a)
    spec = spectrum(t, 0.1)
    m = build_matrix(a, spec, t)
    c = t.coeffs[spec.indices()]
    assert (c < 0).any() and (c > 0).any()  # flipped columns and kept ones
    other = build_matrix(a, spec, FourierTable(g, t.coeffs.astype(complex), a.size))
    assert other.entries.dtype == np.float64
    assert other.entries.tobytes() == m.entries.tobytes()


def test_signless_set_average_rejected():
    # on a pure 2-group a NaN coefficient, or a complex one whose real part
    # is 0, has no sign to fold into the matrix; a table with a NaN is
    # refused before it can reach one
    g = FiniteAbelianGroup([2] * 4)
    a = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = dft(a)
    perp = spectrum(t, 1.0).indices()
    with pytest.raises(AssertionError, match="Parseval"):
        FourierTable(g, np.where(np.arange(g.size) == perp[-1], np.nan, t.coeffs), a.size)
    table = np.where(np.arange(g.size) == 1, 1e-10j, t.coeffs)
    with pytest.raises(ValueError, match="vanishing"):
        build_matrix(a, ElementSet.from_indices(g, [*perp, 1]), FourierTable(g, table, a.size))


@pytest.mark.parametrize("k, share", [(6, 5), (10, 5), (10, 3)], ids=["6", "10", "10-third"])
def test_pure_2_group_matrix_is_exact_real_signs(k, share):
    # (10, 3) has columns where complex division rounds conj(c)/|c| to
    # 1 - 2^-53; the real table's sign(c) is exact
    g = FiniteAbelianGroup([2] * k)
    a = random_subset(g, 2**k // share, seed=k)
    t = dft(a)
    spec = spectrum(t, 0.1)
    m = build_matrix(a, spec, t)
    assert m.entries.dtype == np.float64
    assert np.array_equal(np.abs(m.entries), np.ones(m.entries.shape))
    assert np.array_equal(m.entries, _naive_matrix(a, spec, t).real)


def test_grand_sum_bound_on_spectrum():
    # 1_A^T M 1_Gamma is real, at least eps |A| |Gamma|, and |A| |Gamma| times the mean
    seed = 20
    for orders in [[2] * 5, [3, 3, 3]]:
        g = FiniteAbelianGroup(orders)
        for eps in [0.2, 0.4, 0.7]:
            a = random_subset(g, g.size // 3, seed=seed)
            seed += 1
            t = dft(a)
            spec = spectrum(t, eps)
            m = build_matrix(a, spec, t)
            rows, cols = m.entries.shape
            total = complex(np.ones(rows) @ m.entries @ np.ones(cols))
            assert abs(total.imag) < 1e-9 * a.size * len(spec)
            assert total.real >= eps * a.size * len(spec) * (1 - 1e-6) - 1e-6
            assert total == pytest.approx(a.size * len(spec) * m.entries.mean())
            mv = m.entries.mean()
            assert abs(mv.imag) < 1e-12
            assert mv.real >= eps * (1 - 1e-6) - 1e-9


def test_mean_value_naive_average():
    g = FiniteAbelianGroup([4, 4])
    a = random_subset(g, 6, seed=8)
    t = dft(a)
    m = build_matrix(a, spectrum(t, 0.1), t)
    rows, cols = m.entries.shape
    acc = 0j
    for i in range(rows):
        for j in range(cols):
            acc += m.entries[i, j]
    assert m.entries.mean() == pytest.approx(acc / (rows * cols), abs=1e-12)


def test_bilinear_degenerate_cases():
    # f^T M g on a subgroup's all-ones matrix
    g = FiniteAbelianGroup([2] * 4)
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = dft(h)
    m = build_matrix(h, spectrum(t, 1.0), t)
    ones_g = np.ones(4)
    assert np.zeros(4) @ m.entries @ ones_g == 0
    # mean-zero f against the all-ones matrix vanishes
    f = np.array([1.0, -1.0, 0.5, -0.5])
    assert f @ m.entries @ ones_g == pytest.approx(0.0, abs=1e-12)


def test_bilinear_shape_and_side_errors():
    # a pair of test functions must match the matrix's shape, and a
    # witness must name the side that sums to zero
    g = FiniteAbelianGroup([2, 2])
    a = ElementSet.from_indices(g, [0, 1])
    t = dft(a)
    m = build_matrix(a, spectrum(t, 0.4), t)
    f = np.array([1.0, -1.0])
    wide = np.ones(m.entries.shape[1] + 1)
    with pytest.raises(ValueError, match="shape"):
        extract_minor(m, IrregularityWitness(f, wide, "rows", 0.5), 0.1)
    with pytest.raises(ValueError, match="constrained_side"):
        IrregularityWitness(f, np.ones(m.entries.shape[1]), "diag", 0.5)


def test_bounded_function_validation():
    # a witness holds each test function as a read-only complex vector of
    # sup-norm at most 1
    ok = np.array([1.0, -1.0])
    for bad, needle in [(np.array([1.0, 1.2]), "sup-norm 1.2 of {} exceeds 1"),
                        (np.array([np.nan, 1.0]), "sup-norm nan of {} exceeds 1"),
                        (np.array([]), "{} must be a nonempty vector"),
                        (np.ones((2, 1)), "{} must be a nonempty vector")]:
        with pytest.raises(ValueError, match=needle.format("f")):
            IrregularityWitness(bad, ok, "cols", 0.5)
        with pytest.raises(ValueError, match=needle.format("g")):
            IrregularityWitness(ok, bad, "rows", 0.5)
    w = IrregularityWitness(ok, np.array([1.0, -1.0j]), "rows", 0.5)
    assert w.f.dtype == w.g.dtype == np.complex128 and len(w.g) == 2
    assert not w.f.flags.writeable and not w.g.flags.writeable


def test_from_entries_checks_modulus():
    block = np.ones((2, 2), dtype=complex)
    m = CoherenceMatrix(block)
    assert m.entries.shape == (2, 2) and not m.entries.flags.writeable
    # real input stays real, as float64
    assert CoherenceMatrix(np.array([[1, -1]])).entries.dtype == np.float64
    assert CoherenceMatrix([[1.0, 1j]]).entries.dtype == np.complex128
    with pytest.raises(AssertionError):
        CoherenceMatrix(np.array([[1.0, 0.5], [1.0, 1.0]]))
    # a real matrix holds exact signs; a complex one may be off by rounding
    with pytest.raises(AssertionError, match="exactly when real"):
        CoherenceMatrix(np.array([[1.0, -(1.0 - 2.0**-53)]]))
    assert CoherenceMatrix(np.array([[1.0, -(1.0 - 2.0**-53)]], dtype=complex)).max_modulus == 1.0
    for bad in (np.array([[1.0, np.nan]]), np.array([[1.0, complex(np.nan, 0.0)]])):
        with pytest.raises(AssertionError):
            CoherenceMatrix(bad)


def test_build_matrix_input_validation():
    g = FiniteAbelianGroup([2, 2])
    g2 = FiniteAbelianGroup([3])
    a = ElementSet.from_indices(g, [0, 1])
    t = dft(a)
    with pytest.raises(ValueError):
        build_matrix(a, ElementSet.from_indices(g2, [0]), t)
    with pytest.raises(ValueError):
        build_matrix(a, ElementSet.from_indices(g, []), t)


def _unit_entries(dtype, rng, shape=(70, 1500)):
    """+-1 signs or unit phases; the complex moduli are off 1 by up to 5e-10
    either way, within the check's tolerance, so max_modulus is not just 1."""
    if dtype == np.float64:
        return rng.choice([-1.0, 1.0], size=shape)
    return np.exp(2j * np.pi * rng.random(shape)) * (1.0 + 5e-10 * rng.uniform(-1, 1, shape))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_blocked_modulus_check_matches_one_shot(dtype):
    rng = np.random.default_rng(17)
    entries = _unit_entries(dtype, rng)
    rows_per_block = coherence._BLOCK_CELLS // entries.shape[1]
    assert entries.shape[0] > 3 * rows_per_block  # the check reads several row blocks
    hi, lo = modulus_range(entries)
    assert CoherenceMatrix(entries.copy()).max_modulus == hi
    if dtype == np.complex128:
        assert hi > 1.0 > lo
    # a bad entry only in the last block fails the blocked check as it fails the one-shot one
    tol = 0.0 if dtype == np.float64 else 1e-9
    bad_values = [np.nan, 1.0 - 2.0**-53] if dtype == np.float64 else [
        complex(np.nan, 0.0), (1.0 + 2e-9) * np.exp(0.3j)]
    for value in bad_values:
        bad = entries.copy()
        bad[-1, -1] = value
        hi, lo = modulus_range(bad)
        assert not max(hi - 1.0, 1.0 - lo) <= tol
        with pytest.raises(AssertionError, match="unit modulus"):
            CoherenceMatrix(bad)


def test_column_sums_are_kept_and_give_the_column_means_bit_for_bit():
    # and the row sums, which come from the modulus check's row blocks:
    # shapes of one block, of several (300 x 300 is 3 blocks of 109 rows),
    # of one row per block (cols > _BLOCK_CELLS) and a Fortran-ordered
    # input, which the matrix holds in C order
    rng = np.random.default_rng(19)
    shapes = [tuple(int(x) for x in rng.integers(1, 300, size=2)) for _ in range(60)]
    shapes += [(300, 300), (1000, 40), (3, coherence._BLOCK_CELLS + 5)]
    for rows, cols in shapes:
        for dtype in (np.complex128, np.float64):
            entries = _unit_entries(dtype, rng, (rows, cols))
            for given in (entries, np.asfortranarray(entries)):
                m = CoherenceMatrix(given)
                assert m.entries.flags.c_contiguous and np.array_equal(m.entries, entries)
                assert not m.col_sums.flags.writeable and not m._row_sums.flags.writeable
                assert m.col_sums.tobytes() == entries.sum(axis=0).tobytes()
                assert m._row_sums.tobytes() == entries.sum(axis=1).tobytes()
                assert (m.col_sums / rows).tobytes() == entries.mean(axis=0).tobytes()
                assert (m._row_sums / cols).tobytes() == entries.mean(axis=1).tobytes()
            if dtype == np.float64:
                assert m.col_sums.sum() / m.entries.size == m.entries.mean()
