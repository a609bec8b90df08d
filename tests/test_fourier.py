import cmath
import inspect
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import decode, dft_naive, encode, level_parting_a_pair
from specdbl.fourier import FourierTable, dft, parseval_capacity, spectrum
from specdbl import groups
from specdbl.groups import ElementSet, FiniteAbelianGroup, convolve_counts, random_subset, subgroup_span
from specdbl.coherence import build_matrix
from specdbl.diagnostics import example_counterexample, statistical_doubling

# order-2 factors between other factors, so the Walsh-Hadamard chunks and the
# FFT axes interleave in the group's array shape
MIXED_ORDERS = [[2, 3, 2, 5, 2], [32, 32, 2], [4, 2, 2, 3]]


def _from_scratch_coeffs(group, members):
    # independent of both package transform paths: raw cmath exponentials
    out = np.zeros(group.size, dtype=complex)
    for gi in range(group.size):
        gamma = decode(group, gi)
        acc = 0j
        for a in members:
            ca = decode(group, a)
            phase = sum(u * x / n for u, x, n in zip(gamma, ca, group.orders))
            acc += cmath.exp(2j * cmath.pi * phase)
        out[gi] = acc
    return out


def test_dft_small_groups_from_scratch():
    for orders in [[2, 3], [4], [2, 2, 2], [3, 3]]:
        g = FiniteAbelianGroup(orders)
        a = random_subset(g, max(1, g.size // 3), seed=5)
        t = dft(a)
        expected = _from_scratch_coeffs(g, a.indices())
        assert np.max(np.abs(t.coeffs - expected)) < 1e-9


def test_dft_matches_naive_sweep():
    # the fast path against the naive character-sum reference
    rng_seed = 100
    for orders in [[2] * 8, [16, 16], [3, 3, 3, 3], [5, 7, 7], [252]] + MIXED_ORDERS:
        g = FiniteAbelianGroup(orders)
        for size in [1, g.size // 4, g.size // 2]:
            a = random_subset(g, max(1, size), seed=rng_seed)
            rng_seed += 1
            fast = dft(a)
            ref = dft_naive(a)
            assert np.max(np.abs(fast.coeffs - ref.coeffs)) < 1e-9 * max(1, a.size)


def test_dft_zero_coefficient_is_size():
    g = FiniteAbelianGroup([2, 2, 2, 2])
    a = random_subset(g, 7, seed=1)
    assert dft(a).coeffs[0] == pytest.approx(7.0)


def test_dft_subgroup_is_scaled_perp_indicator():
    g = FiniteAbelianGroup([2, 2, 2, 2])
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = dft(h)
    perp = {0, 4, 8, 12}
    for i in range(g.size):
        expected = len(h) if i in perp else 0.0
        assert t.coeffs[i] == pytest.approx(expected, abs=1e-9)


def test_parseval_and_conjugate_symmetry():
    for orders in [[2, 2, 2], [3, 4], [10]]:
        g = FiniteAbelianGroup(orders)
        a = random_subset(g, g.size // 2, seed=11)
        t = dft(a)
        assert np.sum(np.abs(t.coeffs) ** 2) == pytest.approx(a.size * g.size)
        neg = g.negate(np.arange(g.size))
        assert np.max(np.abs(t.coeffs[neg] - np.conj(t.coeffs))) < 1e-9


def test_table_validation_rejects_garbage():
    g = FiniteAbelianGroup([2, 2])
    with pytest.raises(AssertionError):
        FourierTable(g, np.array([3.0, 0, 0, 0]), 2)  # wrong DC value
    with pytest.raises(AssertionError):
        FourierTable(g, np.array([2.0, 1.0, 0, 0]), 2)  # breaks Parseval


def test_example_set_coefficients_frozen():
    # two coordinate planes through 0 in Z_2^4: coefficient 7 at 0, 3 on the
    # index image of the set, -1 on the six remaining characters
    bundle = example_counterexample(2)
    t = dft(bundle.members)
    a_idx = set(bundle.members.indices().tolist())
    for i in range(16):
        if i == 0:
            expected = 7.0
        elif i in a_idx:
            expected = 3.0
        else:
            expected = -1.0
        assert t.coeffs[i] == pytest.approx(expected, abs=1e-9)
    assert np.sum(np.abs(t.coeffs) ** 2) == pytest.approx(7 * 16)


def test_spectrum_example_set_thresholds():
    bundle = example_counterexample(2)
    t = dft(bundle.members)
    s04 = spectrum(t, 0.4)
    assert set(s04.indices().tolist()) == set(bundle.members.indices().tolist())
    s05 = spectrum(t, 0.5)
    assert s05.indices().tolist() == [0]


def test_spectrum_subgroup_all_levels():
    g = FiniteAbelianGroup([2, 2, 2, 2])
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = dft(h)
    for eps in [0.1, 0.5, 1.0]:
        s = spectrum(t, eps)
        assert set(s.indices().tolist()) == {0, 4, 8, 12}
    # meets the Parseval capacity with equality at eps = 1
    assert len(spectrum(t, 1.0)) == parseval_capacity(16, 4, 1.0)


def test_spectrum_invariants_random_sweep():
    seed = 0
    for orders in [[2] * 6, [3, 3, 3], [4, 5]]:
        g = FiniteAbelianGroup(orders)
        for size in [1, 3, g.size // 2]:
            a = random_subset(g, size, seed=seed)
            seed += 1
            t = dft(a)
            for eps in [0.05, 0.25, 0.5, 0.9, 1.0]:
                s = spectrum(t, eps)
                assert s.mask[0]
                neg = g.negate(np.arange(g.size))
                assert np.array_equal(s.mask, s.mask[neg])
                assert len(s) <= parseval_capacity(g.size, size, eps) * (1 + 1e-9)


def test_table_rejects_broken_conjugate_symmetry():
    # the right DC value and Parseval energy, but coeffs[-gamma] != conj(coeffs[gamma])
    g = FiniteAbelianGroup([4, 3])
    a = ElementSet.from_coords(g, [(0, 0), (1, 0), (0, 1)])
    coeffs = dft(a).coeffs.copy()
    gamma = encode(g, (1, 1))
    assert abs(coeffs[gamma].imag) > 0.5
    coeffs[gamma] = np.conj(coeffs[gamma])  # same modulus, so Parseval still holds
    with pytest.raises(AssertionError, match="conjugate symmetry"):
        FourierTable(g, coeffs, 3)
    # on Z_2^3 every character is its own negative, so the check is imaginary part 0
    g2 = FiniteAbelianGroup([2, 2, 2])
    coeffs = np.ones(g2.size, dtype=complex)  # the table of {0}
    coeffs[5] = 1j
    with pytest.raises(AssertionError, match="conjugate symmetry"):
        FourierTable(g2, coeffs, 1)
    FourierTable(g2, np.ones(g2.size), 1)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_spectrum_takes_both_of_a_pair_that_rounding_parts(dtype):
    # A = {0, 1, 7} in Z_8 has the real coefficients 1 + 2 cos(2 pi gamma / 8);
    # one ulp more at gamma = 1 than at -gamma = 7, far inside the table's
    # 1e-9, leaves a cut between the two magnitudes, and the spectrum takes both
    g = FiniteAbelianGroup([8])
    r = np.sqrt(2.0)
    coeffs = np.array([3.0, 1 + r, 1.0, 1 - r, -1.0, 1 - r, 1.0, 1 + r])
    coeffs[1] = np.nextafter(coeffs[1], np.inf)
    table = FourierTable(g, coeffs.astype(dtype), 3)
    eps = level_parting_a_pair(table)
    assert eps is not None
    cut = eps * 3 - 1e-9 * 3
    assert (np.abs(table.coeffs) >= cut).tolist() == [True, True] + [False] * 6
    assert spectrum(table, eps).indices().tolist() == [0, 1, 7]


# a pure 2-group, odd orders, and FFT axes of even order above 2, whose
# rounding can part |c(gamma)| from |c(-gamma)|
SPECTRUM_ORDERS = [[2] * 6, [3, 5, 7], [8], [4, 2], [4, 4, 4, 4], [2, 4, 8, 8], [32, 32, 2]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(orders=st.sampled_from(SPECTRUM_ORDERS), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), eps=st.floats(1e-3, 1.0), parted=st.booleans())
def test_spectrum_holds_zero_and_is_its_own_negation(orders, share, seed, eps, parted):
    # at any level, and at a level that parts a pair where the table has one
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, max(1, round(share * g.size)), seed=seed)
    table = dft(a)
    if parted:
        eps = level_parting_a_pair(table) or eps
    s = spectrum(table, eps)
    assert s.mask[0]
    assert np.array_equal(s.mask, g.negate(s.mask))
    assert not np.any((np.abs(table.coeffs) >= eps * a.size - 1e-9 * a.size) & ~s.mask)


@pytest.mark.parametrize("coeffs", [np.full(5, 4.0), np.full(5, 4.0 + 0j)], ids=["real", "complex"])
def test_spectrum_past_the_parseval_capacity_raises(coeffs):
    # a stand-in table that breaks Parseval: every character at |A| = 4,
    # 5 characters against a capacity of 5 / (1 * 4)
    table = types.SimpleNamespace(group=FiniteAbelianGroup([5]), coeffs=coeffs, set_size=4)
    with pytest.raises(AssertionError, match="exceeds Parseval capacity"):
        spectrum(table, 1.0)
    assert spectrum(table, 0.5).size == 5


def test_spectrum_rejects_bad_eps():
    g = FiniteAbelianGroup([2, 2])
    t = dft(random_subset(g, 2, seed=0))
    for eps in [0.0, -0.5, 1.5]:
        with pytest.raises(ValueError):
            spectrum(t, eps)


def test_parseval_capacity_values():
    assert parseval_capacity(16, 4, 1.0) == pytest.approx(4.0)
    assert parseval_capacity(16, 4, 0.5) == pytest.approx(16.0)
    assert parseval_capacity(64, 2, 0.25) == pytest.approx(512.0)
    with pytest.raises(ValueError):
        parseval_capacity(16, 4, 0.0)


@pytest.mark.parametrize("k", [1, 5, 6, 7, 8, 12, 13])
def test_dft_on_a_2_group_is_exact(k):
    # Walsh-Hadamard plans of one chunk ending in the last axis (k <= 5) and
    # of a chunk with a stride behind it first (k = 6, 7, 8, 12, 13); both the
    # fast table and the direct sum are float64 and exact
    g = FiniteAbelianGroup([2] * k)
    for size in [1, min(g.size // 3, 300), min(g.size, 1000)]:
        a = random_subset(g, size, seed=size + k)
        t, ref = dft(a), dft_naive(a)
        assert t.coeffs.dtype == ref.coeffs.dtype == np.float64
        assert np.array_equal(t.coeffs, ref.coeffs)


@pytest.mark.parametrize("k, chunks", [(19, [4, 5, 5, 5]), (20, [5, 5, 5, 5])])
def test_dft_at_the_ceiling_matches_the_direct_sum(k, chunks):
    # the sizes where chunks of 6 axes left a tail chunk of 1 or 2 axes; at
    # Z_2^20 the float32 pass runs at the default size ceiling
    g = FiniteAbelianGroup([2] * k)
    assert [r for _, r, _ in g._wht_blocks] == chunks
    a = random_subset(g, 16, seed=k)
    assert dft(a).coeffs.tobytes() == dft_naive(a).coeffs.tobytes()


def _parity(x):
    """popcount(x) mod 2 of a nonnegative int64 array below 2^32."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def test_dft_on_z2_20_gives_the_exact_tables():
    # |G| = 2^20 <= 2^24, so the float32 Walsh-Hadamard pass runs, and its
    # largest partial sums (2^20 at 0 for the full set) are exact
    g = FiniteAbelianGroup([2] * 20)
    full = dft(ElementSet(g, np.ones(g.size, dtype=bool))).coeffs
    expected = np.zeros(g.size)
    expected[0] = 2.0**20
    assert np.array_equal(full, expected)
    rng = np.random.default_rng(20)
    gens = rng.integers(0, 2, size=(10, 20))
    h = subgroup_span(g, gens.tolist())
    # the table of a subgroup H is |H| on the characters that vanish on H
    gammas = np.arange(g.size, dtype=np.int64)
    perp = np.ones(g.size, dtype=bool)
    for flat in g.encode_coords(gens):
        perp &= _parity(gammas & flat) == 0
    assert np.array_equal(dft(h).coeffs, np.where(perp, float(h.size), 0.0))


@pytest.mark.parametrize("orders", [[2] * 12, [2, 1, 2, 2, 1], [32, 32, 2], [4, 2, 2, 3]], ids=str)
def test_the_float64_walsh_hadamard_fallback_gives_the_same_bytes(monkeypatch, orders):
    # past _F32_EXACT the pass runs in float64; on integers both are exact
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, g.size // 2, seed=5)
    b = random_subset(g, g.size // 2 + 1, seed=6)  # |A||B| > |G|: the transform route
    dtypes = []
    wht = groups._walsh_hadamard

    def spy(group, x):
        dtypes.append(x.dtype)
        return wht(group, x)

    monkeypatch.setattr(groups, "_walsh_hadamard", spy)
    runs = []
    for limit in (groups._F32_EXACT, g.size - 1):
        monkeypatch.setattr(groups, "_F32_EXACT", limit)
        runs.append((dft(a).coeffs.tobytes(), convolve_counts(a, b).tobytes()))
    # dft, two forward transforms, then the inverse, which is always float64
    assert dtypes == [np.float32] * 3 + [np.float64] * 5
    assert runs[0] == runs[1]


def _record_fft_lengths(monkeypatch):
    """Wrap the np.fft functions the package calls; return the lengths they transform."""
    lengths = []
    for name in ["fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"]:
        original = getattr(np.fft, name)

        def wrapper(*args, _original=original, _sig=inspect.signature(original), **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            shape = np.shape(arg["a"])
            if "axis" in arg:  # 1-D transform: length n, or the axis length
                lengths.append(arg["n"] if arg["n"] is not None else shape[arg["axis"]])
            elif arg["s"] is not None:
                lengths.extend(arg["s"])
            else:
                axes = range(len(shape)) if arg["axes"] is None else arg["axes"]
                lengths.extend(shape[i] for i in axes)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)
    return lengths


@pytest.mark.parametrize("orders", [[2] * 10, [32, 32, 2]], ids=str)
def test_no_fft_runs_over_an_axis_of_length_2(monkeypatch, orders):
    g = FiniteAbelianGroup(orders)
    s = random_subset(g, g.size // 3, seed=1)
    t = random_subset(g, g.size // 5, seed=2)
    lengths = _record_fft_lengths(monkeypatch)
    dft(s)
    convolve_counts(s, t)
    convolve_counts(s, s)
    assert 2 not in lengths
    assert sorted(set(lengths)) == sorted(set(orders) - {2})


@pytest.mark.parametrize("orders", [[3, 5, 11, 13], [13, 13, 13]], ids=str)
def test_groups_without_order_2_keep_the_single_fft(orders):
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, g.size // 3, seed=4)
    expected = np.conj(np.fft.fftn(a.mask.astype(np.float64).reshape(g.shape))).ravel()
    assert np.array_equal(dft(a).coeffs, expected)


@pytest.mark.parametrize("orders, dtype", [
    ([2] * 6, np.float64), ([1], np.float64),
    ([4, 2], np.complex128), ([3, 5, 7], np.complex128), ([32, 32, 2], np.complex128),
], ids=str)
def test_table_dtype_is_real_exactly_on_pure_2_groups(orders, dtype):
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, max(1, g.size // 3), seed=2)
    assert dft(a).coeffs.dtype == dtype
    assert dft_naive(a).coeffs.dtype == dtype


@pytest.mark.parametrize("orders", [[1, 2, 2, 2], [2, 1, 2, 1]], ids=str)
def test_order_1_factors_take_no_fft(monkeypatch, orders):
    # an FFT over an axis of order 1 is the identity, so these are pure
    # 2-groups: a real table, equal to the direct sum
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, 3, seed=1)
    lengths = _record_fft_lengths(monkeypatch)
    t = dft(a)
    counts = convolve_counts(a, a)
    monkeypatch.undo()
    assert lengths == []
    assert t.coeffs.dtype == np.float64
    assert np.array_equal(t.coeffs, dft_naive(a).coeffs)
    assert counts.sum() == a.size ** 2


def test_forged_real_tables_still_raise():
    g = FiniteAbelianGroup([2] * 6)
    a = random_subset(g, 20, seed=3)
    good = dft(a).coeffs
    wrong_zero = good.copy()
    wrong_zero[0] = 19.0
    with pytest.raises(AssertionError, match="coefficient at 0"):
        FourierTable(g, wrong_zero, 20)
    # an energy off by one: a zero coefficient set to 1
    off_by_one = good.copy()
    zero_at = np.flatnonzero(off_by_one == 0.0)
    assert zero_at.size
    off_by_one[zero_at[0]] = 1.0
    assert np.vdot(off_by_one, off_by_one) == 20 * 64 + 1
    with pytest.raises(AssertionError, match="Parseval"):
        FourierTable(g, off_by_one, 20)
    FourierTable(g, good, 20)


@pytest.mark.parametrize("k, share", [(6, 5), (10, 5), (10, 3)])
def test_real_table_and_its_complex_copy_agree(k, share):
    # complex division would round the complex copy's normaliser to
    # 1 - 2^-53 on (10, 3); build_matrix takes the sign of its real part, so
    # both matrices are exact signs
    g = FiniteAbelianGroup([2] * k)
    a = random_subset(g, g.size // share, seed=k)
    real = dft(a)
    cplx = FourierTable(g, real.coeffs.astype(np.complex128), a.size)
    assert cplx.coeffs.dtype == np.complex128
    spec_real, spec_cplx = spectrum(real, 0.1), spectrum(cplx, 0.1)
    assert spec_real == spec_cplx
    m_real = build_matrix(a, spec_real, real).entries
    m_cplx = build_matrix(a, spec_cplx, cplx).entries
    assert m_real.dtype == m_cplx.dtype == np.float64
    assert np.array_equal(np.abs(m_real), np.ones(m_real.shape))
    assert np.array_equal(m_cplx, m_real)


def _threshold_cases():
    # exact ties at +-cut, the floats next to them, +-0, NaN of either sign
    # and +-inf, at a positive cut, at cut = 0 (an empty base set) and at a
    # negative cut (a level below the 1e-9 slack), on a pure 2-group and on
    # one whose negation moves characters; the group is large enough for
    # every case's mask to fit the Parseval capacity
    for g in (FiniteAbelianGroup((2,) * 7), FiniteAbelianGroup((8, 16))):
        for size, eps in ((4, 0.5), (4, 1.0), (0, 0.5), (4, 1e-10)):
            cut = eps * size - 1e-9 * size
            near = [cut, -cut, np.nextafter(cut, np.inf), np.nextafter(cut, -np.inf),
                    np.nextafter(-cut, np.inf), np.nextafter(-cut, -np.inf), 0.0, -0.0,
                    np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0]
            coeffs = np.zeros(g.size)
            coeffs[0] = size
            coeffs[1:1 + len(near)] = near
            coeffs[1 + len(near):] = np.random.default_rng(size).normal(0.0, 1.0, g.size - 1 - len(near))
            yield g, coeffs, size, eps, cut


def test_real_threshold_is_the_magnitude_threshold():
    # the signed comparisons on a real table take the same characters as
    # np.abs(coeffs) >= cut, and then their negatives; the table is a
    # stand-in, since no FourierTable holds NaN
    for g, coeffs, size, eps, cut in _threshold_cases():
        table = types.SimpleNamespace(group=g, coeffs=coeffs, set_size=size)
        got = spectrum(table, eps).mask
        above = np.abs(coeffs) >= cut
        assert np.array_equal(got, above | g.negate(above))
        complex_table = types.SimpleNamespace(group=g, coeffs=coeffs.astype(complex), set_size=size)
        assert np.array_equal(spectrum(complex_table, eps).mask, got)


def test_set_builders_allocate_one_mask():
    # each builder makes the set's mask and hands it over: no copy of it, no
    # |G| float array of magnitudes in the spectrum (whose negation is the
    # mask itself on a pure 2-group, and one more |G| bool array elsewhere)
    # and no |G| int64 counts in a sumset on the XOR route, whose 10^4 pair
    # sums take 80 kB.  A copy of the mask, the magnitudes and the counts
    # would take |G|, 8 |G| and 8 |G| bytes.  Statistical doubling holds one
    # spectrum while it builds the other, 3 |G| bytes, and counts its 32^2
    # pairs by XOR with no |G| counts; the empty set of coordinate rows holds
    # its one mask
    g = FiniteAbelianGroup((2,) * 20)
    small = random_subset(g, 100, seed=5)
    table = dft(random_subset(g, 3000, seed=6))
    rows = g.decode_indices(small.indices())
    # a subgroup of order 2^15, whose spectrum at every level is its 32-element annihilator
    span_table = dft(subgroup_span(g, [tuple(int(i == j) for j in range(20)) for i in range(15)]))
    builders = [
        (lambda: ElementSet.from_indices(g, small.indices()), 1, 100),
        (lambda: ElementSet.from_coords(g, rows), 1, 100),
        (lambda: ElementSet.from_coords(g, rows[:0]), 1, 0),
        (lambda: spectrum(table, 0.05), 2, None),
        (lambda: groups.sumset(small, small), 1, None),
        (lambda: types.SimpleNamespace(size=statistical_doubling(span_table, 0.5).spec_size), 3, 32),
    ]
    for build, masks, size in builders:
        tracemalloc.start()
        try:
            built = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.size == size if size is not None else built.size
        assert peak <= masks * g.size + (1 << 17)
