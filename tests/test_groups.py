import itertools
import math

import numpy as np
import pytest

from oracles import (char_value, coords, decode, encode, pair_counts, pairs_summing_into,
                     subgroup_span_fixpoint)
from specdbl import groups
from specdbl.groups import (
    ElementSet,
    FiniteAbelianGroup,
    char_matrix,
    convolve_counts,
    difference_set,
    random_subset,
    subgroup_span,
    sumset,
)

SMALL_ORDERS = [[2], [3], [4], [2, 2], [2, 3], [4, 4], [2, 2, 2], [2, 3, 5], [6, 2]]


def test_make_group_sizes():
    assert FiniteAbelianGroup([2, 2, 2, 2]).size == 16
    assert FiniteAbelianGroup([4]).size == 4
    assert FiniteAbelianGroup([2, 3, 5]).size == 30
    assert FiniteAbelianGroup([4]).orders != FiniteAbelianGroup([2, 2]).orders


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0, 2])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([2, -3])


def test_group_size_ceiling(monkeypatch):
    with pytest.raises(ValueError):
        FiniteAbelianGroup([2] * 21)
    monkeypatch.setenv("SPECDBL_MAX_GROUP", str(1 << 21))
    assert FiniteAbelianGroup([2] * 21).size == 1 << 21
    monkeypatch.setenv("SPECDBL_MAX_GROUP", "16")
    with pytest.raises(ValueError):
        FiniteAbelianGroup([32])
    monkeypatch.setenv("SPECDBL_MAX_GROUP", "zero")
    with pytest.raises(ValueError):
        FiniteAbelianGroup([2])


def test_encode_examples():
    g = FiniteAbelianGroup([2, 2])
    assert g.encode_coords(np.array([(0, 0), (1, 0), (0, 1)])).tolist() == [0, 1, 2]
    g23 = FiniteAbelianGroup([2, 3])
    assert g23.encode_coords(np.array([1, 2])) == 5
    assert [encode(g, (0, 1)), encode(g23, (1, 2))] == [2, 5]
    assert g23.decode_indices(np.array([5])).tolist() == [[1, 2]]


def test_encode_decode_roundtrip_exhaustive():
    # the codec against the one-coordinate-at-a-time oracle, over all of each group
    for orders in SMALL_ORDERS:
        g = FiniteAbelianGroup(orders)
        every = np.array(list(itertools.product(*map(range, orders))))
        assert g.encode_coords(every).tolist() == [encode(g, c) for c in every]
        assert sorted(g.encode_coords(every).tolist()) == list(range(g.size))
        assert np.array_equal(g.decode_indices(g.encode_coords(every)), every)


def test_encode_rejects_out_of_range():
    # encode_coords reduces mod the orders; from_coords checks the range
    # and decode_indices rejects an index outside the group
    g = FiniteAbelianGroup([2, 3])
    for bad in [(2, 0), (0, -1), (0, 0, 0)]:
        with pytest.raises(ValueError):
            ElementSet.from_coords(g, [bad])
    for index in (6, -1):
        with pytest.raises(ValueError):
            g.decode_indices(np.array([index]))


def test_vectorised_codec_matches_scalar():
    for orders in SMALL_ORDERS + [[1, 3], [7], [2] * 10]:
        g = FiniteAbelianGroup(orders)
        idx = np.arange(g.size)
        coords = g.decode_indices(idx)
        for i in range(g.size):
            assert tuple(coords[i]) == decode(g, i)
        assert np.array_equal(g.encode_coords(coords), idx)
        empty = g.decode_indices(np.array([], dtype=np.int64))
        assert empty.shape == (0, g.rank)
        assert g.encode_coords(empty).shape == (0,)
        # one coordinate row encodes to a scalar, reduced mod the orders
        last = g.encode_coords(coords[-1] + np.array(orders))
        assert np.ndim(last) == 0 and last == g.size - 1


def test_decode_holds_one_copy_of_the_coordinates():
    # the (m, rank) result plus one chunk of np.unravel_index's per-axis
    # arrays; unravelling all rows and stacking them held two full copies
    import tracemalloc

    g = FiniteAbelianGroup((2,) * 20)
    indices = np.arange(4 * groups._DECODE_CHUNK, dtype=np.int64) * 3
    tracemalloc.start()
    try:
        coords = g.decode_indices(indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.encode_coords(coords), indices)
    chunk = groups._DECODE_CHUNK * g.rank * 8
    assert coords.nbytes <= peak <= coords.nbytes + chunk + (1 << 20)


def test_negation_matches_coordinate_negation():
    for orders in SMALL_ORDERS + [[1, 3], [5], [9, 2, 4], [2] * 7]:
        g = FiniteAbelianGroup(orders)
        expected = [encode(g, tuple(-c % n for c, n in zip(decode(g, i), orders)))
                    for i in range(g.size)]
        assert g.negate(np.arange(g.size)).tolist() == expected
        s = random_subset(g, (g.size + 1) // 2, seed=len(expected))
        assert set(np.flatnonzero(g.negate(s.mask)).tolist()) == {expected[i] for i in s.indices()}


def _negate_per_axis(group, values):
    """values(-x) by one np.take per axis of order above 2 on the values themselves."""
    x = np.asarray(values).reshape(group.shape)
    for axis, n in enumerate(group.shape):
        if n > 2:
            x = np.take(x, -np.arange(n) % n, axis=axis)
    return x.reshape(group.size)


@pytest.mark.parametrize("orders", [[3, 2, 5], [9, 2, 4], [2, 2, 3, 1, 7], [4, 4], [5, 1]])
def test_negation_gather_matches_the_per_axis_form(orders):
    g = FiniteAbelianGroup(orders)
    rng = np.random.default_rng(len(orders))
    for values in (rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size),
                   rng.random(g.size) < 0.5, np.arange(g.size)):
        for _ in range(2):  # the first call builds the permutation, the second reuses it
            got = g.negate(values)
            assert got.dtype == values.dtype
            assert np.array_equal(got, _negate_per_axis(g, values))


def test_negation_on_a_pure_2_group_returns_the_values():
    g = FiniteAbelianGroup([2, 1, 2, 2])
    values = np.arange(g.size, dtype=float)
    assert np.shares_memory(g.negate(values), values)
    assert g._negation is None


def test_coords_are_tuples_of_python_ints():
    g = FiniteAbelianGroup([3, 2, 5])
    s = random_subset(g, 11, seed=2)
    rows = coords(s)
    assert rows == [decode(g, i) for i in s.indices()]
    assert all(type(row) is tuple and all(type(c) is int for c in row) for row in rows)
    assert coords(ElementSet.from_indices(g, [])) == []


def test_from_coords_matches_scalar_encode():
    g = FiniteAbelianGroup([2, 3, 5])
    rng = np.random.default_rng(4)
    rows = [tuple(int(rng.integers(n)) for n in g.orders) for _ in range(20)]
    expected = ElementSet.from_indices(g, [encode(g, r) for r in rows])
    assert ElementSet.from_coords(g, rows) == expected
    assert ElementSet.from_coords(g, iter(rows)) == expected
    assert ElementSet.from_coords(g, []).size == 0
    for bad, message in [([(0, 0, 0), (1, 3, 0)], "coordinate 3 out of range for Z_3"),
                         ([(0, 0, -1)], "coordinate -1 out of range for Z_5"),
                         ([(10**30, 0, 0)], "out of range for Z_2"),
                         ([(0, 0)], "expected 3 coordinates")]:
        with pytest.raises(ValueError, match=message):
            ElementSet.from_coords(g, bad)


def test_from_coords_names_a_coordinate_past_int64():
    # the row fails np.array's int64 cast; the message names the coordinate
    # and its factor, in any column
    g = FiniteAbelianGroup([2, 3])
    for rows, message in [([[0, 10**30]], f"coordinate {10**30} out of range for Z_3"),
                          ([[1, 2], [-10**30, 0]], f"coordinate {-10**30} out of range for Z_2")]:
        with pytest.raises(ValueError) as err:
            ElementSet.from_coords(g, rows)
        assert str(err.value) == message


def test_from_coords_names_the_first_offender_in_row_major_order():
    # the range test is a minimum and maxima; rows that fail it are compared
    # cell by cell, and the message names the first offending cell, row by
    # row, even where a later row offends in an earlier column
    g = FiniteAbelianGroup([2, 3, 5])
    for rows, message in [([(0, 0, -1)], "coordinate -1 out of range for Z_5"),
                          ([(0, 3, 0)], "coordinate 3 out of range for Z_3"),
                          ([(1, 2, 4), (2, 0, 0)], "coordinate 2 out of range for Z_2"),
                          ([(0, 0, 5), (7, 0, 0)], "coordinate 5 out of range for Z_5"),
                          ([(1, 2, 4), (0, 0, 9), (-1, 0, 0)], "coordinate 9 out of range for Z_5"),
                          ([(0, 0, 0), (1, -1, 7)], "coordinate -1 out of range for Z_3"),
                          ([(0, 0, 2**63), (5, 0, 0)], f"coordinate {2**63} out of range for Z_5")]:
        with pytest.raises(ValueError) as err:
            ElementSet.from_coords(g, rows)
        assert str(err.value) == message
    # a coordinate past the smallest order, in range for its own factor
    assert ElementSet.from_coords(g, [(1, 2, 4)]).indices().tolist() == [29]
    # equal orders: the one maximum finds it
    with pytest.raises(ValueError) as err:
        ElementSet.from_coords(FiniteAbelianGroup([2] * 4), [(0, 1, 1, 0), (1, 0, 2, 0)])
    assert str(err.value) == "coordinate 2 out of range for Z_2"


@pytest.mark.parametrize("orders", [(2,) * 18, (32, 32, 2), (3, 5, 11, 13), (3, 1, 4)], ids=str)
def test_from_coords_encodes_as_encode_coords(orders):
    # rows in range encode by one product with the place values, to the
    # indices the wrapping codec gives
    g = FiniteAbelianGroup(orders)
    rows = np.random.default_rng(list(orders)).integers(0, orders, size=(500, len(orders)))
    expected = np.zeros(g.size, dtype=bool)
    expected[g.encode_coords(rows)] = True
    assert np.array_equal(ElementSet.from_coords(g, rows).mask, expected)
    assert np.array_equal(ElementSet.from_coords(g, rows.tolist()).mask, expected)


def test_from_indices_takes_integer_arrays_only():
    g = FiniteAbelianGroup([2, 2])
    assert ElementSet.from_indices(g, np.array([3, 1], dtype=np.uint8)).indices().tolist() == [1, 3]
    assert ElementSet.from_indices(g, range(2)).indices().tolist() == [0, 1]
    for empty in ([], np.array([]), np.zeros(0, dtype=bool)):
        assert ElementSet.from_indices(g, empty).size == 0
    # neither floats nor a boolean mask are indices: [1.7] is not {1}, and
    # [False, True, True] not {0, 1}
    for bad in ([1.7], [True, True], np.array([False, True, True]), np.array([0.0, 2.0])):
        with pytest.raises(ValueError, match="element indices must be integers"):
            ElementSet.from_indices(g, bad)


def test_char_value_examples():
    g4 = FiniteAbelianGroup([4])
    assert char_value(g4, (1,), (1,)) == pytest.approx(1j)
    assert char_value(g4, (0,), (3,)) == pytest.approx(1.0)
    g22 = FiniteAbelianGroup([2, 2])
    assert char_value(g22, (1, 1), (1, 0)) == pytest.approx(-1.0)


def test_char_value_is_a_character():
    # unit modulus, symmetry in (gamma, x), and the homomorphism law,
    # exhaustively on small groups
    for orders in [[2, 3], [4], [2, 2, 2], [3, 3]]:
        g = FiniteAbelianGroup(orders)
        elems = [decode(g, i) for i in range(g.size)]
        for gamma in elems:
            for x in elems:
                v = char_value(g, gamma, x)
                assert abs(abs(v) - 1.0) < 1e-12
                assert v == pytest.approx(char_value(g, x, gamma))
        for gamma in elems:
            for x in elems:
                for y in elems:
                    xy = tuple((a + b) % n for a, b, n in zip(x, y, orders))
                    lhs = char_value(g, gamma, xy)
                    rhs = char_value(g, gamma, x) * char_value(g, gamma, y)
                    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_char_matrix_matches_scalar():
    g = FiniteAbelianGroup([2, 3, 2])
    rows = np.array([0, 3, 7, 11])
    cols = np.array([1, 2, 5, 6, 10])
    m = char_matrix(g, rows, cols)
    for i, a in enumerate(rows):
        for j, c in enumerate(cols):
            expected = char_value(g, decode(g, c), decode(g, a))
            assert m[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("orders", [(32, 32, 2), (13, 13, 13), (3, 5, 11, 13), (2, 3, 2), (2,) * 12])
def test_char_matrix_phases_match_the_int64_product(orders):
    # the float64 phase product is exact: the same tabled root, bit for bit,
    # as the int64 product computed here
    g = FiniteAbelianGroup(orders)
    rng = np.random.default_rng(list(orders))
    rows = rng.choice(g.size, size=min(g.size, 300), replace=False)
    cols = rng.choice(g.size, size=min(g.size, 200), replace=False)
    L = np.lcm.reduce(orders)
    w = L // np.array(orders)
    phases = ((g.decode_indices(rows) * w) @ g.decode_indices(cols).T) % L
    m = char_matrix(g, rows, cols)
    assert np.array_equal(m, g.root_table()[phases])
    if max(orders) == 2:
        assert m.dtype == np.float64
        assert np.array_equal(m, 1.0 - 2.0 * phases)
    else:
        assert m.dtype == np.complex128


def _naive_sumset(group, s, t):
    return set(np.flatnonzero(pair_counts(group, s, t)).tolist())


def test_sumset_against_naive_oracle():
    seed = 0
    # the last three put order-2 factors between others, so Walsh-Hadamard
    # chunks and FFT axes interleave
    for orders in SMALL_ORDERS + [[2, 2, 2, 2], [8, 8], [60], [2, 3, 2, 5, 2], [32, 32, 2], [4, 2, 2, 3]]:
        g = FiniteAbelianGroup(orders)
        for trial in range(4):
            s = random_subset(g, min(g.size, 1 + (trial * 3) % (g.size)), seed)
            t = random_subset(g, min(g.size, 1 + (trial * 5) % (g.size)), seed + 1)
            seed += 2
            counts = convolve_counts(s, t)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, pair_counts(g, s, t))
            assert np.array_equal(convolve_counts(s, s), pair_counts(g, s, s))
            got = sumset(s, t)
            assert set(got.indices()) == _naive_sumset(g, s, t)
            assert got == sumset(t, s)


def test_sumset_identity_and_empty():
    g = FiniteAbelianGroup([2, 2, 2])
    s = random_subset(g, 5, seed=7)
    zero = ElementSet.from_indices(g, [0])
    assert sumset(s, zero) == s
    empty = ElementSet.from_indices(g, [])
    assert len(sumset(s, empty)) == 0


def test_negate_involution_and_difference():
    for orders in [[5], [2, 3], [4, 4]]:
        g = FiniteAbelianGroup(orders)
        s = random_subset(g, g.size // 2, seed=3)
        assert np.array_equal(g.negate(g.negate(s.mask)), s.mask)
        minus = ElementSet(g, g.negate(s.mask))
        assert set(difference_set(s, s).indices()) == _naive_sumset(g, s, minus)
        assert difference_set(ElementSet.from_indices(g, [0]), s) == minus
    g2 = FiniteAbelianGroup([2, 2, 2])
    s = random_subset(g2, 4, seed=9)
    # every element is its own inverse
    assert difference_set(ElementSet.from_indices(g2, [0]), s) == s


def test_subgroup_span_examples():
    g = FiniteAbelianGroup([2, 2, 2, 2])
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert len(h) == 4
    assert set(h.indices()) == {0, 1, 2, 3}
    assert subgroup_span(g, []).indices().tolist() == [0]
    cyc = FiniteAbelianGroup([12])
    assert len(subgroup_span(cyc, [(4,)])) == 3
    # closed under addition
    assert sumset(h, h) == h


def _random_generators(rng, orders):
    """0-4 generators whose coordinates are small, negative, zero or past
    int64, with a repeated generator now and then."""
    pool = [0, 1, -1, 2**64 + 3, -(2**70) - 1]
    gens = [tuple(int(rng.integers(-3 * n, 3 * n + 1)) if rng.random() < 0.6
                  else pool[rng.integers(len(pool))] for n in orders)
            for _ in range(rng.integers(0, 5))]
    if gens and rng.random() < 0.3:
        gens.append(gens[0])
    return gens


def test_subgroup_span_matches_the_fixpoint_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        orders = [int(n) for n in rng.integers(1, 9, size=rng.integers(1, 5))]
        g = FiniteAbelianGroup(orders)
        gens = _random_generators(rng, orders)
        assert subgroup_span(g, gens) == subgroup_span_fixpoint(g, gens), (orders, gens)
    named = [
        ([1, 1], []),
        ([1, 4], [(5, 3)]),
        ([6], [(0,), (0,)]),
        ([12], [(-4,), (-4,), (6,)]),
        ([2, 2], [(99999999999999999999999, 0)]),
        ([3, 5, 7], [(-(2**80), 2**66, -1)]),
        ([8, 8], [(2, 4), (4, 2), (0, 0)]),
        ([2, 4, 8, 8], [(1, 1, 1, 1), (0, 2, 4, 6)]),
        ([4096], [(1,)]),
    ]
    for orders, gens in named:
        g = FiniteAbelianGroup(orders)
        assert subgroup_span(g, gens) == subgroup_span_fixpoint(g, gens), (orders, gens)


def test_subgroup_span_doubles_each_generator_in(monkeypatch):
    # the fixpoint decodes every member once per multiple of a generator,
    # 4096 times for 1 in Z_4096; doubling takes one decode per round, and
    # at most bit_length(4096) = 13 rounds
    calls = []
    decode = FiniteAbelianGroup.decode_indices
    monkeypatch.setattr(FiniteAbelianGroup, "decode_indices",
                        lambda self, indices: calls.append(1) or decode(self, indices))
    h = subgroup_span(FiniteAbelianGroup([4096]), [(1,)])
    assert h.size == 4096
    assert len(calls) <= (4096).bit_length()


def test_random_subset_deterministic():
    g = FiniteAbelianGroup([2] * 6)
    a = random_subset(g, 10, seed=42)
    b = random_subset(g, 10, seed=42)
    c = random_subset(g, 10, seed=43)
    assert a == b
    assert len(a) == 10
    assert a != c
    with pytest.raises(ValueError):
        random_subset(g, 65, seed=0)


def test_element_set_immutable():
    g = FiniteAbelianGroup([2, 2])
    s = ElementSet.from_indices(g, [0, 3])
    with pytest.raises(AttributeError):
        s.size = 5
    with pytest.raises(ValueError):
        s.mask[0] = False
    with pytest.raises(ValueError):
        ElementSet.from_indices(g, [4])


def test_convolution_on_a_2_group_rounds_nothing(monkeypatch):
    # the Walsh-Hadamard path is exact: the raw counts handed to np.rint
    # are integers already
    g = FiniteAbelianGroup([2] * 12)
    s = random_subset(g, 3000, seed=5)
    t = random_subset(g, 2500, seed=6)
    raws = []
    rint = np.rint

    def recording_rint(x, *args, **kwargs):
        raws.append(np.array(x))
        return rint(x, *args, **kwargs)

    monkeypatch.setattr(np, "rint", recording_rint)
    counts = convolve_counts(s, t)
    self_counts = convolve_counts(s, s)
    monkeypatch.undo()
    assert len(raws) == 2
    assert np.array_equal(raws[0], counts) and np.array_equal(raws[1], self_counts)
    assert counts.sum() == s.size * t.size and self_counts.sum() == s.size ** 2


def test_convolution_on_z2_7_matches_the_pairwise_count():
    # seven order-2 axes: a Walsh-Hadamard chunk of six with a stride behind
    # it, then one ending in the last axis
    g = FiniteAbelianGroup([2] * 7)
    s = random_subset(g, 40, seed=11)
    t = random_subset(g, 25, seed=12)
    pairs = np.bitwise_xor.outer(s.indices(), t.indices()).ravel()
    assert np.array_equal(convolve_counts(s, t), np.bincount(pairs, minlength=g.size))
    assert np.array_equal(convolve_counts(s, t), pair_counts(g, s, t))


@pytest.mark.parametrize("orders, s_size, t_size, route", [
    ((1,), 1, 1, "xor"),
    ((2, 1, 2, 2, 1), 1, 7, "xor"),  # |S||T| one below |G| = 8
    ((2, 1, 2, 2, 1), 2, 4, "xor"),  # equal to |G|
    ((2, 1, 2, 2, 1), 3, 3, "transform"),  # one above
    ((2, 1, 2, 2, 1), 0, 5, "xor"),
    ((2,) * 10, 31, 33, "xor"),
    ((2,) * 10, 32, 32, "xor"),
    ((2,) * 10, 25, 41, "transform"),
    ((2,) * 10, 0, 40, "xor"),
    ((2,) * 10, 300, 200, "transform"),
    ((2, 3, 4), 2, 3, "transform"),  # one order-2 factor beside larger ones: no XOR
    ((4, 2, 2), 2, 8, "transform"),
], ids=str)
def test_both_convolution_routes_match_the_pair_oracle(monkeypatch, orders, s_size, t_size, route):
    # a pure 2-group with |S||T| <= |G| counts XORs of flat indices; every
    # other case transforms, which the spy counts.  On the XOR route sumset
    # scatters the XORs into its mask and takes no counts at all
    g = FiniteAbelianGroup(orders)
    s = random_subset(g, s_size, seed=s_size)
    t = random_subset(g, t_size, seed=100 + t_size)
    assert s != t or s.size == t.size == g.size
    transforms, counted = [], []
    transform, count = groups._transform, groups.convolve_counts

    def spy(*args, **kwargs):
        transforms.append(args[0])
        return transform(*args, **kwargs)

    def counting(*args):
        counted.append(args)
        return count(*args)

    monkeypatch.setattr(groups, "_transform", spy)
    counts = convolve_counts(s, t)
    swapped = convolve_counts(t, s)
    assert bool(transforms) == (route == "transform")
    monkeypatch.setattr(groups, "convolve_counts", counting)
    got = sumset(s, t)
    assert bool(counted) == (route == "transform")
    monkeypatch.undo()
    expected = pair_counts(g, s, t)
    assert counts.dtype == np.int64 and counts.shape == (g.size,)
    assert np.array_equal(counts, expected) and np.array_equal(swapped, expected)
    assert np.array_equal(got.mask, counts > 0)
    assert set(got.indices().tolist()) == _naive_sumset(g, s, t)
    assert counts.sum() == s.size * t.size


@pytest.mark.parametrize("orders", [(2,) * 4, (3, 3), (4, 2), (3, 5)], ids=str)
def test_sumset_of_more_than_g_elements_is_the_group(monkeypatch, orders):
    # past |S| + |T| = |G| the sets S and x - T meet for every x, so the sumset
    # is the group, taken with no transform and no pair sums; at |G| it is
    # counted, and a singleton S leaves it one element short of the group
    g = FiniteAbelianGroup(orders)
    transform, xor_pairs = groups._transform, groups._xor_pairs
    for s_size in (1, g.size // 2, g.size - 1):
        for total in (g.size, g.size + 1):
            s = random_subset(g, s_size, seed=s_size)
            t = random_subset(g, total - s_size, seed=total)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(groups, "_transform", lambda *a, **k: calls.append(a) or transform(*a, **k))
                patch.setattr(groups, "_xor_pairs", lambda *a: calls.append(a) or xor_pairs(*a))
                got = sumset(s, t)
            assert np.array_equal(got.mask, convolve_counts(s, t) > 0)
            assert bool(calls) == (total == g.size)
            if total > g.size:
                assert got.size == g.size
            elif s_size == 1:
                assert got.size == g.size - 1


def _order_2_runs(shape):
    """The runs of consecutive order-2 axes of ``shape``, as lists of axis positions."""
    runs, axis = [], 0
    for is_two, run in itertools.groupby(shape, key=lambda n: n == 2):
        width = len(list(run))
        if is_two:
            runs.append(list(range(axis, axis + width)))
        axis += width
    return runs


def _runs_id(orders):
    """``(2, 2, 2, 3, 2)`` -> ``'2^3,3,2^1'``."""
    return ",".join(f"{n}^{len(list(run))}" for n, run in itertools.groupby(orders))


WHT_PLAN_ORDERS = ([(2,) * m for m in range(1, 21)]
                   + [(2,) * (m // 2) + (odd,) + (2,) * (m - m // 2)
                      for odd in (3, 1) for m in range(1, 21)]
                   + [(2,) * 9 + (3,) + (2,) * 11, (2, 1, 2, 2, 1)])


@pytest.mark.parametrize("orders", WHT_PLAN_ORDERS, ids=_runs_id)
def test_walsh_hadamard_plan_covers_each_order_2_axis_once_in_balanced_chunks(monkeypatch, orders):
    # each run of order-2 axes, alone or split by an odd or an order-1 axis,
    # is cut in order into the fewest chunks of at most _WHT_CHUNK axes, with
    # sizes within one of each other, smaller first; (pre, r, post) locates
    # each chunk in the array shape
    monkeypatch.setenv("SPECDBL_MAX_GROUP", str(3 << 20))
    g = FiniteAbelianGroup(orders)
    covered, start = [], 0
    for pre, r, post in g._wht_blocks:
        assert 1 <= r <= groups._WHT_CHUNK and pre * (1 << r) * post == g.size
        start = next(s for s in range(start, g.rank)
                     if math.prod(g.shape[:s]) == pre and g.shape[s] == 2)
        assert g.shape[start:start + r] == (2,) * r
        covered.append(range(start, start + r))
        start += r
    runs = _order_2_runs(g.shape)
    assert [a for chunk in covered for a in chunk] == [a for run in runs for a in run]
    for run in runs:
        sizes = [len(chunk) for chunk in covered if chunk[0] in run]
        assert len(sizes) == -(-len(run) // groups._WHT_CHUNK)
        assert sizes == sorted(sizes) and sizes[-1] - sizes[0] <= 1


@pytest.mark.parametrize("m", range(1, 13))
def test_walsh_hadamard_equals_one_sylvester_product(m):
    # the chunked pass over Z_2^m is the product with the one 2^m x 2^m
    # Sylvester matrix (symmetric; the flat index is the bit vector), bit for
    # bit on 0/1 input, in float32 and float64; __wrapped__ keeps the large
    # matrices out of the cache
    g = FiniteAbelianGroup([2] * m)
    x = np.random.default_rng(m).integers(0, 2, size=g.size)
    for dtype in (np.float32, np.float64):
        expected = x.astype(dtype) @ groups._sylvester.__wrapped__(m, dtype)
        got = groups._walsh_hadamard(g, x.astype(dtype).reshape(g.shape))
        assert got.dtype == dtype and got.shape == g.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("target", ["zero", "random", "group"])
@pytest.mark.parametrize("orders, s_size, t_size, route", [
    ((2,) * 6, 8, 8, "xor"),  # |S||T| = |G|
    ((2,) * 6, 5, 13, "inner"),  # |G| + 1
    ((2, 1, 2, 2, 1), 2, 4, "xor"),
    ((2, 1, 2, 2, 1), 3, 3, "inner"),
    ((4, 2), 3, 5, "convolution"),
    ((3, 3, 3), 6, 9, "convolution"),
    ((3, 5, 7), 20, 30, "convolution"),
], ids=str)
def test_pair_count_routes_match_the_coordinate_oracle(monkeypatch, orders, s_size, t_size,
                                                       route, target):
    # a pure 2-group looks XOR sums up in U while |S||T| <= |G| and takes
    # the inner product of three transforms past it (two when T is S); a
    # group with an axis of order above 2 sums the convolution over U
    g = FiniteAbelianGroup(orders)
    s = random_subset(g, s_size, seed=s_size)
    t = random_subset(g, t_size, seed=100 + t_size)
    u = {"zero": ElementSet.from_indices(g, [0]),
         "random": random_subset(g, g.size // 3, seed=7),
         "group": ElementSet(g, np.ones(g.size, dtype=bool))}[target]
    transforms, convolved = [], []
    transform, convolve = groups._transform, groups.convolve_counts

    def spy(*args, **kwargs):
        transforms.append(args)
        return transform(*args, **kwargs)

    def counting(*args):
        convolved.append(args)
        return convolve(*args)

    monkeypatch.setattr(groups, "_transform", spy)
    monkeypatch.setattr(groups, "convolve_counts", counting)
    got = groups._pair_count(s, t, u)
    assert len(transforms) == {"xor": 0, "inner": 3, "convolution": 2}[route]
    assert bool(convolved) == (route == "convolution")
    self_count = groups._pair_count(s, s, u)
    monkeypatch.undo()
    assert type(got) is int and got == pairs_summing_into(g, s, t, u)
    assert self_count == pairs_summing_into(g, s, s, u)
    if target == "group":
        assert got == s.size * t.size


def test_pair_count_routes_past_its_int64_bound_through_the_convolution(monkeypatch):
    # |U| |G| sqrt(|S||T|) = 10 * 64 * 9 = 5760 bounds every partial sum of
    # the inner product: a bound of 5760 sends the count to the convolution,
    # one of 5761 keeps the inner product, and both give the oracle's count
    g = FiniteAbelianGroup([2] * 6)
    s, t, u = random_subset(g, 9, seed=1), random_subset(g, 9, seed=2), random_subset(g, 10, seed=3)
    expected = pairs_summing_into(g, s, t, u)
    convolve = groups.convolve_counts
    for bound, convolved in ((5760, True), (5761, False)):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_I64_EXACT", bound)
            patch.setattr(groups, "convolve_counts", lambda *a: calls.append(a) or convolve(*a))
            assert groups._pair_count(s, t, u) == expected
        assert bool(calls) == convolved


def test_pair_count_names_the_remainder_of_a_wrong_transform(monkeypatch):
    # a stand-in transform one too large at the trivial character adds
    # (9 + 1)(9 + 1)(10 + 1) - 9 * 9 * 10 = 290 to the inner product: 34 mod 64
    g = FiniteAbelianGroup([2] * 6)
    s, t, u = random_subset(g, 9, seed=1), random_subset(g, 9, seed=2), random_subset(g, 10, seed=3)
    transform = groups._transform

    def off_by_one(*args, **kwargs):
        y = transform(*args, **kwargs)
        y.flat[0] += 1
        return y

    monkeypatch.setattr(groups, "_transform", off_by_one)
    with pytest.raises(AssertionError, match="remainder 34 mod"):
        groups._pair_count(s, t, u)


@pytest.mark.parametrize("orders", [(1,), (2,), (1, 1), (2, 1, 2, 2, 1), (1, 2, 2, 2), (2,) * 7],
                         ids=str)
def test_char_matrix_folds_column_flips(orders, monkeypatch):
    # offset 1 flips a column of a pure 2-group, folded into the phase product:
    # the character value times (-1)^offset (times 1 when L = 1, where every
    # phase is 0 mod 1), bit for bit +1.0 or -1.0, and the int64 product the
    # guard falls back to gives the same matrix
    g = FiniteAbelianGroup(orders)
    L = g._root_lcm
    idx = np.arange(g.size)
    rng = np.random.default_rng(len(orders))
    signs = {int(np.float64(v).view(np.uint64)) for v in (1.0, -1.0)}
    for flips in (np.zeros(g.size, dtype=bool), np.ones(g.size, dtype=bool),
                  rng.random(g.size) < 0.5):
        m = char_matrix(g, idx, idx[::-1], flips)
        assert m.dtype == np.float64 and m.shape == (g.size, g.size)
        assert set(np.unique(m.view(np.uint64)).tolist()) <= signs
        for i, a in enumerate(idx):
            for j, c in enumerate(idx[::-1]):
                sign = g.root_table()[int(flips[j]) % L]
                assert m[i, j] == char_value(g, decode(g, c), decode(g, a)).real * sign
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_F64_EXACT", 1)
            fallback = char_matrix(g, idx, idx[::-1], flips)
        assert fallback.dtype == np.float64 and fallback.tobytes() == m.tobytes()


@pytest.mark.parametrize("orders", [(4, 4), (3, 5, 7), (2, 4, 8)], ids=str)
def test_char_matrix_offsets_off_pure_2_groups(orders, monkeypatch):
    # L > 2: an offset is added to the phase before its reduction mod L, in
    # the float64 product's path and in the int64 fallback alike
    g = FiniteAbelianGroup(orders)
    L = g._root_lcm
    rng = np.random.default_rng(list(orders))
    rows = rng.choice(g.size, size=min(g.size, 60), replace=False)
    cols = rng.choice(g.size, size=min(g.size, 40), replace=False)
    offsets = rng.integers(-L, 2 * L, size=cols.size)
    w = L // np.array(orders)
    phases = ((g.decode_indices(rows) * w) @ g.decode_indices(cols).T + offsets) % L
    m = char_matrix(g, rows, cols, offsets)
    assert m.tobytes() == g.root_table()[phases].tobytes()
    # row blocks of one row, and of 7 rows with a short last block
    for cells in (1, 7 * cols.size):
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_BLOCK_CELLS", cells)
            assert char_matrix(g, rows, cols, offsets).tobytes() == m.tobytes()
    monkeypatch.setattr(groups, "_F64_EXACT", 1)
    assert char_matrix(g, rows, cols, offsets).tobytes() == m.tobytes()


@pytest.mark.parametrize("orders", [(1,), (2,), (1, 1), (2, 1, 2, 2, 1), (1, 2, 2, 2), (2,) * 7],
                         ids=str)
def test_char_matrix_on_pure_2_groups_is_exact_signs(orders):
    # written from the sign bit of the phase: bit for bit +1.0 or -1.0, never
    # -0.0 or a rounded value, and equal to the character oracle
    g = FiniteAbelianGroup(orders)
    idx = np.arange(g.size)
    m = char_matrix(g, idx, idx[::-1])
    assert m.dtype == np.float64 and m.shape == (g.size, g.size)
    signs = {int(np.float64(v).view(np.uint64)) for v in (1.0, -1.0)}
    assert set(np.unique(m.view(np.uint64)).tolist()) <= signs
    for i, a in enumerate(idx):
        for j, c in enumerate(idx[::-1]):
            assert m[i, j] == char_value(g, decode(g, c), decode(g, a)).real
