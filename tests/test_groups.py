import itertools

import numpy as np
import pytest

from oracles import char_value, decode, encode, pair_counts
from specdbl import groups
from specdbl.groups import (
    ElementSet,
    FiniteAbelianGroup,
    char_matrix,
    convolve_counts,
    difference_set,
    negate_set,
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


def test_negation_matches_coordinate_negation():
    for orders in SMALL_ORDERS + [[1, 3], [5], [9, 2, 4], [2] * 7]:
        g = FiniteAbelianGroup(orders)
        expected = [encode(g, tuple(-c % n for c, n in zip(decode(g, i), orders)))
                    for i in range(g.size)]
        assert g.negate(np.arange(g.size)).tolist() == expected
        s = random_subset(g, (g.size + 1) // 2, seed=len(expected))
        assert set(negate_set(s).indices().tolist()) == {expected[i] for i in s.indices()}


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
    rows = s.coords()
    assert rows == [decode(g, i) for i in s.indices()]
    assert all(type(row) is tuple and all(type(c) is int for c in row) for row in rows)
    assert ElementSet.from_indices(g, []).coords() == []


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
        assert negate_set(negate_set(s)) == s
        assert set(difference_set(s, s).indices()) == _naive_sumset(g, s, negate_set(s))
    g2 = FiniteAbelianGroup([2, 2, 2])
    s = random_subset(g2, 4, seed=9)
    assert negate_set(s) == s  # every element is its own inverse


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
    # other case transforms, which the spy counts
    g = FiniteAbelianGroup(orders)
    s = random_subset(g, s_size, seed=s_size)
    t = random_subset(g, t_size, seed=100 + t_size)
    assert s != t or s.size == t.size == g.size
    transforms = []
    transform = groups._transform

    def spy(*args, **kwargs):
        transforms.append(args[0])
        return transform(*args, **kwargs)

    monkeypatch.setattr(groups, "_transform", spy)
    counts = convolve_counts(s, t)
    swapped = convolve_counts(t, s)
    got = sumset(s, t)
    assert bool(transforms) == (route == "transform")
    monkeypatch.undo()
    expected = pair_counts(g, s, t)
    assert counts.dtype == np.int64 and counts.shape == (g.size,)
    assert np.array_equal(counts, expected) and np.array_equal(swapped, expected)
    assert set(got.indices().tolist()) == _naive_sumset(g, s, t)
    assert counts.sum() == s.size * t.size


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
