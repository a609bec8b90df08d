import itertools

import numpy as np
import pytest

from specdbl.groups import (
    ElementSet,
    char_value,
    char_matrix,
    convolve_counts,
    difference_set,
    element_decode,
    element_encode,
    make_group,
    negate_set,
    random_subset,
    subgroup_span,
    sumset,
)

SMALL_ORDERS = [[2], [3], [4], [2, 2], [2, 3], [4, 4], [2, 2, 2], [2, 3, 5], [6, 2]]


def test_make_group_sizes():
    assert make_group([2, 2, 2, 2]).size == 16
    assert make_group([4]).size == 4
    assert make_group([2, 3, 5]).size == 30
    assert make_group([4]).orders != make_group([2, 2]).orders


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([0, 2])
    with pytest.raises(ValueError):
        make_group([2, -3])


def test_group_size_ceiling(monkeypatch):
    with pytest.raises(ValueError):
        make_group([2] * 21)
    monkeypatch.setenv("SPECDBL_MAX_GROUP", str(1 << 21))
    assert make_group([2] * 21).size == 1 << 21
    monkeypatch.setenv("SPECDBL_MAX_GROUP", "16")
    with pytest.raises(ValueError):
        make_group([32])
    monkeypatch.setenv("SPECDBL_MAX_GROUP", "zero")
    with pytest.raises(ValueError):
        make_group([2])


def test_encode_examples():
    g = make_group([2, 2])
    assert element_encode(g, (0, 0)) == 0
    assert element_encode(g, (1, 0)) == 1
    assert element_encode(g, (0, 1)) == 2
    g23 = make_group([2, 3])
    assert element_encode(g23, (1, 2)) == 5


def test_encode_decode_roundtrip_exhaustive():
    for orders in SMALL_ORDERS:
        g = make_group(orders)
        for i in range(g.size):
            assert element_encode(g, element_decode(g, i)) == i
        seen = {element_encode(g, c) for c in itertools.product(*[range(n) for n in orders])}
        assert seen == set(range(g.size))


def test_encode_rejects_out_of_range():
    g = make_group([2, 3])
    with pytest.raises(ValueError):
        element_encode(g, (2, 0))
    with pytest.raises(ValueError):
        element_encode(g, (0, -1))
    with pytest.raises(ValueError):
        element_encode(g, (0, 0, 0))
    with pytest.raises(ValueError):
        element_decode(g, 6)


def test_vectorised_codec_matches_scalar():
    for orders in SMALL_ORDERS:
        g = make_group(orders)
        idx = np.arange(g.size)
        coords = g.decode_indices(idx)
        for i in range(g.size):
            assert tuple(coords[i]) == element_decode(g, i)
        assert np.array_equal(g.encode_coords(coords), idx)


def test_char_value_examples():
    g4 = make_group([4])
    assert char_value(g4, (1,), (1,)) == pytest.approx(1j)
    assert char_value(g4, (0,), (3,)) == pytest.approx(1.0)
    g22 = make_group([2, 2])
    assert char_value(g22, (1, 1), (1, 0)) == pytest.approx(-1.0)


def test_char_value_is_a_character():
    # unit modulus, symmetry in (gamma, x), and the homomorphism law,
    # exhaustively on small groups
    for orders in [[2, 3], [4], [2, 2, 2], [3, 3]]:
        g = make_group(orders)
        elems = [element_decode(g, i) for i in range(g.size)]
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
    g = make_group([2, 3, 2])
    rows = np.array([0, 3, 7, 11])
    cols = np.array([1, 2, 5, 6, 10])
    m = char_matrix(g, rows, cols)
    for i, a in enumerate(rows):
        for j, c in enumerate(cols):
            expected = char_value(g, element_decode(g, c), element_decode(g, a))
            assert m[i, j] == pytest.approx(expected, abs=1e-12)


def _naive_counts(group, s, t):
    counts = np.zeros(group.size, dtype=np.int64)
    for a in s.indices():
        ca = element_decode(group, a)
        for b in t.indices():
            cb = element_decode(group, b)
            counts[element_encode(group, tuple((x + y) % n for x, y, n in zip(ca, cb, group.orders)))] += 1
    return counts


def _naive_sumset(group, s, t):
    return set(np.flatnonzero(_naive_counts(group, s, t)).tolist())


def test_sumset_against_naive_oracle():
    seed = 0
    for orders in SMALL_ORDERS + [[2, 2, 2, 2], [8, 8], [60]]:
        g = make_group(orders)
        for trial in range(4):
            s = random_subset(g, min(g.size, 1 + (trial * 3) % (g.size)), seed)
            t = random_subset(g, min(g.size, 1 + (trial * 5) % (g.size)), seed + 1)
            seed += 2
            counts = convolve_counts(s, t)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, _naive_counts(g, s, t))
            assert np.array_equal(convolve_counts(s, s), _naive_counts(g, s, s))
            got = sumset(s, t)
            assert set(got.indices()) == _naive_sumset(g, s, t)
            assert got == sumset(t, s)


def test_sumset_identity_and_empty():
    g = make_group([2, 2, 2])
    s = random_subset(g, 5, seed=7)
    zero = ElementSet.from_indices(g, [0])
    assert sumset(s, zero) == s
    empty = ElementSet.from_indices(g, [])
    assert len(sumset(s, empty)) == 0


def test_negate_involution_and_difference():
    for orders in [[5], [2, 3], [4, 4]]:
        g = make_group(orders)
        s = random_subset(g, g.size // 2, seed=3)
        assert negate_set(negate_set(s)) == s
        assert set(difference_set(s, s).indices()) == _naive_sumset(g, s, negate_set(s))
    g2 = make_group([2, 2, 2])
    s = random_subset(g2, 4, seed=9)
    assert negate_set(s) == s  # every element is its own inverse


def test_subgroup_span_examples():
    g = make_group([2, 2, 2, 2])
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert len(h) == 4
    assert set(h.indices()) == {0, 1, 2, 3}
    assert subgroup_span(g, []).indices().tolist() == [0]
    cyc = make_group([12])
    assert len(subgroup_span(cyc, [(4,)])) == 3
    # closed under addition
    assert sumset(h, h) == h


def test_random_subset_deterministic():
    g = make_group([2] * 6)
    a = random_subset(g, 10, seed=42)
    b = random_subset(g, 10, seed=42)
    c = random_subset(g, 10, seed=43)
    assert a == b
    assert len(a) == 10
    assert a != c
    with pytest.raises(ValueError):
        random_subset(g, 65, seed=0)


def test_element_set_immutable():
    g = make_group([2, 2])
    s = ElementSet.from_indices(g, [0, 3])
    with pytest.raises(AttributeError):
        s.size = 5
    with pytest.raises(ValueError):
        s.mask[0] = False
    with pytest.raises(ValueError):
        ElementSet.from_indices(g, [4])
