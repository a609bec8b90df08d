"""Finite abelian groups as products of cyclic factors, with dense element sets."""

from __future__ import annotations

import math
import os
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_MAX_GROUP",
    "FiniteAbelianGroup",
    "GroupElement",
    "ElementSet",
    "make_group",
    "element_encode",
    "element_decode",
    "char_value",
    "char_matrix",
    "convolve_counts",
    "sumset",
    "difference_set",
    "negate_set",
    "subgroup_span",
    "random_subset",
]

DEFAULT_MAX_GROUP = 1 << 20

GroupElement = tuple[int, ...]


def _max_group_size() -> int:
    raw = os.environ.get("SPECDBL_MAX_GROUP")
    if raw is None:
        return DEFAULT_MAX_GROUP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"SPECDBL_MAX_GROUP must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"SPECDBL_MAX_GROUP must be positive, got {value}")
    return value


class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_k} in fixed factor order.

    Elements are coordinate vectors reduced mod the factor orders.  The flat
    index of an element is little-endian mixed radix: the first coordinate
    varies fastest, so as a C-ordered array the flat vector has ``shape``
    (n_k, ..., n_1), one axis per cyclic factor.  The dual group is identified
    with the group itself, so characters are indexed by the same coordinate
    vectors.
    """

    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(n) for n in orders)
        if len(orders) == 0:
            raise ValueError("group needs at least one cyclic factor")
        for n in orders:
            if n <= 0:
                raise ValueError(f"cyclic factor orders must be positive, got {n}")
        size = 1
        for n in orders:
            size *= n
        ceiling = _max_group_size()
        if size > ceiling:
            raise ValueError(
                f"group of size {size} exceeds the size ceiling {ceiling} "
                f"(override with SPECDBL_MAX_GROUP)"
            )
        self.orders = orders
        self.rank = len(orders)
        self.size = size
        self.shape = tuple(reversed(orders))
        strides = np.empty(self.rank, dtype=np.int64)
        acc = 1
        for j, n in enumerate(orders):
            strides[j] = acc
            acc *= n
        self._strides = strides
        self._orders_arr = np.array(orders, dtype=np.int64)
        self._root_lcm = math.lcm(*orders)
        self._root_table: Optional[np.ndarray] = None
        self._negation: Optional[np.ndarray] = None

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup(orders={list(self.orders)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    # -- element indexing -------------------------------------------------

    def encode(self, coords: Sequence[int]) -> int:
        """Flat index of a coordinate vector (coordinates must be in range)."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        idx = 0
        for c, n, s in zip(coords, self.orders, self._strides):
            if not 0 <= c < n:
                raise ValueError(f"coordinate {c} out of range for Z_{n}")
            idx += c * int(s)
        return idx

    def decode(self, index: int) -> GroupElement:
        """Coordinate vector of a flat index."""
        index = int(index)
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for group of size {self.size}")
        coords = []
        r = index
        for n in self.orders:
            coords.append(r % n)
            r //= n
        return tuple(coords)

    def decode_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised decode: (m,) index array -> (m, rank) coordinate array."""
        r = np.asarray(indices, dtype=np.int64).copy()
        out = np.empty((r.shape[0], self.rank), dtype=np.int64)
        for j, n in enumerate(self.orders):
            out[:, j] = r % n
            r //= n
        return out

    def encode_coords(self, coords: np.ndarray) -> np.ndarray:
        """Vectorised encode of an (m, rank) coordinate array, reducing mod orders."""
        c = np.asarray(coords, dtype=np.int64) % self._orders_arr
        return c @ self._strides

    # -- characters --------------------------------------------------------

    def root_table(self) -> np.ndarray:
        """Table of the L-th roots of unity, L = lcm of the factor orders."""
        if self._root_table is None:
            L = self._root_lcm
            self._root_table = np.exp(2j * np.pi * np.arange(L) / L)
        return self._root_table

    def char_weights(self) -> np.ndarray:
        """Per-factor weights L/n_j used to express character phases mod L."""
        return self._root_lcm // self._orders_arr

    def negation_perm(self) -> np.ndarray:
        """Permutation sending each flat index to the index of its inverse."""
        if self._negation is None:
            r = np.arange(self.size, dtype=np.int64)
            neg = np.zeros(self.size, dtype=np.int64)
            for n, s in zip(self.orders, self._strides):
                d = r % n
                r //= n
                neg += ((n - d) % n) * int(s)
            self._negation = neg
        return self._negation


def make_group(orders: Sequence[int]) -> FiniteAbelianGroup:
    """Build the group Z_{orders[0]} x Z_{orders[1]} x ... (desk-scale checked)."""
    return FiniteAbelianGroup(orders)


def element_encode(group: FiniteAbelianGroup, coords: Sequence[int]) -> int:
    return group.encode(coords)


def element_decode(group: FiniteAbelianGroup, index: int) -> GroupElement:
    return group.decode(index)


def char_value(group: FiniteAbelianGroup, gamma: Sequence[int], x: Sequence[int]) -> complex:
    """Value of the character indexed by gamma at the element x.

    gamma(x) = exp(2*pi*i * sum_j gamma_j x_j / n_j), evaluated through a table
    of exact roots of unity so the modulus is 1 to machine precision.
    """
    g = np.asarray(tuple(gamma), dtype=np.int64) % group._orders_arr
    c = np.asarray(tuple(x), dtype=np.int64) % group._orders_arr
    if g.shape[0] != group.rank or c.shape[0] != group.rank:
        raise ValueError(f"expected {group.rank} coordinates")
    L = group._root_lcm
    phase = int(np.sum(group.char_weights() * g * c) % L)
    return complex(group.root_table()[phase])


def char_matrix(
    group: FiniteAbelianGroup, elements: np.ndarray, gammas: np.ndarray
) -> np.ndarray:
    """Matrix of character values gamma(a): rows are elements, columns gammas.

    Both arguments are flat index arrays.  Phases are accumulated as integers
    mod L = lcm(orders), so every entry is an exact root of unity.
    """
    a = group.decode_indices(np.asarray(elements, dtype=np.int64))
    g = group.decode_indices(np.asarray(gammas, dtype=np.int64))
    w = group.char_weights()
    L = group._root_lcm
    phases = ((a * w) @ g.T) % L
    return group.root_table()[phases]


class ElementSet:
    """Immutable subset of a group stored as a dense boolean mask over indices."""

    __slots__ = ("group", "mask", "size")

    def __init__(self, group: FiniteAbelianGroup, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (group.size,):
            raise ValueError(
                f"mask length {mask.shape} does not match group size {group.size}"
            )
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "size", int(np.count_nonzero(mask)))

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def from_indices(cls, group: FiniteAbelianGroup, indices: Iterable[int]) -> "ElementSet":
        mask = np.zeros(group.size, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= group.size:
                raise ValueError("element index out of range")
            mask[idx] = True
        return cls(group, mask)

    @classmethod
    def from_coords(cls, group: FiniteAbelianGroup, coords: Iterable[Sequence[int]]) -> "ElementSet":
        return cls.from_indices(group, [group.encode(c) for c in coords])

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def coords(self) -> list[GroupElement]:
        return [self.group.decode(i) for i in self.indices()]

    def contains_index(self, index: int) -> bool:
        return bool(self.mask[index])

    def __contains__(self, element: Sequence[int]) -> bool:
        return bool(self.mask[self.group.encode(element)])

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.group == other.group
            and bool(np.array_equal(self.mask, other.mask))
        )

    def __hash__(self) -> int:
        return hash((self.group, self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"ElementSet(|S|={self.size} in {self.group!r})"


def _require_same_group(s: ElementSet, t: ElementSet) -> FiniteAbelianGroup:
    if s.group != t.group:
        raise ValueError(f"sets live in different groups: {s.group!r} vs {t.group!r}")
    return s.group


def convolve_counts(s: ElementSet, t: ElementSet) -> np.ndarray:
    """Counts r(x) = #{(a, b) in S x T : a + b = x} for every flat index x.

    The additive convolution 1_S * 1_T, computed with real FFTs over the
    group's array shape (one forward transform when ``t is s``) and rounded.
    Every count is an integer of at most |G| <= 2^20, where the transform's
    float64 error is many orders of magnitude below 1/2, so rounding recovers
    the counts exactly; a residue over 0.25 means the transform itself failed.
    """
    group = _require_same_group(s, t)
    fs = np.fft.rfftn(s.mask.reshape(group.shape).astype(np.float64))
    ft = fs if t is s else np.fft.rfftn(t.mask.reshape(group.shape).astype(np.float64))
    raw = np.fft.irfftn(fs * ft, s=group.shape, axes=tuple(range(group.rank))).ravel()
    counts = np.rint(raw)
    residue = float(np.max(np.abs(raw - counts)))
    if residue > 0.25:
        raise AssertionError(f"convolution rounding residue {residue} exceeds 0.25")
    return counts.astype(np.int64)


def sumset(s: ElementSet, t: ElementSet) -> ElementSet:
    """Exact sumset S + T = {a + b : a in S, b in T}, the support of the counts."""
    return ElementSet(s.group, convolve_counts(s, t) > 0)


def negate_set(s: ElementSet) -> ElementSet:
    """Pointwise inverse -S."""
    perm = s.group.negation_perm()
    mask = np.zeros(s.group.size, dtype=bool)
    mask[perm[s.indices()]] = True
    return ElementSet(s.group, mask)


def difference_set(s: ElementSet, t: ElementSet) -> ElementSet:
    """Exact difference set S - T."""
    return sumset(s, negate_set(t))


def subgroup_span(group: FiniteAbelianGroup, generators: Iterable[Sequence[int]]) -> ElementSet:
    """Smallest subgroup containing the given generators (always contains 0)."""
    gen_coords = []
    for g in generators:
        g = tuple(int(c) for c in g)
        if len(g) != group.rank:
            raise ValueError(f"generator {g} has wrong rank for {group!r}")
        gen_coords.append(np.asarray(g, dtype=np.int64) % group._orders_arr)
    mask = np.zeros(group.size, dtype=bool)
    mask[0] = True
    changed = True
    while changed:
        changed = False
        members = np.flatnonzero(mask)
        member_coords = group.decode_indices(members)
        for g in gen_coords:
            shifted = group.encode_coords(member_coords + g)
            fresh = shifted[~mask[shifted]]
            if fresh.size:
                mask[fresh] = True
                changed = True
    return ElementSet(group, mask)


def random_subset(group: FiniteAbelianGroup, size: int, seed: int) -> ElementSet:
    """Uniform random subset of the given size; deterministic for a fixed seed."""
    if not 0 <= size <= group.size:
        raise ValueError(f"subset size {size} out of range for group of size {group.size}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(group.size, size=size, replace=False)
    return ElementSet.from_indices(group, idx)
