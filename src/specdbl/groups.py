"""Finite abelian groups as products of cyclic factors, with dense element sets.

A function on the group is a float64 array of the group's ``shape``, one axis
per cyclic factor.  Transforms over that array split the axes: the axes of
order 2 go through an exact Walsh-Hadamard transform (a +-1 matrix product
in real arithmetic), every axis of order above 2 through numpy's FFT, and an
axis of order 1 through neither.  ``_transform`` and ``_inverse_transform``
are that pair: ``fourier.dft`` takes the forward transform, and
``convolve_counts`` both; a group with no factor of order 2 takes numpy's
FFT alone, and a pure 2-group (every factor of order 1 or 2) stays in real
arithmetic throughout.

On a pure 2-group every value these layers compute is a small integer, so
each uses the narrowest arithmetic that holds it exactly: the forward
Walsh-Hadamard pass of a 0/1 mask runs in float32 (``_F32_EXACT``), a sumset
of few pairs is taken by XOR on the flat indices (``_xor_pairs``, which
``convolve_counts`` counts, ``_pair_count`` looks up and ``sumset`` scatters
into a mask), the count of the pairs whose sums lie in a set is otherwise an
int64 inner product of forward transforms (``_pair_count``), and
``char_matrix`` writes each +-1 entry, column signs included, from the sign
bit of its phase.

An ``ElementSet`` owns its mask.  The public constructor copies the array
it is given, so no caller's array can change the set; the package's own
builders (``from_indices``, ``from_coords``, ``fourier.spectrum``,
``sumset``, ``subgroup_span``) make a fresh mask that nothing else holds and
hand it over without a copy (``ElementSet._adopt``).

The same ``shape`` gives the rest of the layout.  Flat indices decode to
coordinate rows by ``np.unravel_index`` over it.  Rows encode by
``np.ravel_multi_index`` over it in ``encode_coords``, which reduces each
coordinate mod its order, since its callers pass sums that leave the range;
``from_coords`` checks its rows in range and so encodes them by one int64
product with the place values (1, n_1, n_1 n_2, ...).  Negation is a
reversal mod n of each axis of order above 2 (``FiniteAbelianGroup.negate``);
axes of order 1 and 2 are their own negatives.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_MAX_GROUP",
    "FiniteAbelianGroup",
    "ElementSet",
    "char_matrix",
    "convolve_counts",
    "sumset",
    "difference_set",
    "subgroup_span",
    "random_subset",
]

DEFAULT_MAX_GROUP = 1 << 20

# Most order-2 axes one Sylvester matrix covers: 2^5 = 32 rows.  A run of m
# order-2 axes takes ceil(m / 5) chunks whose sizes differ by at most one
# (Z_2^16: 4,4,4,4; Z_2^20: 5,5,5,5).  In a sweep of a float32 pass over
# m = 6..20 on one BLAS thread, chunks of 4-5 axes beat chunks of 6 from
# m = 13 up, by 21 to 58 %; chunks of 6 won below that by at most 3
# microseconds, and at m = 19 and 20 they left a last chunk of 1 or 2 axes.
_WHT_CHUNK = 5

# Largest group whose forward Walsh-Hadamard pass runs in float32.  Every
# partial sum of that pass on a 0/1 mask is a signed sum of distinct mask
# entries, an integer of magnitude at most |A| <= |G|, and float32 holds
# every integer of magnitude up to 2^24 (24 significand bits) exactly, so
# each sum, product by +-1 and fused multiply-add is exact in any order.
_F32_EXACT = 1 << 24

# Rows ``decode_indices`` fills from one ``np.unravel_index`` call: every
# set the benchmark workloads decode fits in one chunk.
_DECODE_CHUNK = 1 << 16

# Cells per row block of the passes that stream a matrix: ``char_matrix``'s
# phases when L > 2, and ``coherence.CoherenceMatrix``'s modulus check.
_BLOCK_CELLS = 1 << 15

# Bound below which every integer is exact in float64 (53 significand bits):
# ``char_matrix`` takes its phase product in float64 while rank L^2 is below.
_F64_EXACT = 1 << 53

# Bound below which every integer is exact in int64: ``_pair_count`` takes
# its inner product of transforms in int64 while its bound stays below.
_I64_EXACT = 1 << 63

# Bit pattern of the float64 1.0: sign 0, biased exponent 1023, mantissa 0.
_ONE_BITS = np.float64(1.0).view(np.uint64)


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
        # Transform plan: each run of m consecutive order-2 axes is cut into
        # ceil(m / _WHT_CHUNK) chunks whose sizes differ by at most one, the
        # smaller ones first, each stored as (pre, r, post) for the reshape
        # (pre, 2^r, post); the axes of order above 2 are the ones numpy's FFT
        # takes (over an axis of order 1 it would be the identity).
        blocks = []
        axis = 0
        for is_two, run in itertools.groupby(self.shape, key=lambda n: n == 2):
            m = len(list(run))
            if is_two:
                count = -(-m // _WHT_CHUNK)
                base, extra = divmod(m, count)
                start = axis
                for j in range(count):
                    r = base + (j >= count - extra)
                    pre = math.prod(self.shape[:start])
                    blocks.append((pre, r, size // (pre << r)))
                    start += r
            axis += m
        self._wht_blocks = tuple(blocks)
        self._fft_axes = tuple(i for i, n in enumerate(self.shape) if n > 2)
        self._orders_arr = np.array(orders, dtype=np.int64)
        # place value of each coordinate in the flat index: 1, n_1, n_1 n_2, ...
        self._places = np.array([math.prod(orders[:j]) for j in range(len(orders))],
                                dtype=np.int64)
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

    def decode_indices(self, indices: np.ndarray) -> np.ndarray:
        """(m,) flat index array -> (m, rank) coordinate array.

        The array is filled in row chunks of ``_DECODE_CHUNK``, so the one
        int64 array per axis that ``np.unravel_index`` returns is a chunk's
        size, not a second copy of the result.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return self._decode_into(indices, np.empty((indices.size, self.rank), dtype=np.int64))

    def _decode_into(self, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``decode_indices`` written into ``out``, an (m, rank) array of any
        integer type that holds every coordinate; each chunk's coordinates
        are cast into it as they are decoded."""
        for start in range(0, indices.size, _DECODE_CHUNK):
            chunk = slice(start, start + _DECODE_CHUNK)
            np.stack(np.unravel_index(indices[chunk], self.shape)[::-1], axis=-1,
                     out=out[chunk], casting="unsafe")
        return out

    def encode_coords(self, coords: np.ndarray) -> np.ndarray:
        """Flat indices of an (m, rank) coordinate array, reducing mod orders."""
        c = np.asarray(coords, dtype=np.int64)
        return np.ravel_multi_index(tuple(np.moveaxis(c, -1, 0)[::-1]), self.shape, mode="wrap")

    # -- characters --------------------------------------------------------

    def root_table(self) -> np.ndarray:
        """Table of the L-th roots of unity, L = lcm of the factor orders.

        When every factor has order 1 or 2 (L <= 2) the roots are real, and
        the table is the float64 array [1., -1.] (or [1.]), exact; every
        other group gets the complex128 table exp(2 pi i k / L).
        """
        if self._root_table is None:
            L = self._root_lcm
            if L <= 2:
                self._root_table = np.array([1.0, -1.0])[:L]
            else:
                self._root_table = np.exp(2j * np.pi * np.arange(L) / L)
        return self._root_table

    def char_weights(self) -> np.ndarray:
        """Per-factor weights L/n_j used to express character phases mod L."""
        return self._root_lcm // self._orders_arr

    def negate(self, values: np.ndarray) -> np.ndarray:
        """``values(-x)`` for a flat vector ``values`` indexed by the group.

        Negation acts on each axis of ``shape`` alone, as i -> -i mod n.  The
        flat permutation comes from one ``np.take`` per axis of order above 2
        on ``arange``, once per group, and each call is one gather with it.
        Axes of order 1 and 2 are their own negatives, so on a pure 2-group
        the result is ``values``.
        """
        values = np.asarray(values).reshape(self.size)
        if not self._fft_axes:
            return values
        if self._negation is None:
            x = np.arange(self.size).reshape(self.shape)
            for axis in self._fft_axes:
                n = self.shape[axis]
                x = np.take(x, -np.arange(n) % n, axis=axis)
            self._negation = x.reshape(self.size)
        return values[self._negation]


def char_matrix(
    group: FiniteAbelianGroup,
    elements: np.ndarray,
    gammas: np.ndarray,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of character values gamma(a): rows are elements, columns gammas.

    Both arguments are flat index arrays.  The phase of gamma(a) is
    sum_j (a_j L/n_j) g_j mod L, L = lcm(orders), and the entry is the root
    of unity exp(2 pi i phase / L): on a pure 2-group (L <= 2) the real
    (-1)^phase, so the matrix is float64 and exact; elsewhere the tabled root
    (``root_table``) in a complex128 matrix, exact within one rounding.
    ``offsets``, one integer per column, is added to the phases of its column
    before they are reduced mod L, so column j is multiplied by the root of
    phase offsets[j] (on a pure 2-group, offset 1 flips the column's sign).

    The phases come from one float64 BLAS product of the weighted
    coordinates.  That is exact: each term a_j (L/n_j) g_j is an integer
    below L^2, so every partial sum is an integer below rank L^2, and
    integers below 2^53 add and multiply exactly in float64 in any order.
    A group with rank L^2 >= 2^53 (``_F64_EXACT``; none under
    ``DEFAULT_MAX_GROUP`` comes near) keeps the int64 product.  With L > 2
    the product is cast back to int64, the offsets added, the sum reduced
    mod L (by ``& (L - 1)`` when L is a power of two, a quarter of the cost)
    and looked up in the table, one row block of about ``_BLOCK_CELLS``
    cells at a time, straight into the output: the phases are exact integers
    in any block, and no matrix-size array of them is made.

    With L <= 2 the product carries one more coordinate: 1 on the element
    side and 2^52 + f_j on the character side, f_j = offsets[j] mod L.  Each
    entry is then p = phase + f_j + 2^52, with 0 <= phase <= rank, and
    every partial sum, in any order, is an integer below 2^52 + rank + 1,
    which is below 2^53 because the guard above keeps 4 rank < 2^53; so p is
    exact.  It lies in [2^52, 2^53), where the float64 spacing is 1: its 52
    mantissa bits are phase + f_j itself, so the lowest is its parity.
    Shifting the 64-bit pattern left by 63 moves that bit to the sign and
    clears the rest; OR-ing in the bits of 1.0 then gives exactly
    (-1)^(phase + f_j), +1.0 or -1.0 and never -0.0, in place.  The pattern
    is viewed as uint64, where the shift into the top bit is defined.
    """
    a = group.decode_indices(np.asarray(elements, dtype=np.int64)) * group.char_weights()
    g = group.decode_indices(np.asarray(gammas, dtype=np.int64))
    L = group._root_lcm
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=np.int64)
    exact = group.rank * L * L < _F64_EXACT
    if exact and L <= 2:
        lift = np.full(len(g), 2.0**52)
        if offsets is not None:
            lift += offsets & (L - 1)
        p = np.column_stack((a, np.ones(len(a)))) @ np.column_stack((g, lift)).T
        bits = p.view(np.uint64)
        bits <<= np.uint64(63)
        bits |= _ONE_BITS
        return p
    if exact:
        a, g = a.astype(np.float64), g.astype(np.float64)
    table = group.root_table()
    out = np.empty((len(a), len(g)), dtype=table.dtype)
    step = max(1, _BLOCK_CELLS // max(1, len(g)))
    for start in range(0, len(a), step):
        phases = a[start:start + step] @ g.T
        if exact:
            phases = phases.astype(np.int64)
        if offsets is not None:
            phases += offsets
        if L & (L - 1) == 0:
            np.bitwise_and(phases, L - 1, out=phases)
        else:
            np.remainder(phases, L, out=phases)
        np.take(table, phases, out=out[start:start + step], mode="clip")  # phases lie in [0, L)
    return out


class ElementSet:
    """Immutable subset of a group stored as a dense boolean mask over indices.

    The constructor copies the mask it is given; ``_adopt`` takes a fresh
    one as it is (the copy rule in the module docstring)."""

    __slots__ = ("group", "mask", "size")

    def __init__(self, group: FiniteAbelianGroup, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (group.size,):
            raise ValueError(
                f"mask length {mask.shape} does not match group size {group.size}"
            )
        self._hold(group, mask.copy())

    @classmethod
    def _adopt(cls, group: FiniteAbelianGroup, mask: np.ndarray) -> "ElementSet":
        """The set whose mask is ``mask`` itself: a fresh bool array of the
        group's size, which the caller gives up and no one else holds."""
        members = object.__new__(cls)
        members._hold(group, mask)
        return members

    def _hold(self, group: FiniteAbelianGroup, mask: np.ndarray) -> None:
        mask.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "size", int(np.count_nonzero(mask)))

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def from_indices(cls, group: FiniteAbelianGroup, indices: np.ndarray) -> "ElementSet":
        mask = np.zeros(group.size, dtype=bool)
        idx = np.asarray(indices)
        if idx.size:
            if idx.dtype.kind not in "iu":  # a float or a boolean mask is no index array
                raise ValueError(f"element indices must be integers, got dtype {idx.dtype}")
            if idx.min() < 0 or idx.max() >= group.size:
                raise ValueError("element index out of range")
            mask[idx] = True
        return cls._adopt(group, mask)

    @classmethod
    def from_coords(cls, group: FiniteAbelianGroup, coords: Iterable[Sequence[int]]) -> "ElementSet":
        """Set of the given coordinate rows, each coordinate in range for its
        factor; an (m, rank) array is taken as it is.

        The range test is one minimum and one maximum, then a maximum per axis
        only if some coordinate reaches the smallest order (on a group whose
        orders are all equal, only if the rows fail).  Only rows that fail it
        are compared cell by cell, to name the first coordinate out of range
        in row-major order.  Rows in range need no reduction, so their flat
        indices are one int64 product with the place values
        (1, n_1, n_1 n_2, ...), each below |G|."""
        rows = coords if isinstance(coords, np.ndarray) else list(coords)
        if not len(rows):
            return cls._adopt(group, np.zeros(group.size, dtype=bool))
        try:
            c = np.asarray(rows, dtype=np.int64)
        except OverflowError:  # a coordinate past int64 is out of range for any factor
            x, n = next((x, n) for row in rows for x, n in zip(row, group.orders) if not 0 <= x < n)
            raise ValueError(f"coordinate {x} out of range for Z_{n}") from None
        if c.ndim != 2 or c.shape[1] != group.rank:
            raise ValueError(f"expected {group.rank} coordinates, got rows of shape {c.shape[1:]}")
        if c.min() < 0 or (c.max() >= min(group.orders)
                           and (c.max(axis=0) >= group._orders_arr).any()):
            i, j = np.argwhere((c < 0) | (c >= group._orders_arr))[0]
            raise ValueError(f"coordinate {c[i, j]} out of range for Z_{group.orders[j]}")
        mask = np.zeros(group.size, dtype=bool)
        mask[c @ group._places] = True
        return cls._adopt(group, mask)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

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


@functools.lru_cache(maxsize=None)
def _sylvester(r: int, dtype: np.dtype) -> np.ndarray:
    """The 2^r x 2^r +-1 Sylvester-Hadamard matrix, entry (-1)^popcount(j & k)."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(r):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _walsh_hadamard(group: FiniteAbelianGroup, x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of ``x`` over the order-2 axes.

    On an axis of order 2 the character sum is y[k] = sum_x (-1)^(k x) f(x),
    so the transform over a chunk of r such axes is a product with the
    Sylvester matrix H of size 2^r (symmetric, and its own inverse up to
    2^-r), one ``np.matmul`` over the reshape (pre, 2^r, post).  A chunk that
    ends in the last axis (post == 1) is instead the one right product
    x.reshape(pre, 2^r) @ H, a single GEMM where the stacked form would run
    pre matrix-vector products.  The chunks write their products into two
    buffers of |G| entries in turn, allocated once per transform whatever
    the number of chunks.  H takes the dtype of ``x``, float32 or float64.
    Every product is +-1 times an entry, so on integer input every partial
    sum is a signed sum of input entries: exact while the sum of their
    magnitudes stays at most 2^24 in float32, or below 2^53 in float64.
    """
    buffers = [np.empty(group.size, x.dtype) for _ in group._wht_blocks[:2]]
    for i, (pre, r, post) in enumerate(group._wht_blocks):
        h = _sylvester(r, x.dtype)
        out = buffers[i % 2]
        if post == 1:
            np.matmul(x.reshape(pre, 1 << r), h, out=out.reshape(pre, 1 << r))
        else:
            np.matmul(h, x.reshape(pre, 1 << r, post), out=out.reshape(pre, 1 << r, post))
        x = out
    return x.reshape(group.shape)


def _transform(group: FiniteAbelianGroup, mask: np.ndarray, real: bool = False,
               dtype: type = np.float64) -> np.ndarray:
    """Forward transform of the 0/1 indicator ``mask``, over the group's ``shape``.

    The order-2 axes go first, through ``_walsh_hadamard`` in real arithmetic:
    float32 when |G| <= ``_F32_EXACT`` = 2^24, where every partial sum is an
    integer of magnitude at most |A| <= 2^24 and so exact, else float64.  The
    result is cast to ``dtype``, and the axes of order above 2 then go through
    ``np.fft.fftn``, or ``np.fft.rfftn`` when ``real``.  A group with no
    order-2 factor makes that one numpy call alone; a pure 2-group (every
    factor of order 1 or 2) makes none, and its result is the Walsh-Hadamard
    transform in ``dtype``: float64, or int64 for ``_pair_count``, which
    takes the integers in one cast.
    """
    pass_dtype = np.float32 if group.size <= _F32_EXACT else np.float64
    x = _walsh_hadamard(group, mask.reshape(group.shape).astype(pass_dtype))
    x = x.astype(dtype, copy=False)
    axes = group._fft_axes
    if not axes:
        return x
    return np.fft.rfftn(x, axes=axes) if real else np.fft.fftn(x, axes=axes)


def _inverse_transform(group: FiniteAbelianGroup, y: np.ndarray) -> np.ndarray:
    """Inverse of ``_transform(..., real=True)``, as a flat real vector.

    ``np.fft.irfftn`` over the axes of order above 2, then ``_walsh_hadamard``
    again divided by 2^(number of order-2 axes); dividing by a power of two
    is exact.
    """
    axes = group._fft_axes
    if axes:
        y = np.fft.irfftn(y, s=[group.shape[i] for i in axes], axes=axes)
    y = _walsh_hadamard(group, y)
    if group._wht_blocks:
        y = y / (1 << group.shape.count(2))
    return y.ravel()


def _xor_pairs(s: ElementSet, t: ElementSet) -> Optional[np.ndarray]:
    """The |S| |T| sums of the index pairs, flat, when they are the cheaper
    count; else None.

    On a pure 2-group (every factor of order 1 or 2) a flat index is the bit
    vector of the element's coordinates and addition is XOR.  The pairs'
    array holds at most |G| entries (8 MB at ``DEFAULT_MAX_GROUP``) while
    |S| |T| <= |G|, and its cost grows with |S| |T| where the transforms'
    grows with |G|, so past |S| |T| = |G| the transforms cost less.
    """
    group = _require_same_group(s, t)
    if group._fft_axes or s.size * t.size > group.size:
        return None
    return np.bitwise_xor.outer(s.indices(), t.indices()).ravel()


def convolve_counts(s: ElementSet, t: ElementSet) -> np.ndarray:
    """Counts r(x) = #{(a, b) in S x T : a + b = x} for every flat index x.

    While ``_xor_pairs`` gives the pairs' sums (a pure 2-group with
    |S| |T| <= |G|), the counts are one ``np.bincount`` of them.

    Every other case is the additive convolution 1_S * 1_T, computed by
    transform, pointwise product and inverse transform over the group's
    array shape, then rounded (one forward transform when ``t is s``).
    ``_transform`` and ``_inverse_transform`` take the order-2 axes through
    the Walsh-Hadamard transform and the other axes through
    ``rfftn``/``irfftn``; a group with no order-2 factor takes the two numpy
    calls alone.

    On a pure 2-group every step is exact: the forward transforms are integers
    of magnitude at most |S| and |T|, and every partial sum of the inverse is a
    signed sum of products S^(g) T^(g), bounded by Cauchy-Schwarz and Parseval
    by sum |S^ T^| <= sqrt(|G||S| |G||T|) = |G| sqrt(|S||T|) <= 2^40 < 2^53.
    On other groups every count is an integer of at most |G| <= 2^20, where
    the FFT's float64 error is many orders of magnitude below 1/2, so rounding
    recovers the counts exactly; a residue over 0.25 means the transform
    itself failed.
    """
    pairs = _xor_pairs(s, t)  # which checks that S and T share a group
    group = s.group
    if pairs is not None:
        return np.bincount(pairs, minlength=group.size)
    fs = _transform(group, s.mask, real=True)
    ft = fs if t is s else _transform(group, t.mask, real=True)
    raw = _inverse_transform(group, fs * ft)
    counts = np.rint(raw)
    residue = float(np.max(np.abs(raw - counts)))
    if not residue <= 0.25:  # NaN too
        raise AssertionError(f"convolution rounding residue {residue} exceeds 0.25")
    return counts.astype(np.int64)


def _pair_count(s: ElementSet, t: ElementSet, u: ElementSet) -> int:
    """#{(a, b) in S x T : a + b in U}, with no |G| array of counts where the
    group allows.

    While ``_xor_pairs`` gives the pairs' sums (a pure 2-group with
    |S| |T| <= |G|), the count is how many of them U's mask holds.

    On any other pure 2-group it is Parseval's identity: the count is
    sum_x r(x) 1_U(x) = (1/|G|) sum_g S^(g) T^(g) U^(g), with r the pair counts
    of ``convolve_counts`` and the transforms real.  The three forward
    transforms from ``_transform`` are integers, cast to int64 straight from
    the Walsh-Hadamard pass, with no float64 copy; their int64 inner product is
    divided by |G|, and a nonzero remainder means a transform was wrong.  It
    is exact while no partial sum reaches 2^63 (``_I64_EXACT``).  Each term
    has |U^(g)| <= |U|, and by Cauchy-Schwarz and Parseval (sum S^(g)^2 =
    |G| |S|) sum |S^ T^| <= |G| sqrt(|S| |T|), so every partial sum is at most
    |U| |G| sqrt(|S| |T|) <= |G|^3, which is 2^60 at ``DEFAULT_MAX_GROUP``.
    ``SPECDBL_MAX_GROUP`` may raise |G| past that, so a count whose bound
    reaches 2^63 takes the route below.

    On a group with an axis of order above 2 the count is the sum of
    ``convolve_counts`` over U.
    """
    group = _require_same_group(s, u)
    pairs = _xor_pairs(s, t)  # which checks that S and T share a group
    if pairs is not None:
        return int(np.count_nonzero(u.mask[pairs]))
    if group._fft_axes or (u.size * group.size) ** 2 * s.size * t.size >= _I64_EXACT ** 2:
        return int(convolve_counts(s, t)[u.mask].sum())
    fs = _transform(group, s.mask, dtype=np.int64).ravel()
    ft = fs if t is s else _transform(group, t.mask, dtype=np.int64).ravel()
    fu = _transform(group, u.mask, dtype=np.int64).ravel()
    count, remainder = divmod(int(np.dot(fs * ft, fu)), group.size)
    if remainder:
        raise AssertionError(f"pair count inner product leaves remainder {remainder} mod |G|")
    return count


def sumset(s: ElementSet, t: ElementSet) -> ElementSet:
    """Exact sumset S + T = {a + b : a in S, b in T}, the support of the counts.

    When |S| + |T| > |G| it is the whole group: for every x the sets S and
    x - T, of |S| + |T| elements in all, meet, so x = a + b.  Where
    ``_xor_pairs`` gives the pairs' sums, they are scattered into the mask
    directly, with no |G| array of counts."""
    group = _require_same_group(s, t)
    if s.size + t.size > group.size:
        return ElementSet._adopt(group, np.ones(group.size, dtype=bool))
    pairs = _xor_pairs(s, t)
    if pairs is None:
        mask = convolve_counts(s, t) > 0
    else:
        mask = np.zeros(s.group.size, dtype=bool)
        mask[pairs] = True
    return ElementSet._adopt(s.group, mask)


def difference_set(s: ElementSet, t: ElementSet) -> ElementSet:
    """Exact difference set S - T, the sumset of S and -T."""
    return sumset(s, ElementSet(t.group, t.group.negate(t.mask)))


def subgroup_span(group: FiniteAbelianGroup, generators: Iterable[Sequence[int]]) -> ElementSet:
    """Smallest subgroup containing the given generators (always contains 0).

    Coordinates are read mod the factor orders, as Python ints.  Each
    generator g is doubled in: a round ORs in the mask shifted by the step,
    then doubles the step, so after j rounds the mask is the span so far plus
    {0, ..., 2^j - 1} g.  The order of g divides L = lcm(orders) < 2^b,
    b = bit_length(L), so b rounds take every multiple; the loop ends sooner
    once the step is 0.
    """
    mask = np.zeros(group.size, dtype=bool)
    mask[0] = True
    for g in generators:
        g = tuple(int(c) for c in g)
        if len(g) != group.rank:
            raise ValueError(f"generator {g} has wrong rank for {group!r}")
        step = [c % n for c, n in zip(g, group.orders)]
        for _ in range(group._root_lcm.bit_length()):
            if not any(step):
                break
            members = group.decode_indices(np.flatnonzero(mask))
            members += step
            mask[group.encode_coords(members)] = True
            step = [2 * c % n for c, n in zip(step, group.orders)]
    return ElementSet._adopt(group, mask)


def random_subset(group: FiniteAbelianGroup, size: int, seed: int) -> ElementSet:
    """Uniform random subset of the given size; deterministic for a fixed seed."""
    if not 0 <= size <= group.size:
        raise ValueError(f"subset size {size} out of range for group of size {group.size}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(group.size, size=size, replace=False)
    return ElementSet.from_indices(group, idx)
