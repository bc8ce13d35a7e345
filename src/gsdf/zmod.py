"""Arithmetic of subsets of Z_v.

A subset X of Z_v = {0, 1, ..., v-1} is stored as a width-v bitmask
(bit i set iff i is in X), so translation is a bit rotation and the
difference multiplicities d_X(s) = |X `intersect` (X+s)| reduce to
shift-and-popcount.  With the binary sequence x_i = -1 if i in X else +1,
the periodic autocorrelation PAF(s) = sum_i x_i x_{i+s} satisfies
PAF(s) = v - 4k + 4 d_X(s) for |X| = k.  The power spectral density
built on it lives in `blockgen`, with the vectorised difference rows.

Transformations: negation -X, translation X+g, dilation uX (u a unit),
complement.  A subset is symmetric when -X = X and skew when v is odd,
|X| = (v-1)/2 and X `intersect` (-X) is empty.  Translation and dilation
are implemented once, on masks (`rotate_mask`, `dilate_mask`), for
`CyclicSubset`, the vectorised difference rows, the block tags, the
equivalence machinery and the search's unit-orbit reduction alike, on
Python ints and on arrays of masks; `mask_dtype` is the one rule for an
array's width, int64 up to v = 63 and object above.  Dilation looks each
byte of a mask up in one table per order (`_dilation_tables`), of 256
images per byte and residue, built on first use in one doubling pass per
byte bit; a unit, or each unit of a tuple, picks its rows of the table
and one gather per byte reads them.  Negation is dilation by v - 1
(`negate_mask`).
`tag_codes` is the one tag test (skew, else symmetric, else none), from
one negation of each mask: it gives each tag's index in `TAGS`, for one
mask or an array of them, for the family patterns (`family_patterns`),
the certificates, the class keys and the sort ranks alike; no block
carries a tag of its own.  `distinct_masks` is the one dedupe
of an array of masks, or of mask quadruples, for the search, the
certificates, the class keys and the dilation orbits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np


def rotate_mask(v: int, mask, s):
    """Mask of X + s: rotate a width-v bitmask left by s places.

    ``mask`` is a Python int or an array of masks, and ``s`` an int or an
    array of shifts of the masks' dtype that broadcasts against it.  The
    low v - s bits are cut out before the shift, so no intermediate value
    exceeds v bits and nothing reaches the sign bit at v = 63.
    """
    s = s % v
    return ((mask & (((1 << v) - 1) >> s)) << s) | (mask >> (v - s))


def mask_dtype(v: int):
    """The dtype of an array of width-v masks: int64 holds v <= 63 bits,
    wider masks stay Python ints in an object array."""
    return np.int64 if v <= 63 else object


def mask_elements(mask: int) -> tuple:
    """The residues whose bits are set, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def _dilation_tables(v: int) -> np.ndarray:
    """Entry [j, u, b]: the mask of u times the residues of bit mask b << 8j.

    One (ceil(v/8), v, 256) table of `mask_dtype` per order, with a row
    for every residue u, built on first use of v and read-only.  Entry
    b of a row is the OR of the images of the bits b selects (positions
    from v on select nothing), filled in one pass per byte bit k by
    doubling: entries 2^k .. 2^(k+1) - 1 are entries 0 .. 2^k - 1 ORed
    with the image of bit 8j + k.
    """
    nbytes = -(-v // 8)
    dtype = mask_dtype(v)
    positions = np.arange(8 * nbytes).reshape(nbytes, 1, 8)
    images = positions * np.arange(v)[:, None] % v
    powers = np.left_shift(np.ones((), dtype), images.astype(dtype))
    powers[np.broadcast_to(positions >= v, powers.shape)] = 0
    table = np.zeros((nbytes, v, 256), dtype)
    for k in range(8):
        np.bitwise_or(table[..., :1 << k], powers[..., k, None],
                      out=table[..., 1 << k:2 << k])
    table.flags.writeable = False
    return table


def dilate_mask(v: int, mask, u):
    """Mask of uX = {u x mod v : x in X}: bit i moves to bit u i mod v.

    ``mask`` is a Python int, an int64 array of masks or an object array
    of Python-int masks; an array's image is of `mask_dtype`.  ``u`` is
    a unit or, for an array, a tuple of units, whose images are stacked
    on a new leading axis.  Each byte of a mask looks up its image in the
    order's table of `_dilation_tables`, at the unit's row, and the
    images are ORed.  An int64 array is read bytewise through a
    little-endian uint8 view, without shifts.
    """
    tables = _dilation_tables(v)
    if not isinstance(mask, np.ndarray):
        out = 0
        for j, byte in enumerate(int(mask).to_bytes(len(tables), "little")):
            out |= tables.item(j, u % v, byte)
        return out
    if mask.dtype == object:
        parts = [(mask >> 8 * j & 255).astype(np.intp) for j in range(len(tables))]
    else:
        octets = np.ascontiguousarray(mask, dtype="<i8").view(np.uint8)
        octets = octets.reshape(mask.shape + (8,))
        parts = [octets[..., j] for j in range(len(tables))]
    # one row of 256 images per byte, or one such row per unit of a tuple
    rows = tables[:, np.asarray(u) % v]
    out = rows[0].take(parts[0], axis=-1)
    for row, part in zip(rows[1:], parts[1:]):
        out |= row.take(part, axis=-1)
    return out


def negate_mask(v: int, mask):
    """Mask of -X: dilation by the unit v - 1; takes what `dilate_mask` takes."""
    return dilate_mask(v, mask, -1)


def distinct_masks(masks):
    """The distinct masks of a 1-d int64 or object array, ascending, and
    the index of each mask among them: what `np.unique(masks,
    return_inverse=True)` gives, from an argsort and an adjacent compare,
    without the `numpy.ma` import of that call's first use in a process.
    The rows of a 2-d array are taken as wholes and ordered
    lexicographically, as `np.unique(axis=0)` orders them."""
    order = np.argsort(masks) if masks.ndim == 1 else np.lexsort(masks.T[::-1])
    ordered = masks[order]
    fresh = np.ones(len(masks), dtype=bool)
    changed = ordered[1:] != ordered[:-1]
    fresh[1:] = changed if masks.ndim == 1 else changed.any(axis=1)
    inverse = np.empty(len(masks), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse


TAG_SKEW = "k"
TAG_SYMMETRIC = "s"
TAG_NONE = "-"
TAGS = (TAG_SKEW, TAG_SYMMETRIC, TAG_NONE)


def tag_codes(v: int, masks):
    """Each block's tag as its index in `TAGS`: 0 when skew, else 1 when
    symmetric, else 2.  ``masks`` is a Python int or an int64 or object
    array of masks; one negation of each serves both tests."""
    negated = negate_mask(v, masks)
    skew = (masks & negated == 0) & (2 * np.bitwise_count(masks) + 1 == v)
    return np.where(skew, 0, 2 - (negated == masks))


@dataclass(frozen=True, slots=True)
class CyclicSubset:
    """A subset of Z_v backed by a bitmask."""

    v: int
    mask: int = 0

    def __post_init__(self):
        if self.v < 1:
            raise ValueError(f"modulus must be positive, got {self.v}")
        if not 0 <= self.mask < (1 << self.v):
            raise ValueError(f"mask {self.mask:#x} out of range for v={self.v}")

    @classmethod
    def from_elements(cls, v: int, elements) -> "CyclicSubset":
        """Build from an iterable of residues; duplicates are rejected."""
        mask = 0
        for e in elements:
            e = int(e)
            if not 0 <= e < v:
                raise ValueError(f"element {e} out of range for Z_{v}")
            bit = 1 << e
            if mask & bit:
                raise ValueError(f"duplicate element {e}")
            mask |= bit
        return cls(v, mask)

    @classmethod
    def parse(cls, v: int, text: str) -> "CyclicSubset":
        """Build from comma-separated residues, as in row and family files."""
        try:
            elements = [int(tok) for tok in text.split(",")] if text.strip() else []
        except ValueError:
            raise ValueError(f"malformed element list {text.strip()!r}") from None
        return cls.from_elements(v, elements)

    @property
    def elements(self) -> tuple:
        return mask_elements(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, e):
        return 0 <= e < self.v and bool(self.mask >> e & 1)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self):
        return "{" + ",".join(map(str, self.elements)) + "}"

    def negate(self) -> "CyclicSubset":
        """-X = {-x : x in X}."""
        return CyclicSubset(self.v, negate_mask(self.v, self.mask))

    def translate(self, g: int) -> "CyclicSubset":
        """X + g."""
        return CyclicSubset(self.v, rotate_mask(self.v, self.mask, g))

    def dilate(self, u: int) -> "CyclicSubset":
        """uX for a unit u of Z_v."""
        u %= self.v
        if gcd(u, self.v) != 1:
            raise ValueError(f"{u} is not a unit mod {self.v}")
        return CyclicSubset(self.v, dilate_mask(self.v, self.mask, u))

    def complement(self) -> "CyclicSubset":
        return CyclicSubset(self.v, self.mask ^ ((1 << self.v) - 1))

    def difference_count(self, s: int) -> int:
        """d_X(s) = |X `intersect` (X + s)|."""
        return (self.mask & rotate_mask(self.v, self.mask, s)).bit_count()

    def paf(self) -> tuple:
        """Periodic autocorrelation (PAF(0), ..., PAF(v-1)); PAF(0) = v."""
        v, k = self.v, len(self)
        return tuple(v - 4 * k + 4 * self.difference_count(s) if s else v
                     for s in range(v))
