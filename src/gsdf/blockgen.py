"""Exhaustive generation of skew and symmetric candidate blocks.

Skew subsets of Z_v (v odd) pick exactly one of {i, v-i} for each
i = 1 .. (v-1)/2, so there are 2^((v-1)/2) of them, generated in
ascending order.  Symmetric subsets of size k consist of floor(k/2)
whole pairs {i, v-i} plus the fixed point 0 when k is odd, giving
C((v-1)/2, floor(k/2)) candidates.

`collect_rows` reduces every block of a kind and size, or those its
caller picks, to its difference row
(d_X(1), ..., d_X((v-1)/2)), computed for a whole mask vector at once by
`difference_counts`, the one home of difference rows: it takes any
v >= 1, so the certificates in `verify` read their blocks' rows from it
too, while the generators and row files here take odd v only.  The
rows give the power spectral density of the
block's binary sequence x (x_i = -1 if i in X else +1),

    PSD(j) = |sum_i x_i w^{ij}|^2,  w = exp(2 pi I / v),

with PSD(0) = (v - 2k)^2 and, by Parseval, sum_j PSD(j) = v^2.  As the
Fourier transform of PAF(s) = v - 4k + 4 d_X(s), an even sequence in s,

    PSD(j) = v + 2 sum_{s=1}^{(v-1)/2} PAF(s) cos(2 pi j s / v),

and PSD(j) = PSD(v - j), so `_psd_max` takes max_{j>0} PSD(j) over
j = 1 .. (v-1)/2 as one product per chunk of _CHUNK rows, an `np.einsum`
that calls no BLAS.  This is the only PSD in the package.  The filter
discards blocks with
max_{j>0} PSD(j) above 4v: the four blocks of any difference family
with these parameters satisfy

    PSD_1(j) + PSD_2(j) + PSD_3(j) + PSD_4(j) = 4v   for j != 0,

and every PSD(j) >= 0, so each individual block of a solution has
PSD(j) <= 4v and the filter never discards a block that takes part in
some family.

Row files are plain text: a header line ``v k kind bound`` (bound 4v, or
``off`` when the filter was off) followed by one line per block,
``elements|counts`` (elements comma-separated, counts space-separated),
sorted by block encoding.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .zmod import CyclicSubset, rotate_mask

KINDS = ("skew", "symmetric")
PSD_REL_EPS = 1e-6
MAX_V = 63  # masks are int64
# rows per PSD product: at v = 37 the einsum took 1.8 times as long on
# one chunk of 2**18 rows as on 2**14-row chunks (2-core x86-64)
_CHUNK = 1 << 14


def check_width(v: int) -> None:
    if v > MAX_V:
        raise ValueError(f"v={v} is too large: blocks are 64-bit masks, so v <= {MAX_V}")


def difference_counts(masks: np.ndarray, v: int) -> np.ndarray:
    """Difference rows (d_X(1), ..., d_X(floor(v/2))) for a vector of
    width-v bitmasks, int64 or object; d_X(v - s) = d_X(s) gives the rest.
    Shape (n, floor(v/2)), of the least unsigned type that holds v: uint8
    up to v = 255."""
    p = v // 2
    out = np.empty((len(masks), p), dtype=np.min_scalar_type(v))
    for d in range(1, p + 1):
        out[:, d - 1] = np.bitwise_count(masks & rotate_mask(v, masks, d))
    return out


def _psd_max(counts: np.ndarray, v: int, k: int) -> np.ndarray:
    """max_{j>0} PSD(j) per row, from difference counts.

    The PAFs are laid out one column per row, so the product is (j, row)
    and its max runs over contiguous rows.  The product is an `np.einsum`
    without ``optimize``, which calls no BLAS: a BLAS call would wake
    OpenBLAS's threads, which cost more than the product."""
    p = (v - 1) // 2
    s = np.arange(1, p + 1)
    cos = np.cos(2.0 * np.pi * np.outer(s, s) / v)  # cos(2 pi j s / v)
    paf = np.ascontiguousarray(counts.T, dtype=np.float64)
    paf *= 4.0
    paf += v - 4 * k
    return v + 2.0 * np.einsum("js,si->ji", cos, paf).max(axis=0)


def skew_masks(v: int) -> np.ndarray:
    """All skew subsets of Z_v as an ascending int64 mask vector.

    Bit p - i of a mask's index picks i (0) or v - i (1) from pair i,
    i = 1 .. p = (v-1)/2.  Bit v - i outweighs every bit of the pairs
    after i, so pair 1 is the most significant and the masks ascend with
    their indices; they are built by doubling, least significant pair
    first, with no sort.  The lower half, whose blocks hold 1 rather
    than v - 1, is exactly the blocks X < -X."""
    if v % 2 == 0:
        raise ValueError("skew subsets require odd v")
    check_width(v)
    p = (v - 1) // 2
    masks = np.empty(1 << p, dtype=np.int64)
    masks[0] = sum(1 << i for i in range(1, p + 1))
    for bit, i in enumerate(range(p, 0, -1)):
        half = 1 << bit
        np.add(masks[:half], (1 << (v - i)) - (1 << i), out=masks[half:2 * half])
    return masks


def symmetric_masks(v: int, k: int) -> np.ndarray:
    """All symmetric k-subsets of Z_v (odd v) as a sorted int64 mask vector."""
    if v % 2 == 0:
        raise ValueError("only odd v is supported here")
    check_width(v)
    if not 0 <= k <= v:
        raise ValueError(f"size {k} out of range")
    p = (v - 1) // 2
    npairs, fixed = divmod(k, 2)
    # Pascal's recurrence: after pair i, level[r] holds the masks of r of
    # the first i pairs; a level that the remaining pairs cannot fill up
    # to npairs is no longer extended
    level = [np.zeros(1, np.int64)] + [np.zeros(0, np.int64)] * npairs
    for i in range(1, p + 1):
        pair = (1 << i) | (1 << (v - i))
        for r in range(min(i, npairs), max(0, npairs - p + i - 1), -1):
            level[r] = np.concatenate((level[r], level[r - 1] + pair))
    masks = level[npairs] + fixed
    masks.sort()
    return masks


@dataclass
class RowFile:
    """Candidate blocks of one kind and size, with their difference rows:
    blockgen's row set only.  The matcher keeps the hash keys of the rows
    it joins on its own join sides, not here."""

    v: int
    k: int
    kind: str
    bound: object  # the PSD bound 4v, or None when the filter was off
    masks: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if len(self.masks) != len(self.rows):
            raise ValueError("masks/rows length mismatch")
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.rows = np.asarray(self.rows, dtype=np.uint8)

    def __len__(self):
        return len(self.masks)

    def select(self, keep) -> "RowFile":
        """The blocks picked by an index or boolean array, in their order."""
        return RowFile(self.v, self.k, self.kind, self.bound, self.masks[keep], self.rows[keep])


def collect_rows(v: int, k: int, kind: str, filtered: bool = True,
                 masks=None) -> RowFile:
    """Candidate blocks of a kind and size with their rows, PSD-filtered
    unless ``filtered`` is false: every block of the kind and size, or
    only ``masks``, ascending blocks of both.

    The filter keeps blocks with max_{j>0} PSD(j) <= 4v, up to a relative
    float tolerance of PSD_REL_EPS.
    """
    if v < 1 or v % 2 == 0:
        raise ValueError(f"candidate blocks need a positive odd v, got {v}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "skew" and k != (v - 1) // 2:
        raise ValueError(f"skew blocks in Z_{v} have size (v-1)/2, not {k}")
    if masks is not None:
        masks = np.asarray(masks, dtype=np.int64)
    elif kind == "skew":
        masks = skew_masks(v)
    else:
        masks = symmetric_masks(v, k)
    bound = 4 * v if filtered else None
    p = (v - 1) // 2
    kept_masks, kept_rows = [masks[:0]], [np.empty((0, p), dtype=np.uint8)]
    for start in range(0, len(masks), _CHUNK):
        chunk = masks[start:start + _CHUNK]
        rows = difference_counts(chunk, v)
        if bound is not None and v > 1:
            keep = _psd_max(rows, v, k) <= bound + PSD_REL_EPS * bound
            chunk, rows = chunk[keep], rows[keep]
        kept_masks.append(chunk)
        kept_rows.append(rows)
    return RowFile(v, k, kind, bound, np.concatenate(kept_masks),
                   np.concatenate(kept_rows))


def write_row_file(path, rf: RowFile) -> None:
    with open(path, "w") as fh:
        fh.write(f"{rf.v} {rf.k} {rf.kind} {'off' if rf.bound is None else rf.bound}\n")
        for mask, row in zip(rf.masks, rf.rows):
            elems = ",".join(map(str, CyclicSubset(rf.v, int(mask)).elements))
            fh.write(elems + "|" + " ".join(str(int(c)) for c in row) + "\n")


class RowFileFormatError(ValueError):
    pass


def read_row_file(path) -> RowFile:
    """Parse a row file; rows are re-derived from the blocks and checked."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise RowFileFormatError("empty row file")
    head = lines[0].split()
    if len(head) != 4:
        raise RowFileFormatError(f"line 1: header needs 'v k kind bound', got {lines[0]!r}")
    try:
        v, k = int(head[0]), int(head[1])
    except ValueError:
        raise RowFileFormatError("line 1: non-integer v or k")
    try:
        check_width(v)
    except ValueError as exc:
        raise RowFileFormatError(f"line 1: {exc}")
    if v < 1 or v % 2 == 0:
        raise RowFileFormatError(f"line 1: difference rows need a positive odd v, got {v}")
    kind = head[2]
    if kind not in KINDS:
        raise RowFileFormatError(f"line 1: unknown kind {kind!r}")
    if head[3] not in ("off", str(4 * v)):
        raise RowFileFormatError(f"line 1: bound must be 4v = {4 * v} or 'off', got {head[3]!r}")
    bound = None if head[3] == "off" else 4 * v
    p = (v - 1) // 2
    linenos, masks, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        left, sep, right = line.partition("|")
        if not sep:
            raise RowFileFormatError(f"line {lineno}: missing '|' separator")
        try:
            x = CyclicSubset.parse(v, left)
        except ValueError as exc:
            raise RowFileFormatError(f"line {lineno}: {exc}")
        if len(x) != k:
            raise RowFileFormatError(f"line {lineno}: block size {len(x)} != {k}")
        try:
            counts = tuple(int(t) for t in right.split())
        except ValueError:
            raise RowFileFormatError(f"line {lineno}: malformed counts")
        if len(counts) != p:
            raise RowFileFormatError(f"line {lineno}: expected {p} counts, got {len(counts)}")
        linenos.append(lineno)
        masks.append(x.mask)
        rows.append(counts)
    m = np.array(masks, dtype=np.int64)
    derived = difference_counts(m, v)
    for lineno, counts, row in zip(linenos, rows, derived.tolist()):
        if counts != tuple(row):
            raise RowFileFormatError(f"line {lineno}: counts do not match the block")
    unsorted = np.flatnonzero(np.diff(m) <= 0)
    if len(unsorted):
        raise RowFileFormatError(
            f"line {linenos[unsorted[0] + 1]}: blocks are not sorted by encoding")
    return RowFile(v, k, kind, bound, m, derived)
