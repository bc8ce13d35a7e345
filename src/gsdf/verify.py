"""Exact certification of families and the Hadamard matrices they induce.

From a family (X_1..X_4) in Z_v form the +-1 circulants A_i of the block
binary sequences.  The family is a difference family with index lam iff
the aggregated difference multiplicities are constant, equivalently iff

    A_1 A_1^T + A_2 A_2^T + A_3 A_3^T + A_4 A_4^T = 4 v I.

Plugging the A_i into the array (R the back-circulant identity,
Z_i = A_{i+1}, all products with R reordered as shown):

        [  Z0      Z1 R     Z2 R     Z3 R  ]
    H = [ -Z1 R    Z0      -Z3^T R   Z2^T R ]
        [ -Z2 R    Z3^T R   Z0      -Z1^T R ]
        [ -Z3 R   -Z2^T R   Z1^T R   Z0    ]

yields a Hadamard matrix of order 4v; when X_1 is skew, H is of skew
type (H + H^T = 2I).  Each block symmetry pattern names a classical
special matrix family, and each is the Gram condition on its pattern:
G-matrices (kkss) and best matrices (kkks) by definition, and good
matrices (ksss: A_1 of skew type, the back-circulants B_i = A_{i+1} R
symmetric, all four pairwise amicable) because R X R = X^T for every
circulant X, so that

- for any circulants A_1 and A, A_1 (A R)^T = A_1 A R = A A_1 R =
  (A R) A_1^T: A_1 is always amicable with each B_i, and every B_i is
  symmetric;
- B_i B_j^T = A_{i+1} A_{j+1}^T, which is symmetric when the blocks are;
- A_1 is of skew type exactly when X_1 is skew;
- the Gram sum of (A_1, B_1, B_2, B_3) is the Gram sum of the A_i.

`_gs_array` is the one construction of H (`build_gs_array` is its int64
form).  Each entry of H is +-1 times an entry of one of the four first
rows: Z_i[r, c] is row i at (c - r) mod v, (Z_i R)[r, c] at
(-1 - r - c) mod v and (Z_i^T R)[r, c] at (r + c + 1) mod v.  So H is a
single `take` from its source, the 8v entries
[row_1, -row_1, ..., row_4, -row_4], through a flat index of its 16v^2
entries cached per v.  Each block's [row, -row] is unpacked from the
mask's bits and cached read-only per (v, mask) (`signed_rows`), as
`family.mask_tags` caches tags, so a family's source is one
concatenate.  A search unpacks all of its families' distinct masks in one
`_pm_rows` call before it certifies them; a mask not cached is unpacked
by the same call on its own.

`verify_family` builds H once, computes P = H H^T once and reads every
certificate from the source, H, H^T and P.  The first block row of H is
[A_1 | A_2 R | A_3 R | A_4 R], and R R^T = I, so P[:v, :v] is the Gram
sum G = sum A_i A_i^T: it gives the Gram condition and, through its
first row (one `tolist`), the difference multiplicities
(G[0, s] = sum_i PAF_i(s) and PAF(s) = v - 4k + 4 d(s) for a block of
size k).  P is compared with 4vI once.  G is P's top-left block, so the
Gram condition holds when P's does, and G is compared on its own only
when P's fails.  The Hadamard test is P's comparison and the +-1 test,
which reads the 8v source entries rather than the 16v^2 of H: every
entry of H is a copy of one of them.  H + H^T gives the skew-type test,
and the pattern's special certificate is the Gram condition.  No
circulant of a single block is built on that path; the public checks
below, which also take bare matrices, build them.

All checks are exact integer identities.  The products run in floating
point through BLAS (numpy has no BLAS for integer matmul), and that is
exact while every partial sum is an integer the format holds.
`verify_family` gathers H in float32 and runs its products in float32:
every entry is +-1, so every partial sum is an integer of absolute value
at most the inner dimension, at most 4v, and float32 holds every integer
up to 2^24.  That is exact for v <= 2^22; `check_width` caps the search
at v <= 63, an inner dimension of at most 252.  Each scalar-matrix
certificate (P, the Gram sum when P fails, H + H^T) is one comparison
`(x == cI).all()` with a cached, read-only c I.  The public checks below
take arbitrary integer matrices and run their products in float64; they
are the oracle the certificate is tested against.

Certification stays one family per call.  On the 3760 families of
orders 21-25, complete certificates stacked into (c, 4v, 4v) arrays
took as long as per-family ones or longer at every c from 8 to 64; from
c = 32 on even the stacked gather, product and comparisons alone did,
as the float32 temporaries leave the cache.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .family import TAG_SKEW, Family
from .zmod import CyclicSubset, MaskCache


def _pm_rows(v: int, masks, dtype=np.int64) -> np.ndarray:
    """The +-1 sequences of width-v masks, one row each: -1 where a bit is
    set.  The bits are unpacked from the masks' bytes, so any v works."""
    nbytes = (v + 7) // 8
    data = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    return np.array((1, -1), dtype)[bits.reshape(len(masks), -1)[:, :v]]


def _as_row(x):
    if isinstance(x, CyclicSubset):
        return _pm_rows(x.v, [x.mask])[0]
    row = np.asarray(x, dtype=np.int64)
    if row.ndim != 1:
        raise ValueError("expected a 1-d first row")
    return row


def _circulant_index(v: int) -> np.ndarray:
    j = np.arange(v)
    return (j[None, :] - j[:, None]) % v


def circulant(x) -> np.ndarray:
    """Circulant matrix with C[i, j] = row[(j - i) mod v]."""
    row = _as_row(x)
    return row[_circulant_index(len(row))]


def family_circulants(fam: Family) -> list:
    rows = _pm_rows(fam.v, [b.mask for b in fam.blocks])
    return list(rows[:, _circulant_index(fam.v)])


def _matrices(fam_or_mats) -> list:
    if isinstance(fam_or_mats, Family):
        return family_circulants(fam_or_mats)
    return [np.asarray(m, dtype=np.int64) for m in fam_or_mats]


def _gram(mats) -> np.ndarray:
    """sum_i A_i A_i^T as one float64 product [A_1 ... A_n] [A_1 ... A_n]^T."""
    m = np.concatenate(mats, axis=1, dtype=np.float64)
    return m @ m.T


@lru_cache(maxsize=64)
def _scalar_matrix(n: int, c: int) -> np.ndarray:
    """c I of order n, read-only, in float32 (exact for |c| < 2^24)."""
    m = np.zeros((n, n), np.float32)
    np.fill_diagonal(m, c)
    m.flags.writeable = False
    return m


def _is_scalar(g: np.ndarray, c: int) -> bool:
    """g == c I, in one comparison."""
    return bool((g == _scalar_matrix(len(g), c)).all())


def _is_skew_type(h: np.ndarray, ht: np.ndarray) -> bool:
    """h + h^T == 2I, with ht = h^T (a view or a copy)."""
    return _is_scalar(h + ht, 2)


@dataclass(frozen=True)
class DiffFamilyCheck:
    """Outcome of the difference-family test; sums[d-1] aggregates d and lists
    the total multiplicity of difference d over all blocks."""

    ok: bool
    lam: object  # the constant index, when ok
    sums: tuple

    def __bool__(self):
        return self.ok


def _difference_check(first_row: list, sizes) -> DiffFamilyCheck:
    """Difference multiplicities from the first row of the Gram sum of
    blocks of the given sizes, as a list."""
    v = len(first_row)
    ksum = sum(sizes)
    if v == 1:
        return DiffFamilyCheck(True, ksum - v, ())
    # G[0, s] = sum_i PAF_i(s) = n v - 4 sum k_i + 4 sum_i d_i(s)
    shift = 4 * ksum - len(sizes) * v
    sums = [(int(g) + shift) // 4 for g in first_row[1:]]
    ok = sums.count(sums[0]) == len(sums)
    return DiffFamilyCheck(ok, sums[0] if ok else None, tuple(sums))


def check_difference_family(blocks) -> DiffFamilyCheck:
    """Do the blocks' difference multiplicities sum to a constant?"""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("no blocks")
    v = blocks[0].v
    if any(b.v != v for b in blocks):
        raise ValueError("blocks live in different groups")
    gram = _gram([circulant(b) for b in blocks])
    return _difference_check(gram[0].tolist(), [len(b) for b in blocks])


def check_gs_matrices(fam_or_mats) -> bool:
    """sum A_i A_i^T = 4vI for the four block circulants."""
    mats = _matrices(fam_or_mats)
    return _is_scalar(_gram(mats), 4 * len(mats[0]))


# Block (I, J) of the array as (block i of the family, sign, entry index):
# "C" circulant (c - r), "R" times R (-1 - r - c), "T" transposed times R
# (r + c + 1), all mod v.
_GS_LAYOUT = (((0, 1, "C"), (1, 1, "R"), (2, 1, "R"), (3, 1, "R")),
              ((1, -1, "R"), (0, 1, "C"), (3, -1, "T"), (2, 1, "T")),
              ((2, -1, "R"), (3, 1, "T"), (0, 1, "C"), (1, -1, "T")),
              ((3, -1, "R"), (2, -1, "T"), (1, 1, "T"), (0, 1, "C")))


@lru_cache(maxsize=None)
def _gs_index(v: int) -> np.ndarray:
    """Index of each entry of the array, flattened, into its source
    [row_1, -row_1, ..., row_4, -row_4]."""
    r, c = np.ogrid[:v, :v]
    entry = {"C": (c - r) % v, "R": (-1 - r - c) % v, "T": (r + c + 1) % v}
    index = np.block([[(2 * i + (sign < 0)) * v + entry[form]
                       for i, sign, form in row] for row in _GS_LAYOUT]).ravel()
    index.flags.writeable = False
    return index


def _signed(v: int, masks: list) -> np.ndarray:
    """[row, -row] for the +-1 row of each mask, in float32, read-only,
    from one `_pm_rows` call."""
    rows = _pm_rows(v, masks, np.float32)
    signed = np.concatenate((rows, -rows), axis=1)
    signed.flags.writeable = False
    return signed


# [row, -row] of a list of width-v masks, each unpacked once per (v, mask);
# bounded, as a long search meets many masks and each entry holds 8v bytes
signed_rows = MaskCache(_signed, 1 << 14)


def _signed_row(v: int, mask: int) -> np.ndarray:
    """`signed_rows` of one mask."""
    return signed_rows.one(v, mask)


def _gs_source(fam: Family) -> np.ndarray:
    """The 8v entries the array copies: each block's +-1 row and its negative."""
    return np.concatenate([_signed_row(fam.v, b.mask) for b in fam.blocks])


def _gs_array(source: np.ndarray, v: int) -> np.ndarray:
    """The 4v x 4v Goethals-Seidel array, in one gather from its source."""
    return source.take(_gs_index(v)).reshape(4 * v, 4 * v)


def build_gs_array(fam: Family) -> np.ndarray:
    """The 4v x 4v Goethals-Seidel array, as int64."""
    return _gs_array(_gs_source(fam), fam.v).astype(np.int64)


def _is_pm1(x: np.ndarray) -> bool:
    """Every entry of x is +1 or -1."""
    return bool(((x == 1) | (x == -1)).all())


def is_hadamard(h: np.ndarray) -> bool:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    f = h.astype(np.float64)
    return _is_pm1(h) and _is_scalar(f @ f.T, len(h))


def is_skew_hadamard(h: np.ndarray) -> bool:
    h = np.asarray(h)
    return is_hadamard(h) and _is_skew_type(h, h.T)


def check_good_matrices(fam_or_mats) -> bool:
    """Good-matrix identities for a family with pattern ksss, or its circulants
    A_1..A_4: A_1 of skew type, the B_i = A_{i+1} R symmetric, all four
    pairwise amicable, and their Gram sum 4vI."""
    if isinstance(fam_or_mats, Family) and fam_or_mats.pattern != "ksss":
        raise ValueError(
            f"good matrices need pattern ksss, got {fam_or_mats.pattern!r}")
    a1, *rest = _matrices(fam_or_mats)
    v = len(a1)
    m = np.concatenate([a1] + [a[:, ::-1] for a in rest], dtype=np.float64)
    bs = m[v:].reshape(3, v, v)
    if not _is_skew_type(a1, a1.T) or not (bs == bs.transpose(0, 2, 1)).all():
        return False
    # q[i, :, j, :] = M_i M_j^T for M = (A_1, B_1, B_2, B_3); amicable iff
    # every such block is symmetric
    q = (m @ m.T).reshape(4, v, 4, v)
    if not (q == q.transpose(0, 3, 2, 1)).all():
        return False
    return _is_scalar(np.trace(q, axis1=0, axis2=2), 4 * v)


_SPECIAL_NAMES = {"ksss": "good", "kkss": "g", "kkks": "best"}


@dataclass(frozen=True)
class FamilyCertificate:
    family: Family
    diff: DiffFamilyCheck
    lam_matches: bool
    gs: bool
    hadamard: bool
    skew_type: object       # None when X_1 is not skew
    special_name: str       # 'good'/'g'/'best' or '' when not applicable
    special: object         # outcome of the pattern-specific check, or None

    @property
    def ok(self) -> bool:
        checks = [self.diff.ok, self.lam_matches, self.gs, self.hadamard]
        if self.skew_type is not None:
            checks.append(self.skew_type)
        if self.special is not None:
            checks.append(self.special)
        return all(checks)


def verify_family(fam: Family) -> FamilyCertificate:
    """Run every applicable exact check on a family, from one float32 array
    H and its one product P = H H^T.  Good, G- and best matrices are the
    Gram condition on their pattern, so a named special certificate is `gs`.
    """
    v = fam.v
    source = _gs_source(fam)
    h = _gs_array(source, v)
    # a contiguous H^T: numpy hands h @ h.T to syrk, which is slower than
    # gemm at these sizes, and the skew-type test reads it too
    ht = h.T.copy()
    p = h @ ht
    diff = _difference_check(p[0, :v].tolist(), fam.params.k)
    lam_matches = diff.ok and diff.lam == fam.params.lam
    p_ok = _is_scalar(p, 4 * v)
    # the Gram sum is P's top-left block, so it is 4vI when P is
    gs = p_ok or _is_scalar(p[:v, :v], 4 * v)
    had = p_ok and _is_pm1(source)
    skew_type = (had and _is_skew_type(h, ht)) if fam.tags[0] == TAG_SKEW else None
    name = _SPECIAL_NAMES.get(fam.pattern, "")
    special = gs if name else None
    return FamilyCertificate(fam, diff, lam_matches, gs, had, skew_type,
                             name, special)


def hadamard_text(h: np.ndarray) -> str:
    """Render a +-1 matrix as '+'/'-' rows."""
    return "\n".join("".join("+" if e == 1 else "-" for e in row) for row in h) + "\n"


def write_hadamard(path, h: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(hadamard_text(h))
