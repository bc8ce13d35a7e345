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
type (H + H^T = 2I).  The three block symmetry patterns correspond to
the classical special matrix families: one skew block gives good
matrices (A_1 skew-type plus three symmetric back-circulants B_i = A_i R,
pairwise amicable), two skew blocks give G-matrices, three give best
matrices.

`verify_family` builds the four circulants once and derives every
certificate from them: the Gram sum G = sum A_i A_i^T gives both the
Gram condition and, through its first row, the difference multiplicities
(G[0, s] = sum_i PAF_i(s) and PAF(s) = v - 4k + 4 d(s) for a block of
size k); the array H gives the Hadamard test, and the skew-type test
reuses its outcome.  Multiplying by R only reverses columns.

All checks are exact integer identities.  The Gram products run in
float64 through BLAS (numpy has no BLAS for integer matmul), and that is
exact: every entry is +-1, so every product and partial sum is an
integer of absolute value at most the inner dimension, at most
4v <= 252 for the orders searched, far below 2^53.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .family import TAG_SKEW, Family
from .zmod import CyclicSubset


def _as_row(x):
    if isinstance(x, CyclicSubset):
        row = np.ones(x.v, dtype=np.int64)
        row[list(x.elements)] = -1
        return row
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
    rows = np.stack([_as_row(b) for b in fam.blocks])
    return list(rows[:, _circulant_index(fam.v)])


def _matrices(fam_or_mats) -> list:
    if isinstance(fam_or_mats, Family):
        return family_circulants(fam_or_mats)
    return [np.asarray(m, dtype=np.int64) for m in fam_or_mats]


def _gram(mats) -> np.ndarray:
    """sum_i A_i A_i^T as one float64 product [A_1 ... A_n] [A_1 ... A_n]^T."""
    m = np.concatenate(mats, axis=1, dtype=np.float64)
    return m @ m.T


def _is_scalar(g: np.ndarray, c) -> bool:
    """g == c I for a square g and c != 0."""
    return bool((np.diagonal(g) == c).all() and np.count_nonzero(g) == len(g))


def _is_skew_type(h: np.ndarray) -> bool:
    """h + h^T == 2I."""
    return _is_scalar(h + h.T, 2)


@dataclass(frozen=True)
class DiffFamilyCheck:
    """Outcome of the difference-family test; sums[d-1] aggregates d and lists
    the total multiplicity of difference d over all blocks."""

    ok: bool
    lam: object  # the constant index, when ok
    sums: tuple

    def __bool__(self):
        return self.ok


def _difference_check(gram: np.ndarray, blocks) -> DiffFamilyCheck:
    """Difference multiplicities from the first row of the blocks' Gram sum."""
    v = len(gram)
    ksum = sum(len(b) for b in blocks)
    if v == 1:
        return DiffFamilyCheck(True, ksum - v, ())
    # G[0, s] = sum_i PAF_i(s) = n v - 4 sum k_i + 4 sum_i d_i(s)
    paf = gram[0, 1:].astype(np.int64)
    sums = tuple(((paf - len(blocks) * v + 4 * ksum) // 4).tolist())
    ok = all(s == sums[0] for s in sums)
    return DiffFamilyCheck(ok, sums[0] if ok else None, sums)


def check_difference_family(blocks) -> DiffFamilyCheck:
    """Do the blocks' difference multiplicities sum to a constant?"""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("no blocks")
    v = blocks[0].v
    if any(b.v != v for b in blocks):
        raise ValueError("blocks live in different groups")
    return _difference_check(_gram([circulant(b) for b in blocks]), blocks)


def check_gs_matrices(fam_or_mats) -> bool:
    """sum A_i A_i^T = 4vI for the four block circulants."""
    mats = _matrices(fam_or_mats)
    return _is_scalar(_gram(mats), 4 * len(mats[0]))


def build_gs_array(fam_or_mats) -> np.ndarray:
    """The 4v x 4v Goethals-Seidel array, as int64."""
    z0, z1, z2, z3 = _matrices(fam_or_mats)
    v = len(z0)
    z1r, z2r, z3r = z1[:, ::-1], z2[:, ::-1], z3[:, ::-1]
    z1tr, z2tr, z3tr = z1.T[:, ::-1], z2.T[:, ::-1], z3.T[:, ::-1]
    layout = ((z0, z1r, z2r, z3r),
              (-z1r, z0, -z3tr, z2tr),
              (-z2r, z3tr, z0, -z1tr),
              (-z3r, -z2tr, z1tr, z0))
    h = np.empty((4 * v, 4 * v), dtype=np.int64)
    for i, row in enumerate(layout):
        for j, block in enumerate(row):
            h[i * v:(i + 1) * v, j * v:(j + 1) * v] = block
    return h


def is_hadamard(h: np.ndarray) -> bool:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    if not ((h == 1) | (h == -1)).all():
        return False
    f = h.astype(np.float64)
    return _is_scalar(f @ f.T, len(f))


def is_skew_hadamard(h: np.ndarray) -> bool:
    h = np.asarray(h)
    return is_hadamard(h) and _is_skew_type(h)


def check_good_matrices(fam_or_mats) -> bool:
    """Good-matrix identities for a family with pattern ksss, or its circulants.

    A_1 must be of skew type, B_i = A_i R symmetric, the four matrices
    pairwise amicable, and their Gram sum 4vI.
    """
    if isinstance(fam_or_mats, Family) and fam_or_mats.pattern != "ksss":
        raise ValueError(
            f"good matrices need pattern ksss, got {fam_or_mats.pattern!r}")
    a1, a2, a3, a4 = _matrices(fam_or_mats)
    v = len(a1)
    bs = [a2[:, ::-1], a3[:, ::-1], a4[:, ::-1]]
    if not _is_skew_type(a1) or any(not np.array_equal(b, b.T) for b in bs):
        return False
    # q[i, :, j, :] = M_i M_j^T; amicable iff every such block is symmetric
    m = np.concatenate([a1, *bs], dtype=np.float64)
    q = (m @ m.T).reshape(4, v, 4, v)
    if not np.array_equal(q, q.transpose(0, 3, 2, 1)):
        return False
    return _is_scalar(sum(q[i, :, i, :] for i in range(4)), 4 * v)


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
    """Run every applicable exact check on a family, from one set of circulants.

    G-matrices (kkss) and best matrices (kkks) are the Gram condition on
    their pattern, so their special certificate is `gs`.
    """
    mats = family_circulants(fam)
    gram = _gram(mats)
    diff = _difference_check(gram, fam.blocks)
    lam_matches = diff.ok and diff.lam == fam.params.lam
    gs = _is_scalar(gram, 4 * fam.v)
    h = build_gs_array(mats)
    had = is_hadamard(h)
    tags = fam.tags
    skew_type = (had and _is_skew_type(h)) if tags[0] == TAG_SKEW else None
    pattern = "".join(tags)
    name = _SPECIAL_NAMES.get(pattern, "")
    special = None
    if name:
        special = check_good_matrices(mats) if pattern == "ksss" else gs
    return FamilyCertificate(fam, diff, lam_matches, gs, had, skew_type,
                             name, special)


def hadamard_text(h: np.ndarray) -> str:
    """Render a +-1 matrix as '+'/'-' rows."""
    return "\n".join("".join("+" if e == 1 else "-" for e in row) for row in h) + "\n"


def write_hadamard(path, h: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(hadamard_text(h))
