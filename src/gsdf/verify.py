"""Exact certification of families and the Hadamard matrices they induce.

From a family (X_1..X_4) in Z_v form the +-1 circulants A_i of the block
binary sequences (-1 on X_i).  Plugging them into the Goethals-Seidel
array (R the back-circulant identity, Z_i = A_{i+1}, all products with R
reordered as shown):

        [  Z0      Z1 R     Z2 R     Z3 R  ]
    H = [ -Z1 R    Z0      -Z3^T R   Z2^T R ]
        [ -Z2 R    Z3^T R   Z0      -Z1^T R ]
        [ -Z3 R   -Z2^T R   Z1^T R   Z0    ]

gives H H^T = I_4 (x) G with G = sum A_i A_i^T.  Circulants commute, and
R X R = X^T for every circulant X, so R X^T = X R and R R^T = I.  A
diagonal block of H H^T is then Z0 Z0^T plus three terms (X R)(X R)^T =
X X^T or (X^T R)(X^T R)^T = X^T X = X X^T, which is G; an off-diagonal
block is four terms that cancel in pairs, as block (1, 2) shows:

    -Z0 R Z1^T + Z1 R Z0^T - Z2 Z3 + Z3 Z2
        = (Z1 Z0 - Z0 Z1) R + (Z3 Z2 - Z2 Z3) = 0.

So H is a Hadamard matrix of order 4v exactly when its entries are +-1
and G = 4vI.  G is a sum of circulants, so it is circulant and fixed by its
first row, G[0, s] = sum_i PAF_i(s), where PAF(s) = sum_c a[c] a[c + s]
is the periodic autocorrelation of a block's first row a.  G = 4vI is
the paper's defining condition: the four PAFs sum to zero at every
shift s != 0.  For a block of size k, PAF(s) = v - 4k + 4 d(s), so the
same row gives the difference multiplicities d(s), and the family is a
difference family with index lam iff their sums are constant.

Since R X R = X^T, (X R)^T = R X^T = X R and (X^T R)^T = R X = X^T R:
every block X R and X^T R of H is symmetric, and the two blocks of each
off-diagonal pair carry opposite signs, so they cancel in H + H^T, which
is I_4 (x) (A_1 + A_1^T).  A_1 + A_1^T = 2I exactly when 0 is not in X_1
and X_1 holds exactly one of s, -s for each s != 0, that is when X_1 is
skew.  So H is of skew type (H + H^T = 2I) exactly when X_1 is skew, and
the skew-type certificate of a family with a skew X_1 is its Hadamard
certificate.  Each block symmetry pattern names a classical
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

Multiplying by R on the right reverses the columns, so Z_i R is
Z_i[:, ::-1] and Z_i^T R is Z_i.T[:, ::-1].
`build_gs_array` builds H by the formula above, one `np.block` over the
four block circulants (`family_circulants`).  No certificate builds H;
`gsdf verify --hadamard` and the tests do.

`verify_families` certifies a list of families, one run of consecutive
families of one order v at a time, with one array pass per distinct
block.  The run's masks are gathered once (`family_masks`) and
deduplicated (`distinct_masks`).  The distinct masks are tagged in one
`tag_codes` call, their difference rows d(1), ..., d(floor(v/2)) come
from one `difference_counts` call (`blockgen`, the one home of
difference rows), and their +-1 rows from one `_pm_rows` call, for the
+-1 test.  Each family's pattern, and whether its X_1 is skew, are
gathered from those tag codes through the run's (n, 4) block index, the
pattern's special name at the codes' index into `family.PATTERNS`, so
certification reads no tag of a block or a family.  The run is then
certified _SLICE = 256 families at a time: a family's difference sums
D(s) = sum_i d_i(s) are the sum of its four blocks' rows, gathered for
the slice in one index, and D(v - s) = D(s) gives the shifts past v/2.
By the PAF identity above, G[0, s] = 4v - 4 sum k_i + 4 D(s), so `gs`
(G = 4vI) is D(s) = sum k_i - v at every s != 0; the difference-family
checks are read from the sums in one integer pass
(`_difference_checks`); `hadamard` is `gs` and the +-1 test of the
family's four rows; the skew-type certificate is `hadamard` when X_1 is
skew (see above), and the pattern's special certificate is `gs`.  The
families of a run that pass share one frozen `DiffFamilyCheck` per index
lam; only a failing family gets a check of its own, with its sums.  A
`FamilyCertificate` is a named tuple: immutable, and built without a
frozen dataclass's setattr per field.  A slice's certificates are made
by `tuple.__new__` over its zipped columns, so no Python `__new__` runs
per family.  The per-family work left is that tuple and a comparison of
lam with the family's parameters.  `ok` is a property, read from the
fields as they stand, so a `_replace`d certificate is judged on its own
fields: one short-circuit chain of the checks, with no tuple built.  A
slice's certificates are yielded before the next slice is built, so
beyond the run's masks and distinct rows at most _SLICE x 4 x v/2
counts and _SLICE certificates are held at once.  `verify_family` is
`verify_families` of one family, or takes a family's certificate from a
`verify_families` pass that its caller walks family by family, as the
search does.  No circulant, array or matrix product is built on that
path; the public checks below, which also take bare matrices, build
them.

All checks are exact integer identities.  A difference row holds counts
of at most v, in the least unsigned type that holds v (uint8 up to
v = 255), and the sums are int64.  The public checks below take
arbitrary integer matrices and run their products in float64 through
BLAS (numpy has no BLAS for integer matmul), exact while every partial
sum is an integer below 2^53.  `check_difference_family` reads its
difference sums off its own first Gram row, not off `difference_counts`.
They are the oracle the certificates are tested against, and `gsdf
verify --hadamard` checks the one matrix it writes with `is_hadamard`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .blockgen import difference_counts
from .family import PATTERNS, Family, family_masks, family_patterns
from .zmod import CyclicSubset, distinct_masks, tag_codes

_SLICE = 256  # families per slice of `verify_families`


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


def circulant(x) -> np.ndarray:
    """Circulant matrix with C[i, j] = row[(j - i) mod v]."""
    row = _as_row(x)
    j = np.arange(len(row))
    return row[(j[None, :] - j[:, None]) % len(row)]


def family_circulants(fam: Family) -> list:
    return [circulant(b) for b in fam.blocks]


def _matrices(fam_or_mats) -> list:
    if isinstance(fam_or_mats, Family):
        return family_circulants(fam_or_mats)
    return [np.asarray(m, dtype=np.int64) for m in fam_or_mats]


def _gram(mats) -> np.ndarray:
    """sum_i A_i A_i^T as one float64 product [A_1 ... A_n] [A_1 ... A_n]^T."""
    m = np.concatenate(mats, axis=1, dtype=np.float64)
    return m @ m.T


def _is_scalar(g: np.ndarray, c: int) -> bool:
    """g == c I."""
    return np.array_equal(g, c * np.eye(len(g), dtype=np.int64))


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


def _difference_checks(sums: np.ndarray, ksums, passing: dict) -> list:
    """Difference-family checks from difference sums, an (m, v - 1)
    integer array: row i holds D(1), ..., D(v - 1) of blocks of total size
    ksums[i].  The rows that pass share one check per index, kept in
    `passing` across calls; a failing row gets a check of its own sums."""
    if sums.shape[1]:
        lams, oks = sums[:, 0].tolist(), (sums == sums[:, :1]).all(axis=1).tolist()
    else:  # v = 1: no shift to check, and the index is sum k - v
        lams, oks = (np.asarray(ksums) - 1).tolist(), [True] * len(sums)
    checks = []
    for i, (ok, lam) in enumerate(zip(oks, lams)):
        if not ok:
            check = DiffFamilyCheck(False, None, tuple(sums[i].tolist()))
        elif (check := passing.get(lam)) is None:
            check = passing[lam] = DiffFamilyCheck(True, lam, (lam,) * sums.shape[1])
        checks.append(check)
    return checks


def check_difference_family(blocks) -> DiffFamilyCheck:
    """Do the blocks' difference multiplicities sum to a constant?"""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("no blocks")
    v = blocks[0].v
    if any(b.v != v for b in blocks):
        raise ValueError("blocks live in different groups")
    ksum = sum(map(len, blocks))
    # G[0, s] = sum_i PAF_i(s) = n v - 4 sum k_i + 4 sum_i d_i(s)
    gram = _gram([circulant(b) for b in blocks])
    sums = (gram[0, 1:] - len(blocks) * v + 4 * ksum) // 4
    return _difference_checks(sums[None].astype(np.int64), [ksum], {})[0]


def check_gs_matrices(fam_or_mats) -> bool:
    """sum A_i A_i^T = 4vI for the four block circulants."""
    mats = _matrices(fam_or_mats)
    return _is_scalar(_gram(mats), 4 * len(mats[0]))


def build_gs_array(fam: Family) -> np.ndarray:
    """The 4v x 4v Goethals-Seidel array of the module docstring, as int64,
    from the four block circulants Z_i: Z_i R is Z_i[:, ::-1] and Z_i^T R
    is Z_i.T[:, ::-1]."""
    z0, z1, z2, z3 = family_circulants(fam)
    r1, r2, r3 = (z[:, ::-1] for z in (z1, z2, z3))
    t1, t2, t3 = (z.T[:, ::-1] for z in (z1, z2, z3))
    return np.block([[z0, r1, r2, r3],
                     [-r1, z0, -t3, t2],
                     [-r2, t3, z0, -t1],
                     [-r3, -t2, t1, z0]])


def _is_pm1(x: np.ndarray, axis=None):
    """Every entry of x is +1 or -1 (or of each line along axis)."""
    return ((x == 1) | (x == -1)).all(axis=axis)


def is_hadamard(h: np.ndarray) -> bool:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    f = h.astype(np.float64)
    return bool(_is_pm1(h)) and _is_scalar(f @ f.T, len(h))


def is_skew_hadamard(h: np.ndarray) -> bool:
    h = np.asarray(h)
    return is_hadamard(h) and _is_skew_type(h)


def check_good_matrices(fam_or_mats) -> bool:
    """Good-matrix identities for a family with pattern ksss, or its circulants
    A_1..A_4: A_1 of skew type, the B_i = A_{i+1} R symmetric, all four
    pairwise amicable, and their Gram sum 4vI."""
    if isinstance(fam_or_mats, Family):
        [pattern] = family_patterns([fam_or_mats])
        if pattern != "ksss":
            raise ValueError(f"good matrices need pattern ksss, got {pattern!r}")
    a1, *rest = _matrices(fam_or_mats)
    v = len(a1)
    m = np.concatenate([a1] + [a[:, ::-1] for a in rest], dtype=np.float64)
    bs = m[v:].reshape(3, v, v)
    if not _is_skew_type(a1) or not (bs == bs.transpose(0, 2, 1)).all():
        return False
    # q[i, :, j, :] = M_i M_j^T for M = (A_1, B_1, B_2, B_3); amicable iff
    # every such block is symmetric
    q = (m @ m.T).reshape(4, v, 4, v)
    if not (q == q.transpose(0, 3, 2, 1)).all():
        return False
    return _is_scalar(np.trace(q, axis1=0, axis2=2), 4 * v)


_SPECIAL_NAMES = {"ksss": "good", "kkss": "g", "kkks": "best"}


class FamilyCertificate(NamedTuple):
    """Every check of one family; `ok` when all that apply pass."""

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
        return bool(self.diff.ok and self.lam_matches and self.gs and self.hadamard
                    and (self.skew_type is None or self.skew_type)
                    and (self.special is None or self.special))


# the special name of each pattern, indexed as `PATTERNS`
_PATTERN_SPECIAL = np.array([_SPECIAL_NAMES.get(p, "") for p in PATTERNS], dtype=object)


def _verify_run(v: int, fams: list):
    """`verify_families` of families of one order v."""
    distinct, block_row = distinct_masks(family_masks(v, fams).ravel())
    block_row = block_row.reshape(-1, 4)
    tags = tag_codes(v, distinct)
    sizes = np.bitwise_count(distinct).astype(np.int64)
    rows = difference_counts(distinct, v)
    pm1 = _is_pm1(_pm_rows(v, distinct.tolist(), np.int32), axis=1)
    s = np.arange(1, v)
    fold = np.minimum(s, v - s) - 1  # column of D(s) in a row of D(1..v/2)
    passing = {}
    for start in range(0, len(fams), _SLICE):
        part = fams[start:start + _SLICE]
        blocks = block_row[start:start + _SLICE]
        sums = rows[blocks].sum(axis=1, dtype=np.int64)
        ksums = sizes[blocks].sum(axis=1)
        # G = 4vI: D(s) = sum k - v at every shift s != 0
        gs = (sums == (ksums - v)[:, None]).all(axis=1)
        had = gs & pm1[blocks].all(axis=1)
        diffs = _difference_checks(sums[:, fold], ksums, passing)
        names = _PATTERN_SPECIAL[tags[blocks] @ (27, 9, 3, 1)]
        x1_skew = tags[blocks[:, 0]] == 0
        skew = np.where(x1_skew, had.astype(object), None)
        special = np.where(names != "", gs.astype(object), None)
        lam_matches = [d.ok and d.lam == f.params.lam for d, f in zip(diffs, part)]
        # each row as it stands, with no call of the class's Python __new__
        yield from map(tuple.__new__, repeat(FamilyCertificate), zip(
            part, diffs, lam_matches, gs.tolist(), had.tolist(), skew.tolist(),
            names.tolist(), special.tolist()))


def verify_families(fams):
    """Run every applicable exact check on each family, and yield the
    certificates in order.  Each family is read from the sum of its four
    blocks' difference rows, which fixes the first row of its Gram sum G,
    and the +-1 test of its rows, `_SLICE` families at a time (see the
    module docstring).
    H H^T = I_4 (x) G, so H is Hadamard when its rows are +-1 and G is
    4vI.  Good, G- and best matrices are the Gram condition on their
    pattern, so a named special certificate is `gs`; a skew X_1 makes H
    of skew type exactly when it is Hadamard, so the skew-type
    certificate is `hadamard`.
    """
    for v, run in groupby(fams, attrgetter("params.v")):
        yield from _verify_run(v, list(run))


def verify_family(fam: Family, certificates=None) -> FamilyCertificate:
    """The certificate of `fam`: `verify_families` of that one family, or
    the next certificate of `certificates`, a `verify_families` iterator
    over a list the caller walks in order.  A caller that asks for each
    family's certificate on its own so still pays for a slice's work once.
    A certificate of another family, or none left, is a ValueError."""
    cert = next(verify_families([fam]) if certificates is None else certificates, None)
    if cert is None or cert.family is not fam:
        raise ValueError(f"the next certificate is not that of {fam}")
    return cert


def hadamard_text(h: np.ndarray) -> str:
    """Render a +-1 matrix as '+'/'-' rows."""
    return "\n".join("".join("+" if e == 1 else "-" for e in row) for row in h) + "\n"


def write_hadamard(path, h: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(hadamard_text(h))
