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

yields a Hadamard matrix of order 4v.  Since R X R = X^T for every
circulant X, (X R)^T = R X^T = X R and (X^T R)^T = R X = X^T R: every
block X R and X^T R of H is symmetric, and the two blocks of each
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

Each entry of H is +-1 times an entry of one of the four first rows:
Z_i[r, c] is row i at (c - r) mod v, (Z_i R)[r, c] at (-1 - r - c) mod v
and (Z_i^T R)[r, c] at (r + c + 1) mod v.  So H is a single `take` from
its source, the 8v entries [row_1, -row_1, ..., row_4, -row_4], through
a flat index of its 16v^2 entries cached per v (`_gs_index`).
`_gs_arrays` is the one construction of H, for a stack of sources at
once; `build_gs_array` is its int64 form for one family.

`verify_families` certifies a list of families, one run of consecutive
families of one order v at a time.  It finds the run's distinct masks
(`distinct_masks`), unpacks them all in one `_pm_rows` call and maps
each block to its row.  The +-1 test runs once, over those distinct
rows: every entry of H is a copy of an entry of its four rows or their
negatives.  The run is then certified _CHUNK = 8 families at a time, in
three float32 buffers of 8 (or, for a shorter run, N) 4v x 4v slots,
allocated once per run: the chunk's H are one `take` of their sources
along axis 1, its H^T one `copyto`, and each P = H H^T one 2-D `matmul`
into its slot.  A short last chunk uses the leading slots only.  Every
certificate of a family is read from its P, its rows and its tags.  The
first block row of H is [A_1 | A_2 R | A_3 R | A_4 R], and R R^T = I, so
P[:v, :v] is the Gram sum G = sum A_i A_i^T: it gives the Gram condition
and, through its first row, the difference multiplicities
(G[0, s] = sum_i PAF_i(s) and PAF(s) = v - 4k + 4 d(s) for a block of
size k), read for the whole chunk in one integer pass.  The chunk's P
are compared with 4vI in one comparison.  G is P's top-left block, so
the Gram condition holds when P's does, and G is compared on its own
only for a P that fails.  The Hadamard test is P's comparison and the
+-1 test; the skew-type test is the Hadamard test when X_1 is skew (see
above), and the pattern's special certificate is the Gram condition.
The certificates are yielded a chunk at a time, so no list of them
stays alive.  `verify_family` is `verify_families` of one family, or
takes a family's certificate from a `verify_families` pass that its
caller walks family by family, as the search does.  No circulant of a
single block is built on that path; the public checks below, which also
take bare matrices, build them.

All checks are exact integer identities.  The products run in floating
point through BLAS (numpy has no BLAS for integer matmul), and that is
exact while every partial sum is an integer the format holds.
`verify_families` gathers H in float32 and runs its products in float32:
every entry is +-1, so every partial sum is an integer of absolute value
at most the inner dimension, at most 4v, and float32 holds every integer
up to 2^24.  That is exact for v <= 2^22; `check_width` caps the search
at v <= 63, an inner dimension of at most 252.  Each scalar-matrix
certificate (P, and the Gram sum when P fails) is one comparison
`x == cI` with a cached, read-only c I.  The public checks below take
arbitrary integer matrices and run their products in float64; they are
the oracle the certificate is tested against.

What a chunk batches was measured on the 3760 families of orders 21-25
(a 2-core x86-64 machine, numpy 2.4, one BLAS thread, best of 7 warm
passes).  One family per call took 185-204 ms, about 50 us a family, of
which the float32 product is 14-15 us at v = 25; the rest was
per-family overhead: some 15 small numpy calls, cache lookups and a
Python pass over the difference sums.  In chunks of c families they took
137-152 ms at c = 4, 115-126 ms at c = 8, 124-137 ms at c = 16 and
135-155 ms at c = 32, where the buffers outgrow the cache.  The product
stays one 2-D `matmul` per family: a stacked `matmul` over the chunk was
no faster over the whole certificate, and slower (19 against 14 us per
family) on an earlier measurement.  The gather is one `take` along
axis 1: at v = 21-29 it took 4-8 us per family, against 6-10 us for a
1-D `take` per family and 9-32 us for the fancy index `source[:, index]`.
The certificates are yielded a chunk at a time; returning a list of all
of them, gathered from one (N, 8v) source, raised a search's peak RSS by
1.7-3.0 MiB.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import attrgetter

import numpy as np

from .family import Family
from .zmod import TAG_SKEW, CyclicSubset, distinct_masks

_CHUNK = 8  # families per chunk of `verify_families`


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


def _are_scalar(g: np.ndarray, c: int) -> np.ndarray:
    """g[i] == c I for each matrix of a stack g, in one comparison."""
    return (g == _scalar_matrix(g.shape[-1], c)).all(axis=(-2, -1))


def _is_scalar(g: np.ndarray, c: int) -> bool:
    """g == c I."""
    return bool(_are_scalar(g, c))


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


def _difference_checks(first_rows: np.ndarray, ksums, nblocks: int) -> list:
    """Difference multiplicities from the first rows of Gram sums, an
    (m, v) float array: row i is of nblocks blocks of total size ksums[i].
    One integer pass over all m rows."""
    v = first_rows.shape[1]
    if v == 1:
        return [DiffFamilyCheck(True, ksum - v, ()) for ksum in ksums]
    # G[0, s] = sum_i PAF_i(s) = n v - 4 sum k_i + 4 sum_i d_i(s)
    shift = 4 * np.array(ksums, np.int64)[:, None] - nblocks * v
    sums = (first_rows[:, 1:].astype(np.int64) + shift) // 4
    ok = (sums == sums[:, :1]).all(axis=1)
    return [DiffFamilyCheck(o, s[0] if o else None, tuple(s))
            for o, s in zip(ok.tolist(), sums.tolist())]


def check_difference_family(blocks) -> DiffFamilyCheck:
    """Do the blocks' difference multiplicities sum to a constant?"""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("no blocks")
    v = blocks[0].v
    if any(b.v != v for b in blocks):
        raise ValueError("blocks live in different groups")
    gram = _gram([circulant(b) for b in blocks])
    return _difference_checks(gram[:1], [sum(map(len, blocks))], len(blocks))[0]


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


def _gs_arrays(sources: np.ndarray, v: int, out=None) -> np.ndarray:
    """The 4v x 4v Goethals-Seidel array of each source, a row of the
    (m, 8v) array sources, in one gather; into out when given.  The index
    is in range, and "wrap" keeps numpy from buffering `out`."""
    m = len(sources)
    flat = None if out is None else out.reshape(m, -1)
    h = sources.take(_gs_index(v), axis=1, out=flat, mode="wrap")
    return h.reshape(m, 4 * v, 4 * v)


def build_gs_array(fam: Family) -> np.ndarray:
    """The 4v x 4v Goethals-Seidel array, as int64."""
    rows = _pm_rows(fam.v, [b.mask for b in fam.blocks])
    return _gs_arrays(np.concatenate((rows, -rows), axis=1).reshape(1, -1), fam.v)[0]


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
    if isinstance(fam_or_mats, Family) and fam_or_mats.pattern != "ksss":
        raise ValueError(
            f"good matrices need pattern ksss, got {fam_or_mats.pattern!r}")
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


def _verify_run(v: int, fams: list):
    """`verify_families` of families of one order v."""
    n = 4 * v
    masks = np.array([[b.mask for b in f.blocks] for f in fams],
                     dtype=np.int64 if v <= 63 else object).ravel()
    distinct, block_row = distinct_masks(masks)
    block_row = block_row.reshape(-1, 4)
    rows = _pm_rows(v, distinct.tolist(), np.float32)
    # every entry of H is a copy of an entry of its four rows or their negatives
    pm1 = _is_pm1(rows, axis=1)[block_row].all(axis=1)
    signed = np.concatenate((rows, -rows), axis=1)
    c = min(_CHUNK, len(fams))
    h, ht, p = (np.empty((c, n, n), np.float32) for _ in range(3))
    for start in range(0, len(fams), c):
        chunk = fams[start:start + c]
        m = len(chunk)
        hc, htc, pc = h[:m], ht[:m], p[:m]
        _gs_arrays(signed[block_row[start:start + m]].reshape(m, -1), v, out=hc)
        # a contiguous H^T: numpy hands h @ h.T to syrk, which is slower
        # than gemm at these sizes
        np.copyto(htc, hc.transpose(0, 2, 1))
        for i in range(m):
            np.matmul(hc[i], htc[i], out=pc[i])
        p_ok = _are_scalar(pc, 4 * v)
        gs = p_ok.tolist()
        # the Gram sum is P's top-left block, so it is 4vI when P is
        for i in np.flatnonzero(~p_ok):
            gs[i] = _is_scalar(pc[i, :v, :v], 4 * v)
        diffs = _difference_checks(pc[:, 0, :v], [sum(f.params.k) for f in chunk], 4)
        had = p_ok & pm1[start:start + m]
        for fam, diff, g, hd in zip(chunk, diffs, gs, had.tolist()):
            name = _SPECIAL_NAMES.get(fam.pattern, "")
            yield FamilyCertificate(
                fam, diff, diff.ok and diff.lam == fam.params.lam, g, hd,
                hd if fam.tags[0] == TAG_SKEW else None, name, g if name else None)


def verify_families(fams):
    """Run every applicable exact check on each family, and yield the
    certificates in order.  Each family is read from one float32 array H
    and its one product P = H H^T, computed `_CHUNK` families at a time
    (see the module docstring).  Good, G- and best matrices are the Gram
    condition on their pattern, so a named special certificate is `gs`;
    a skew X_1 makes H of skew type exactly when it is Hadamard, so the
    skew-type certificate is `hadamard`.
    """
    for v, run in groupby(fams, attrgetter("v")):
        yield from _verify_run(v, list(run))


def verify_family(fam: Family, certificates=None) -> FamilyCertificate:
    """The certificate of `fam`: `verify_families` of that one family, or
    the next certificate of `certificates`, a `verify_families` iterator
    over a list the caller walks in order.  A caller that asks for each
    family's certificate on its own so still pays for a chunk's work once.
    A certificate of another family is a ValueError."""
    cert = next(verify_families([fam]) if certificates is None else certificates)
    if cert.family is not fam:
        raise ValueError(f"the next certificate is not that of {fam}")
    return cert


def hadamard_text(h: np.ndarray) -> str:
    """Render a +-1 matrix as '+'/'-' rows."""
    return "\n".join("".join("+" if e == 1 else "-" for e in row) for row in h) + "\n"


def write_hadamard(path, h: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(hadamard_text(h))
