"""Matching four candidate row sets into difference families.

Four blocks X_1..X_4 form a difference family with index lam exactly when
their difference rows sum to the constant row (lam, ..., lam).  Matching
proceeds column by column: group each row set by its value in the first
unbound column and combine only value quadruples (n1, n2, n3, n4) with
n1 + n2 + n3 + n4 = lam.  A case whose four sub-sets are small enough is
finished by a meet-in-the-middle join over the remaining columns: sorting
the sets by size as a <= b <= c <= d, the join is attempted once
#a * #d < SPLIT_LIMIT and #b * #c < SPLIT_LIMIT, pairing (a, d) and
(b, c); larger cases are split on their next column.  The join is the
one base case: a case split on every column is joined over no columns,
where every quadruple of its files matches.

Row sums are hashed to 64-bit keys (a random-multiplier dot product,
linear in the row, so key(r_b + r_c) = key(r_b) + key(r_c)).  The join is
a sort-merge on these keys: the b x c pair-sum keys are sorted, and the
needle keys key(target) - key(r_a) - key(r_d) are sorted too, a block of
a rows at a time, so that looking one sorted array up in the other finds
the keys on both sides with each search starting where the last ended.
Only for those few keys are the (a, d) and (b, c) index pairs recovered,
by a lookup of the unsorted keys in the sorted hit keys.  Distinct rows
can share a key, so every candidate quadruple is confirmed exactly
against the target row before it is emitted.

Solutions are returned as 4-tuples of int block masks (bit i set when
i is in the block), sorted, independent of the split limit and of the
number of worker processes `jobs` (the CLI's default is `default_jobs`,
read from GSDF_JOBS); callers that want blocks build them from the
masks.  The join takes the four files as given: it assumes no symmetry
of them.  `search.search_param`, whose files are complete candidate
sets, reduces X_1 to unit-orbit representatives before calling it and
expands the families afterwards.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

SPLIT_LIMIT = 10 ** 7
BRUTE_FORCE_GUARD = 10 ** 8

_HASH_MULT = np.random.default_rng(0x9E3779B97F4A7C15).integers(
    1, 1 << 63, size=64, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
_PROBE_CHUNK = 1 << 20


@dataclass
class MatchCase:
    """One split of the recursion: the four row files restricted to one
    value each in a column, the values adding to lam.  `match_cases`
    returns the splits on the first column, so `_join_case` starts at
    depth 1."""

    v: int
    lam: int
    files: tuple

    @property
    def sizes(self) -> tuple:
        return tuple(len(f.masks) for f in self.files)


def _bin_cases(v, lam, files, col):
    """Split on one column; keep only value quadruples that add to lam."""
    groups = []
    for f in files:
        vals = f.rows[:, col]
        uniq = [int(u) for u in np.unique(vals)] if len(vals) else []
        groups.append({u: f.select(vals == u) for u in uniq if u <= lam})
    cases = []
    for n1 in sorted(groups[0]):
        for n2 in sorted(groups[1]):
            if n1 + n2 > lam:
                break
            for n3 in sorted(groups[2]):
                n4 = lam - n1 - n2 - n3
                if n4 < 0:
                    break
                if n4 in groups[3]:
                    cases.append(MatchCase(v, lam, (
                        groups[0][n1], groups[1][n2], groups[2][n3], groups[3][n4])))
    return cases


def match_cases(files, lam: int) -> list:
    """Split the four row files on their first column; phase-two entry point."""
    v = files[0].v
    if any(f.v != v for f in files):
        raise ValueError("row files disagree on v")
    if (v - 1) // 2 < 1:
        raise ValueError("matching needs at least one difference column")
    return _bin_cases(v, lam, tuple(files), 0)


def _join_case(case: MatchCase) -> list:
    v, lam = case.v, case.lam
    ncols = case.files[0].rows.shape[1]
    out = []
    stack = [(1, case.files)]
    while stack:
        depth, files = stack.pop()
        sizes = [len(f.masks) for f in files]
        if min(sizes) == 0:
            continue
        order = sorted(range(4), key=lambda i: sizes[i])
        a, b, c, d = (sizes[i] for i in order)
        if depth == ncols or (a * d < SPLIT_LIMIT and b * c < SPLIT_LIMIT):
            out.extend(_serial_join(files, order, lam, depth, ncols))
            continue
        for sub in _bin_cases(v, lam, files, depth):
            stack.append((depth + 1, sub.files))
    return out


def _members(values, sorted_keys):
    """Mask of the entries of ``values`` that occur in ``sorted_keys``."""
    pos = np.searchsorted(sorted_keys, values)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return sorted_keys[pos] == values


def _common(x, y):
    """Keys of sorted ``x`` that occur in sorted ``y``, with repeats.

    The shorter array is looked up in the longer one; its keys ascend, so
    each binary search starts where the previous one ended.
    """
    if len(x) > len(y):
        x, y = y, x
    return x[_members(x, y)]


def _serial_join(files, order, lam, depth, ncols):
    fa, fb, fc, fd = (files[i] for i in order)
    mult = _HASH_MULT[:ncols - depth]
    res = slice(depth, ncols)

    def keys(f):
        return (f.rows[:, res].astype(np.uint64) * mult).sum(axis=1, dtype=np.uint64)

    ka, kb, kc, kd = keys(fa), keys(fb), keys(fc), keys(fd)
    target = np.full(ncols - depth, lam, dtype=np.int16)
    key_t = (target.astype(np.uint64) * mult).sum(dtype=np.uint64)
    nc, nd = len(kc), len(kd)

    build = (kb[:, None] + kc[None, :]).ravel()
    build.sort()
    # Probe with the sorted needles key_t - key(a) - key(d), a block of a
    # rows at a time; then find which unsorted needles carry a hit key.
    hit_a, hit_d, hit_key = [], [], []
    rows_a = max(1, _PROBE_CHUNK // nd)
    for a0 in range(0, len(ka), rows_a):
        need = (key_t - ka[a0:a0 + rows_a, None] - kd[None, :]).ravel()
        found = _common(np.sort(need), build)
        if len(found):
            j = np.nonzero(_members(need, found))[0]
            hit_a.append(a0 + j // nd)
            hit_d.append(j % nd)
            hit_key.append(need[j])
    del build
    if not hit_key:
        return []
    hit_a, hit_d, hit_key = (np.concatenate(x) for x in (hit_a, hit_d, hit_key))

    # Recover the (b, c) pairs whose sum is a hit key, one block of b rows
    # at a time, without keeping the pair sums.
    hit_keys = np.unique(hit_key)
    pair_b, pair_c = [], []
    rows_b = max(1, _PROBE_CHUNK // nc)
    for b0 in range(0, len(kb), rows_b):
        sums = (kb[b0:b0 + rows_b, None] + kc[None, :]).ravel()
        j = np.nonzero(_members(sums, hit_keys))[0]
        pair_b.append(b0 + j // nc)
        pair_c.append(j % nc)
    pair_b, pair_c = np.concatenate(pair_b), np.concatenate(pair_c)
    pair_key = kb[pair_b] + kc[pair_c]
    by_key = np.argsort(pair_key)
    pair_b, pair_c, pair_key = pair_b[by_key], pair_c[by_key], pair_key[by_key]

    # Every (a, d) hit meets every (b, c) pair of its key; hash collisions
    # make more than one, so each quadruple is confirmed on its rows.
    lo = np.searchsorted(pair_key, hit_key, side="left")
    count = np.searchsorted(pair_key, hit_key, side="right") - lo
    ra, rb, rc, rd = (f.rows[:, res].astype(np.int16) for f in (fa, fb, fc, fd))
    masks = (fa.masks, fb.masks, fc.masks, fd.masks)
    out = []
    step = max(1, _PROBE_CHUNK // int(count.max()))
    for h0 in range(0, len(hit_key), step):
        n = count[h0:h0 + step]
        qa = np.repeat(hit_a[h0:h0 + step], n)
        qd = np.repeat(hit_d[h0:h0 + step], n)
        first = np.cumsum(n) - n
        pos = np.repeat(lo[h0:h0 + step] - first, n) + np.arange(n.sum())
        qb, qc = pair_b[pos], pair_c[pos]
        ok = ((ra[qa] + rb[qb] + rc[qc] + rd[qd]) == target).all(axis=1)
        cols = [None] * 4
        for slot, m, idx in zip(order, masks, (qa, qb, qc, qd)):
            cols[slot] = m[idx[ok]].tolist()
        out.extend(zip(*cols))
    return out


def default_jobs() -> int:
    """Worker count from the GSDF_JOBS environment variable; unset or empty
    gives 1, anything but a positive integer is a ValueError."""
    raw = os.environ.get("GSDF_JOBS", "")
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"GSDF_JOBS must be a positive integer, got {raw!r}")
    return int(raw)


def bins_match(files, lam: int, jobs: int = 1) -> list:
    """Sorted mask quadruples (X_1..X_4), one block per file, whose rows sum to lam."""
    if jobs < 1:
        raise ValueError("jobs must be positive")
    cases = match_cases(files, lam)
    if jobs > 1 and len(cases) > 1:
        with get_context("fork").Pool(jobs) as pool:
            chunks = pool.map(_join_case, cases)
        quads = [q for chunk in chunks for q in chunk]
    else:
        quads = [q for c in cases for q in _join_case(c)]
    quads.sort()
    return quads


def brute_force_match(files, lam: int, guard: int = BRUTE_FORCE_GUARD) -> list:
    """Reference matcher, same output as `bins_match`: four nested loops
    with partial-sum pruning."""
    sizes = [len(f.masks) for f in files]
    work = 1
    for n in sizes:
        work *= n
    if work > guard:
        raise ValueError(f"search space {work} exceeds guard {guard}")
    r1, r2, r3, r4 = (f.rows.astype(np.int16) for f in files)
    out = []
    for i1 in range(sizes[0]):
        p1 = r1[i1]
        if p1.max(initial=0) > lam:
            continue
        for i2 in range(sizes[1]):
            p2 = p1 + r2[i2]
            if p2.max(initial=0) > lam:
                continue
            for i3 in range(sizes[2]):
                need = lam - p2 - r3[i3]
                if need.min(initial=0) < 0:
                    continue
                hits = np.nonzero((r4 == need).all(axis=1))[0]
                for i4 in hits:
                    out.append((int(files[0].masks[i1]), int(files[1].masks[i2]),
                                int(files[2].masks[i3]), int(files[3].masks[i4])))
    out.sort()
    return out
