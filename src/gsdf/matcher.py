"""Matching four candidate row sets into difference families.

Four blocks X_1..X_4 form a difference family with index lam exactly when
their difference rows sum to the constant row (lam, ..., lam).  The match
is a meet in the middle on pair sums.  `match_cases` sorts each file
once by its rows, lexicographically (`np.lexsort`; `np.unique` on numpy
2.4 imports `numpy.ma` on its first call in a process, 14-16 ms on a
2-core x86-64 machine), and every piece of the search is then a range
of rows of a sorted file.  The four files are ordered by size, as
a <= b <= c <= d: the (a, d) pairs form one side and the (b, c) pairs
the other.  Each file splits into runs of equal values in column 0; the
(a, d) run products are grouped by their pair sum s = n_a + n_d, and
each group meets only the (b, c) products whose sum is lam - s.  Every
pair lands in exactly one group, so the join builds each pair once.
Each side of a group is one `_Side`: its two sorted files, their row
keys, its ranges, its pair count and its two slots among X_1..X_4.

A group is finished by `_join`, the one join entry, over the columns it
was not grouped on.  The side with fewer pairs is stored: its pair-sum
keys fill one array sized from the range lengths.  The other side is
streamed in blocks of about _CHUNK keys (small products share a block),
written into one buffer, so only the stored side costs memory.  The
joins of a match write into one workspace of these arrays
(`_Workspace`), sized from its first-column groups, so one join after
another touches the same pages instead of mapping fresh ones.  A group
whose stored side holds SPLIT_LIMIT pairs or more is refined on its next
column by the same rule: each product splits into the products of its
ranges' runs there, regrouped by their pair sum t, and the (a, d)
products of sum t meet only the (b, c) products of sum lam - t.  The
rows of a range agree on every column before the group's depth, so in a
sorted file they are sorted by the next column: its runs of equal values
are contiguous and ascending, and a split copies no rows.  A group
refined on every column is joined like any other; there every pair of
one side matches every pair of the other.  A first-column group is
refined depth first and its pieces are joined as they are reached, so
a process holds the ranges of one first-column group's current path,
not every leaf of the search.  SPLIT_LIMIT = 10**6 keeps a stored side's
keys near 8 MB and each of its two occupancy arrays at most 8 MB; on the
order-33 and order-37 kkss searches it beat 5e5, 2e6 and 1e7.

Consecutive small pieces are joined as one, a pack (`_packs`): the
first-column groups of a match, and the pieces of each group's
refinement as they are reached.  Every piece of a match reads the same
two sorted files on each side, so a pack is one `_Side` per side with
its pieces' ranges concatenated, and its depth is the least of theirs.
A quadruple across two pieces differs from lam in a column before one
of their depths, so it is no family; the join hashes full rows against
the all-lam target and confirms every hit exactly, so a pack finds
exactly the families of its pieces.  A join has a fixed cost (the
target and its key, the `_Table`, the block loops): one of 7 stored and
54 streamed pairs takes about 60 us, which the small groups of a dense
search paid once each; packed, the 36 joins of the three searches of
`dense-small` become 15.  Pieces are packed while the stored side of
their union stays within the pack limit, the least of _CHUNK,
SPLIT_LIMIT - 1 and the largest stored side among the match's
first-column groups: below the split limit a pack is a piece the split
rule joins as it stands, and within the largest group's stored side the
workspace needs no more room for it.  The limit keeps the occupancy
arrays in cache: packing all 16 groups of the (29;14,13,12,10;20) ksss
match into one join of 302,608 stored pairs makes its two arrays 4 MiB
each, past the 2 MiB L2 of a core, and the match 41-48% slower (13.9-15.6
-> 20.5-22.8 ms, best of 15, four runs, 2-core x86-64), where within
_CHUNK they take 512 KiB each.

Rows are hashed to 64-bit keys once per match, over all (v-1)/2 columns:
a dot product with a fixed random multiplier per column, linear in the
row, so key(r_b + r_c) = key(r_b) + key(r_c).  `match_cases` hashes each
sorted file, every side holds the keys of its two files beside them, and
a range reads its keys there.  In a group at depth d, every quadruple
sums to lam in the columns before d, so it is a family exactly when its
rows sum to the all-lam row in every column: the join's target is that
row and its key, the same test as one over the columns from d on up to
a constant that cancels.  A stored key
keeps its high bits and holds its pair's position on its side in the
low w bits, w the bit length of the stored pair count.  The n stored
keys are sorted, and two occupancy arrays of 2**(b+3) cells, 2**b >= n,
mark the cells that hold a key: one on the keys' top b + 3 bits, one on
the b + 3 bits just above the low w.  Both sides stream the pair sums
key(r_x) + key(r_y), broadcast a few x rows at a time; each block of
the streamed side becomes the needles key(target) - key(r_x) - key(r_y)
by one subtraction in place and is looked up as it comes.  A matching key
lies in [c, c + 2**w - 1], c the
needle with its low w bits clear, so it shares every bit of the needle
above the low w; both fields read only such bits (narrowing to 64 - w
bits when b + 3 + w would pass 64), so a needle with a match passes
both arrays.  Fewer than one cell in 8 holds a key: of the 1.14M
needles of the (29;14,13,12,10;20) ksss search, 8.8% pass the first
array and 0.8% both.  Only those have their low bits cleared, and each
is settled by one binary search: the first key not below c must be
within 2**w - 1 of it.  The filters reject only needles with no key in
range, so the result does not rest on the keys being uniform.  A hit's
stored pairs are the keys in that range, whose low bits give their
positions, so each side is built and walked once.  Equal keys have
equal high bits, and distinct rows can share a key, so every candidate
quadruple is confirmed exactly on its full rows against the target row
before it is emitted, reading the rows and masks of the sorted files.

Solutions are returned as 4-tuples of int block masks (bit i set when
i is in the block), sorted, independent of the split limit and of the
number of worker processes `jobs` (the CLI's default is `default_jobs`,
read from GSDF_JOBS).  Each pack of first-column groups is one task,
and so is each group too large to pack, refined and joined where it
runs.  The pool has one worker per task at most, and hands the tasks
out by most pairs first; the workers are forked holding the tasks, so a
task is sent as its index and the parent refines nothing.  Callers that
want blocks build them from the masks.
The join takes the four files as given: it assumes no symmetry of them.
`search.search_param` gives it the canonical candidates, X_1 reduced
to unit-orbit representatives and every other skew position to the
blocks X < -X, and expands the families over those negations and the
units afterwards.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

SPLIT_LIMIT = 10 ** 6
BRUTE_FORCE_GUARD = 10 ** 8

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int, n: int) -> list:
    """The first n outputs of the SplitMix64 generator from seed."""
    out = []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


# one odd multiplier per difference column, in pure Python: numpy.random
# would be an import of its own
_HASH_MULT = np.array([m | 1 for m in _splitmix64(0x9E3779B97F4A7C15, 64)],
                      dtype=np.uint64)
_CHUNK = 1 << 15


@dataclass
class MatchCase:
    """One group of the pair-sum join.

    `sides` holds the (a, d) side and the (b, c) side, each a `_Side`.
    In every column before `depth`, each pair of one side sums to lam
    minus the sum of each pair of the other.  The rows of a range agree
    on every column before `depth`, and a row occurs in at most one range
    of a side.  `match_cases` returns the groups on column 0, at depth 1.
    A pack of groups (`_packs`) is joined, never refined: the rules hold
    within each of its groups, not across them.
    """

    v: int
    lam: int
    depth: int
    sides: tuple

    @property
    def sizes(self) -> tuple:
        """Rows of X_1..X_4 in the group."""
        out = [0] * 4
        for side in self.sides:
            sx, sy = side.slots
            for x0, x1, y0, y1 in side.ranges:
                out[sx] += x1 - x0
                out[sy] += y1 - y0
        return tuple(out)


def _runs(f, col: int, lo: int, hi: int) -> list:
    """(value, start, end) of each run of equal values in column ``col``
    of the rows lo..hi of ``f``, which are sorted by that column; none
    when the range is empty, as then there are no values to zip."""
    vals = f.rows[lo:hi, col]
    last = (vals[1:] != vals[:-1]).nonzero()[0]  # each run's last row but the final run's
    ends = [*(last + (lo + 1)).tolist(), hi]
    return list(zip(vals[last].tolist() + vals[-1:].tolist(), [lo, *ends[:-1]], ends))


def _refine(case: MatchCase) -> list:
    """Split a group on its next column, pairing (a, d) products of sum t
    there with (b, c) products of sum lam - t: one `_Side` per sum t.

    The rows of a range agree before the column and their file is sorted
    by its rows, so they are sorted by the column: a range splits into
    its `_runs` there, and the products into the products of runs."""
    col, lam = case.depth, case.lam
    by_sum = []
    for s in case.sides:
        products = {}
        for x0, x1, y0, y1 in s.ranges:
            y_runs = _runs(s.fy, col, y0, y1)
            for u, a0, a1 in _runs(s.fx, col, x0, x1):
                for w, b0, b1 in y_runs:
                    if u + w <= lam:
                        products.setdefault(u + w, []).append((a0, a1, b0, b1))
        by_sum.append({t: _Side(s.fx, s.kx, s.fy, s.ky, s.slots, ranges)
                       for t, ranges in products.items()})
    ad, bc = by_sum
    return [MatchCase(case.v, lam, col + 1, (ad[t], bc[lam - t]))
            for t in sorted(ad) if lam - t in bc]


def _hash(rows) -> np.ndarray:
    """The key of each row: its dot product with the multipliers, one per
    column, mod 2**64."""
    keys = np.zeros(len(rows), dtype=np.uint64)
    for col, mult in zip(rows.T, _HASH_MULT):
        keys += col.astype(np.uint64) * mult
    return keys


def match_cases(files, lam: int) -> list:
    """The groups on the first column; phase-two entry point.  Each file is
    sorted by its rows and hashed here, once, and the groups' ranges are
    row ranges of these sorted files."""
    v = files[0].v
    if any(f.v != v for f in files):
        raise ValueError("row files disagree on v")
    if (v - 1) // 2 < 1:
        raise ValueError("matching needs at least one difference column")
    # a file given at several positions stays one file, sorted and hashed once
    ready = {id(f): f for f in files}
    for i, f in ready.items():
        f = f.select(np.lexsort(f.rows.T[::-1]))
        ready[i] = f, _hash(f.rows)
    files = [ready[id(f)] for f in files]
    n = [len(f) for f, _ in files]
    a, b, c, d = sorted(range(4), key=n.__getitem__)
    return _refine(MatchCase(v, lam, 0, tuple(
        _Side(*files[x], *files[y], (x, y), [(0, n[x], 0, n[y])])
        for x, y in ((a, d), (b, c)))))


class _Table:
    """Sorted keys, looked up through two occupancy filters and one binary
    search.

    A value v is found when some key lies in [c, c + low], low = 2**w - 1
    and c = v with the bits of low clear: such a key shares every bit of
    v above the low w.  Each filter marks which of 2**cells cells hold a
    key, cells = bits + 3 for 2**bits >= len(keys), so fewer than one
    cell in 8 is marked: `by_top` on the top cells bits, `by_above` on
    the cells bits just above the low w.  Both fields read only bits
    above the low w, narrowing to 64 - w bits when bits + 3 + w would
    pass 64 (the two then read the same bits), so a value with a key in
    range passes both.  The filters are prefixes of the workspace's
    arrays.  `keys` must not be empty.
    """

    def __init__(self, keys, low, ws):
        self.keys, self.low, self.ws = keys, low, ws
        w = int(low).bit_length()
        cells = min(max(1, len(keys).bit_length()) + 3, 64 - w)
        self.top = np.uint64(64 - cells)
        self.w, self.field = np.uint64(w), np.uint64((1 << cells) - 1)
        self.by_top, self.by_above = ws.by_top[:1 << cells], ws.by_above[:1 << cells]
        self.by_top[:] = False
        self.by_above[:] = False
        # a block at a time, to hold no copy of all keys
        for lo in range(0, len(keys), _CHUNK):
            block = keys[lo:lo + _CHUNK]
            shift = ws.shift[:len(block)]
            self.by_top[self._top(block, shift)] = True
            self.by_above[self._above(block, shift)] = True

    # Both fields are below 2**63 (the top one is shifted by at least one
    # bit), so they are viewed as int64, which is np.intp on 64-bit platforms.
    def _top(self, values, out=None):
        return np.right_shift(values, self.top, out=out).view(np.int64)

    def _above(self, values, out=None):
        out = np.right_shift(values, self.w, out=out)
        out &= self.field
        return out.view(np.int64)

    def probe(self, values):
        """(i, c): the indices of the entries of ``values`` that are
        found, ascending, and those values with the bits of low clear.

        A value that passes both filters is settled by the first key not
        below c: in uint64 a key below wraps to key - c > low.  The
        fields index the cells, so "clip", the take mode that writes
        straight into `out`, never clips.
        """
        n = len(values)
        hit = self.by_top.take(self._top(values, self.ws.shift[:n]),
                               out=self.ws.hit[:n], mode="clip")
        i = np.flatnonzero(hit)
        val = values[i]
        passed = self.by_above.take(self._above(val))
        i, val = i[passed], val[passed]
        val &= ~self.low
        keys = self.keys
        found = keys.take(np.searchsorted(keys, val), mode="clip") - val <= self.low
        return i[found], val[found]


class _Workspace:
    """The arrays every join of a match writes into, each used a prefix
    at a time: the stored keys (`keys`), both occupancy arrays (`by_top`,
    `by_above`), the block buffer (`block`), the positions 0, 1, ... of
    a block (`positions`), and a block's filter fields and cells in the
    probe (`shift`, `hit`).  A match builds one (each pool worker its
    own) and drops it when it returns; a stored side larger than the
    keys grows the stored arrays (`reserve`)."""

    def __init__(self, stored: int, width: int):
        self.block = np.empty(width, dtype=np.uint64)
        self.positions = np.arange(width, dtype=np.uint64)
        self.shift = np.empty(width, dtype=np.uint64)
        self.hit = np.empty(width, dtype=bool)
        self.keys = self.by_top = self.by_above = np.empty(0, dtype=np.uint64)
        self.reserve(stored)

    @classmethod
    def for_groups(cls, groups) -> "_Workspace":
        """Room for the joins of a match's tasks ``groups``, packs of
        first-column groups or single groups, whose refined pieces and
        their packs are no larger: a block holds at most a side's pairs,
        and at most _CHUNK unless one y range is wider; a joined piece
        stores an unrefined task's side or fewer than SPLIT_LIMIT pairs,
        unless it was refined on every column, and a pack of pieces no
        more than the largest first-column group."""
        sides = [s for g in groups for s in g.sides]
        widest = max((y1 - y0 for s in sides for _, _, y0, y1 in s.ranges), default=0)
        most = max((s.pairs for s in sides), default=0)
        stored = max((min(s.pairs for s in g.sides) for g in groups), default=0)
        return cls(min(stored, SPLIT_LIMIT), min(most, max(_CHUNK, widest)))

    def reserve(self, stored: int) -> None:
        """Room for a stored side of ``stored`` pairs."""
        if stored > len(self.keys):
            self.keys = np.empty(stored, dtype=np.uint64)
            cells = 8 << max(1, stored.bit_length())  # as many as `_Table` uses
            self.by_top = np.empty(cells, dtype=bool)
            self.by_above = np.empty(cells, dtype=bool)


class _Side:
    """One side of a group: the x and y files, sorted by their rows, with
    the keys of their rows, `kx` and `ky`, and their positions among
    X_1..X_4, `slots`.  Product p pairs the x rows x0..x1 with the y rows
    y0..y1, (x0, x1, y0, y1) = ranges[p]; `pairs` counts the pairs of
    every product.  A pair's position counts the pairs before it,
    products in order and x-major within each product."""

    def __init__(self, fx, kx, fy, ky, slots, ranges):
        self.fx, self.kx, self.fy, self.ky = fx, kx, fy, ky
        self.slots, self.ranges = slots, ranges
        self.pairs = sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in ranges)

    def blocks(self, ws):
        """The pair keys key(x) + key(y) in position order, at most _CHUNK
        at a time unless one y range is longer: (offset, keys), keys[j]
        that of the pair at position offset + j.

        Each product is broadcast a few x rows at a time into a part,
        kx[x rows, None] + ky[None, y rows], written straight into the
        workspace's block buffer.  Parts follow each other in the buffer
        until the next would push the block past _CHUNK, so small products
        share a block.  A block is a view of the buffer, not of the keys:
        the caller may change it in place, and it is valid until the next
        block is requested."""
        kx, ky = self.kx, self.ky
        buf = ws.block
        size, offset = 0, 0
        for x0, x1, y0, y1 in self.ranges:
            ny = y1 - y0
            step = max(1, _CHUNK // ny)
            for lo in range(x0, x1, step):
                nx = min(step, x1 - lo)
                if size and size + nx * ny > _CHUNK:
                    yield offset, buf[:size]
                    offset, size = offset + size, 0
                np.add(kx[lo:lo + nx, None], ky[None, y0:y1],
                       out=buf[size:size + nx * ny].reshape(nx, ny))
                size += nx * ny
        if size:
            yield offset, buf[:size]

    def locate(self, positions):
        """The file rows (x, y) of the pairs at ``positions``."""
        x0, x1, y0, y1 = np.array(self.ranges).T
        ny = y1 - y0
        n = (x1 - x0) * ny
        first = np.cumsum(n) - n
        p = np.searchsorted(first, positions, side="right") - 1
        r = positions - first[p]
        return x0[p] + r // ny[p], y0[p] + r % ny[p]


def _join(case: MatchCase, ws) -> list:
    """Mask quadruples of one group, hash joined on their row sums in the
    arrays of the workspace ``ws``; the side with fewer pairs is stored.
    Every quadruple of the group sums to lam in the columns before its
    depth, so it is a family exactly when its rows sum to the all-lam
    row, the target."""
    stored, streamed = sorted(case.sides, key=lambda s: s.pairs)
    if stored.pairs >= 1 << 31:
        raise ValueError(f"a stored side of {stored.pairs} pairs exceeds 2**31 - 1")
    target = np.full((case.v - 1) // 2, case.lam, dtype=np.int16)
    key_t = _hash(target[None])[0]
    low = np.uint64((1 << stored.pairs.bit_length()) - 1)
    high = ~low
    ws.reserve(stored.pairs)
    build = ws.keys[:stored.pairs]
    for offset, keys in stored.blocks(ws):
        keys &= high
        keys += np.uint64(offset)
        np.add(keys, ws.positions[:len(keys)], out=build[offset:offset + len(keys)])
    build.sort()
    table = _Table(build, low, ws)
    hit_pos, hit_need = [], []
    for offset, needles in streamed.blocks(ws):
        # the needles key_t - key(x) - key(y), one subtraction per block
        np.subtract(key_t, needles, out=needles)
        j, need = table.probe(needles)
        if len(j):
            hit_pos.append(offset + j)
            hit_need.append(need)
    del table
    if not hit_need:
        return []
    hit_x, hit_y = streamed.locate(np.concatenate(hit_pos))
    need = np.concatenate(hit_need)

    # Every streamed hit meets every stored pair whose key has its high
    # bits; hash collisions and the cut bits make more than one, so each
    # quadruple is confirmed on its rows.
    lo = np.searchsorted(build, need, side="left")
    count = np.searchsorted(build, need | low, side="right") - lo
    files = (stored.fx, stored.fy, streamed.fx, streamed.fy)
    slots = stored.slots + streamed.slots
    out = []
    step = max(1, _CHUNK // int(count.max()))
    for h0 in range(0, len(need), step):
        n = count[h0:h0 + step]
        first = np.cumsum(n) - n
        pos = np.repeat(lo[h0:h0 + step] - first, n) + np.arange(n.sum())
        picks = (*stored.locate((build[pos] & low).view(np.int64)),
                 np.repeat(hit_x[h0:h0 + step], n), np.repeat(hit_y[h0:h0 + step], n))
        # summed from an int16 zero: four uint8 rows may pass 255
        rows = sum((f.rows[i] for f, i in zip(files, picks)), np.int16(0))
        ok = (rows == target).all(axis=1)
        cols = [None] * 4
        for slot, f, i in zip(slots, files, picks):
            cols[slot] = f.masks[i[ok]].tolist()
        out.extend(zip(*cols))
    return out


def _pieces(case: MatchCase):
    """The pieces of a group to join, refined depth first: a piece is
    ready as soon as its stored side is below SPLIT_LIMIT or no column is
    left, so only the current path's siblings wait."""
    stack = [case]
    while stack:
        group = stack.pop()
        if group.depth == (group.v - 1) // 2 or min(s.pairs for s in group.sides) < SPLIT_LIMIT:
            yield group
        else:
            stack.extend(_refine(group))


def _packs(pieces, limit: int):
    """The pieces, consecutive ones joined as one: a run of pieces is
    packed while the stored side of their union stays within ``limit``
    pairs.  A pack's sides hold its pieces' ranges in order, on the same
    sorted files, and its depth is the least of theirs; a piece whose
    stored side alone exceeds ``limit`` is yielded as it stands."""
    run, ad, bc = [], 0, 0
    for piece in pieces:
        a, b = (s.pairs for s in piece.sides)
        if run and min(ad + a, bc + b) > limit:
            yield _pack(run)
            run, ad, bc = [], 0, 0
        run.append(piece)
        ad, bc = ad + a, bc + b
    if run:
        yield _pack(run)


def _pack(run: list) -> MatchCase:
    """The one case that joins a run of pieces: a lone piece itself."""
    if len(run) == 1:
        return run[0]
    first = run[0]
    return MatchCase(first.v, first.lam, min(p.depth for p in run), tuple(
        _Side(s.fx, s.kx, s.fy, s.ky, s.slots, [r for p in run for r in p.sides[i].ranges])
        for i, s in enumerate(first.sides)))


def _pack_limit(groups) -> int:
    """The most pairs a pack may store: below SPLIT_LIMIT, so a pack is a
    piece the split rule joins as it stands, and at most _CHUNK and the
    largest stored side of the match's first-column ``groups``, so the
    workspace sized for those holds it."""
    stored = max((min(s.pairs for s in g.sides) for g in groups), default=0)
    return min(_CHUNK, SPLIT_LIMIT - 1, stored)


def _match_group(case: MatchCase, ws, limit: int) -> list:
    """Mask quadruples of one group: its `_pieces`, joined in `_packs`
    of at most ``limit`` stored pairs, in the workspace ``ws``."""
    return [q for pack in _packs(_pieces(case), limit) for q in _join(pack, ws)]


def default_jobs() -> int:
    """Worker count from the GSDF_JOBS environment variable; unset or empty
    gives 1, anything but a positive integer is a ValueError."""
    raw = os.environ.get("GSDF_JOBS", "")
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"GSDF_JOBS must be a positive integer, got {raw!r}")
    return int(raw)


# Set by the initializer of each forked pool worker, never in the parent:
# the tasks reach the workers by fork, not by pickling, which at order
# 41 cost more than the joins; each worker builds its own workspace.
_held = ()


def _hold(tasks, limit) -> None:
    global _held
    _held = tasks, _Workspace.for_groups(tasks), limit


def _join_held(i: int) -> list:
    tasks, ws, limit = _held
    return _match_group(tasks[i], ws, limit)


def bins_match(files, lam: int, jobs: int = 1) -> list:
    """Sorted mask quadruples (X_1..X_4), one block per file, whose rows sum to lam."""
    if jobs < 1:
        raise ValueError("jobs must be positive")
    groups = match_cases(files, lam)
    del files  # the groups hold sorted copies; the caller's go if it keeps none
    limit = _pack_limit(groups)
    # one task per pack of small first-column groups, or per larger group
    tasks = list(_packs(groups, limit))
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        from multiprocessing import get_context  # only a parallel match needs it
        # the workers are forked holding the tasks, so a task is an index;
        # the tasks with most pairs go first, so none of them starts last
        order = sorted(range(len(tasks)), reverse=True,
                       key=lambda i: sum(s.pairs for s in tasks[i].sides))
        with get_context("fork").Pool(jobs, _hold, (tasks, limit)) as pool:
            chunks = list(pool.imap_unordered(_join_held, order, chunksize=1))
    else:
        ws = _Workspace.for_groups(tasks)
        chunks = [_match_group(t, ws, limit) for t in tasks]
    return sorted(q for chunk in chunks for q in chunk)


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
