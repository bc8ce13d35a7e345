import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdf.blockgen import RowFile, collect_rows, difference_counts
import gsdf.matcher
from gsdf.family import family_from_blocks, format_families
from gsdf.matcher import (BRUTE_FORCE_GUARD, MatchCase, bins_match, brute_force_match,
                          default_jobs, match_cases)
from gsdf.zmod import CyclicSubset

# an immediate join, a few splits, and binning down to the last column
SPLIT_LIMITS = (10 ** 7, 10, 1)


def files_for(v, sizes, kinds, filtered=True):
    return [collect_rows(v, k, kind, filtered=filtered)
            for k, kind in zip(sizes, kinds)]


def subfile(rf, picks):
    """Restrict a row file to selected row indices (keeps sorting)."""
    idx = np.asarray(sorted(picks))
    return RowFile(rf.v, rf.k, rf.kind, rf.bound, rf.masks[idx], rf.rows[idx])


def whole_case(monkeypatch, files, lam):
    """The depth-0 group that `match_cases` refines into its first-column
    groups, whose sides hold the sorted files; and those groups."""
    refine, seen = gsdf.matcher._refine, []
    monkeypatch.setattr(gsdf.matcher, "_refine", lambda case: seen.append(case) or refine(case))
    cases = match_cases(files, lam)
    monkeypatch.setattr(gsdf.matcher, "_refine", refine)
    return seen[0], cases


def every_group(cases):
    """The groups and every group they refine into, down to the last column."""
    stack, out = list(cases), []
    while stack:
        case = stack.pop()
        out.append(case)
        if case.depth < (case.v - 1) // 2:
            stack.extend(gsdf.matcher._refine(case))
    return out


def test_v7_three_skew_one_symmetric():
    fs = files_for(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric"))
    sol = bins_match(fs, 3)
    assert len(sol) == 56
    assert sol == brute_force_match(fs, 3)
    assert all(isinstance(m, int) for quad in sol for m in quad)
    qr = tuple(CyclicSubset.from_elements(7, e).mask for e in ([1, 2, 4],) * 3 + ([0],))
    assert qr in sol
    # every emitted quadruple re-checked from scratch
    for quad in sol:
        sums = [sum(CyclicSubset(7, m).difference_count(d) for m in quad)
                for d in range(1, 7)]
        assert sums == [3] * 6


def side_pairs(case, side):
    """The (slot, mask, slot, mask) pairs of one side of a group."""
    s = case.sides[side]
    sx, sy = s.slots
    return [(sx, int(mx), sy, int(my)) for x0, x1, y0, y1 in s.ranges
            for mx in s.fx.masks[x0:x1] for my in s.fy.masks[y0:y1]]


def slots(case):
    return tuple(s.slots for s in case.sides)


def layout(case):
    """A group as plain values: what its sides hold, by identity for the
    arrays, and its ranges and counts."""
    return case.v, case.lam, case.depth, [
        (id(s.fx), id(s.kx), id(s.fy), id(s.ky), s.slots, s.ranges, s.pairs)
        for s in case.sides]


def test_match_cases_structure():
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    lam = 7
    cases = match_cases(fs, lam)
    assert cases
    (a, d), (b, c) = slots(cases[0])
    assert len(fs[a]) <= len(fs[b]) <= len(fs[c]) <= len(fs[d])
    col0 = [dict(zip(f.masks.tolist(), f.rows[:, 0].tolist())) for f in fs]

    def col0_sum(pair):
        sx, mx, sy, my = pair
        return col0[sx][mx] + col0[sy][my]

    seen = ([], [])
    for case in cases:
        assert case.depth == 1 and slots(case) == ((a, d), (b, c))
        sides = [side_pairs(case, side) for side in (0, 1)]
        # one column-0 sum per side, and the two complete each other to lam
        sums = [{col0_sum(p) for p in pairs} for pairs in sides]
        assert len(sums[0]) == len(sums[1]) == 1
        assert sums[0].pop() + sums[1].pop() == lam
        rows = [set() for _ in fs]
        for sx, mx, sy, my in sides[0] + sides[1]:
            rows[sx].add(mx)
            rows[sy].add(my)
        assert case.sizes == tuple(map(len, rows))
        assert tuple(s.pairs for s in case.sides) == tuple(map(len, sides))
        for side in (0, 1):
            seen[side].extend(sides[side])
    # every pair whose column-0 sum the other side can complete lies in
    # exactly one case, and no other pair does
    everything = [[(sx, int(mx), sy, int(my)) for mx in fs[sx].masks for my in fs[sy].masks]
                  for sx, sy in ((a, d), (b, c))]
    for side in (0, 1):
        other = {col0_sum(p) for p in everything[1 - side]}
        expected = sorted(p for p in everything[side] if lam - col0_sum(p) in other)
        assert sorted(seen[side]) == expected


def assert_splits_are_the_unique_values(case):
    """Split each range of a group on the group's column: the runs must be,
    in order, the rows that np.unique bins on that column within the
    range, and the refined groups' ranges must be products of those runs.
    Returns the refined groups."""
    col, runs = case.depth, set()
    for s in case.sides:
        for f, lo, hi in [(s.fx, x0, x1) for x0, x1, _, _ in s.ranges] + [
                (s.fy, y0, y1) for _, _, y0, y1 in s.ranges]:
            got = gsdf.matcher._runs(f, col, lo, hi)
            vals = f.rows[lo:hi, col]
            want = [(u, lo + np.flatnonzero(vals == u)) for u in np.unique(vals)]
            assert [u for u, _, _ in got] == [u for u, _ in want]
            assert all(type(u) is int for u, _, _ in got)
            for (_, start, end), (_, rows) in zip(got, want):
                assert list(range(start, end)) == rows.tolist()
            runs.update((id(f), start, end) for _, start, end in got)
    refined = gsdf.matcher._refine(case)
    for child in refined:
        assert child.depth == col + 1 and slots(child) == slots(case)
        for s, parent in zip(child.sides, case.sides):
            assert s.fx is parent.fx and s.fy is parent.fy
            assert s.kx is parent.kx and s.ky is parent.ky
            assert s.pairs == sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in s.ranges)
            for x0, x1, y0, y1 in s.ranges:
                assert (id(s.fx), x0, x1) in runs and (id(s.fy), y0, y1) in runs
    return refined


def test_refine_splits_files_by_their_unique_values(monkeypatch):
    skew, sym = files_for(13, (6, 4), ("skew", "symmetric"))
    empty = sym.select(np.zeros(len(sym), dtype=bool))
    for files in ((skew, skew, sym, sym), (empty, skew, sym, sym),
                  (skew, skew, sym, empty)):
        whole, first = whole_case(monkeypatch, files, 7)
        cases = assert_splits_are_the_unique_values(whole)
        assert list(map(layout, cases)) == list(map(layout, first))
        assert bool(cases) == all(map(len, files))
        for case in cases[:5]:
            for child in assert_splits_are_the_unique_values(case)[:3]:
                assert_splits_are_the_unique_values(child)


def test_ranges_of_a_side_are_disjoint_at_every_depth():
    """On each side of every group, at every depth, the x ranges are
    pairwise disjoint and so are the y ranges (so `sizes` counts each row
    once), none is empty, and the rows of each agree on every column
    before the group's depth."""
    rng = np.random.default_rng(20261020)
    instances = [(files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric")), 7),
                 (files_for(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric")), 3)]
    instances += [random_instance(rng, int(rng.choice([9, 11, 13]))) for _ in range(10)]
    depths = set()
    for files, lam in instances:
        for case in every_group(match_cases(files, lam)):
            depths.add(case.depth)
            rows = [set() for _ in range(4)]
            for s in case.sides:
                (sx, sy), ranges = s.slots, s.ranges
                for f, slot, spans in ((s.fx, sx, [r[:2] for r in ranges]),
                                       (s.fy, sy, [r[2:] for r in ranges])):
                    spans = sorted(spans)
                    assert all(lo < hi for lo, hi in spans)
                    assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
                    for lo, hi in spans:
                        assert (f.rows[lo:hi, :case.depth] == f.rows[lo, :case.depth]).all()
                        rows[slot].update(f.masks[lo:hi].tolist())
            assert case.sizes == tuple(map(len, rows))
    assert depths == set(range(1, 7))


def held(case):
    """The sorted files and key arrays a group's sides hold, (a, d) then (b, c)."""
    return [x for s in case.sides for x in (s.fx, s.kx, s.fy, s.ky)]


def test_groups_hold_the_sorted_files_of_their_match(monkeypatch):
    """A match sorts each distinct file once, by its rows, and hashes it;
    every group at every depth holds those very files and key arrays, so
    no piece of a file is copied, and the caller's files are left as they
    were, with no keys set on them."""
    skew, sym = files_for(13, (6, 4), ("skew", "symmetric"))
    for files in ((skew, skew, sym, sym), (sym, skew, sym, skew),
                  files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))):
        before = [(f.masks.copy(), f.rows.copy()) for f in files]
        whole, cases = whole_case(monkeypatch, files, 7)
        (a, d), (b, c) = slots(whole)
        fa, ka, fd, kd, fb, kb, fc, kc = held(whole)
        ready = {a: (fa, ka), d: (fd, kd), b: (fb, kb), c: (fc, kc)}
        distinct = len({id(f) for f in files})
        assert len({id(f) for f, _ in ready.values()}) == distinct
        assert len({id(k) for _, k in ready.values()}) == distinct
        for slot, (f, k) in ready.items():
            given = files[slot]
            assert f is not given and not hasattr(given, "keys")
            order = np.lexsort(given.rows.T[::-1])
            assert np.array_equal(f.rows, given.rows[order])
            assert np.array_equal(f.masks, given.masks[order])
            assert k.dtype == np.uint64 and np.array_equal(k, gsdf.matcher._hash(f.rows))
        for f, (masks, rows) in zip(files, before):
            assert np.array_equal(f.masks, masks) and np.array_equal(f.rows, rows)
        assert cases
        for case in every_group(cases):
            assert all(x is y for x, y in zip(held(case), held(whole), strict=True))


def test_a_match_with_an_empty_file_finds_nothing(monkeypatch):
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    for i in range(4):
        files = fs[:i] + [fs[i].select([])] + fs[i + 1:]
        assert match_cases(files, 7) == []
        for limit in SPLIT_LIMITS:
            monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
            for jobs in (1, 2):
                assert bins_match(files, 7, jobs=jobs) == []


def test_no_solution_paths():
    fs = files_for(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric"))
    assert bins_match(fs, 0) == []
    assert bins_match(fs, 50) == []
    assert match_cases(fs, 50) == []


def test_jobs_and_split_limit_do_not_change_results(monkeypatch):
    # the split limit is a module constant; patching it covers every path
    # from an immediate join (10**7) to binning every column (1)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    base = bins_match(fs, 7)
    assert len(base) == 480
    text = lambda sol: format_families(
        family_from_blocks(13, [CyclicSubset(13, m) for m in q]) for q in sol)
    for limit in SPLIT_LIMITS:
        monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
        for jobs in (1, 2, 4):
            assert text(bins_match(fs, 7, jobs=jobs)) == text(base)


def test_split_limit_1_bins_every_column(monkeypatch):
    """At limit 1 no group is small enough to join early: every group is
    refined on every column and then joined, in the parent and in forked
    workers."""
    join = gsdf.matcher._join

    def join_at_the_last_column(case, ws):
        assert case.depth == (case.v - 1) // 2, f"joined at depth {case.depth}"
        return join(case, ws)

    monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", 1)
    monkeypatch.setattr(gsdf.matcher, "_join", join_at_the_last_column)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    expected = brute_force_match(fs, 7)
    assert len(expected) == 480
    for jobs in (1, 2):
        assert bins_match(fs, 7, jobs=jobs) == expected


def test_each_first_column_group_is_refined_and_joined_where_it_runs(
        monkeypatch, tmp_path):
    """At limit 1, serially, a group is joined before the last refinement:
    the walk is depth first.  With a pool, only workers refine below the
    first column; the calls are logged to a file with their pid, as the
    forked workers' own lists never reach the parent."""
    refine, join = gsdf.matcher._refine, gsdf.matcher._join
    log = tmp_path / "calls"

    def record(name, case):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {name} {case.depth}\n")

    def logged_refine(case):
        record("refine", case)
        return refine(case)

    def logged_join(case, ws):
        record("join", case)
        return join(case, ws)

    monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", 1)
    monkeypatch.setattr(gsdf.matcher, "_refine", logged_refine)
    monkeypatch.setattr(gsdf.matcher, "_join", logged_join)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    expected = brute_force_match(fs, 7)
    for jobs in (1, 2):
        log.write_text("")
        assert bins_match(fs, 7, jobs=jobs) == expected
        calls = [ln.split() for ln in log.read_text().splitlines()]
        names = [name for _, name, _ in calls]
        last_refine = len(names) - 1 - names[::-1].index("refine")
        parent = str(os.getpid())
        if jobs == 1:
            assert {pid for pid, _, _ in calls} == {parent}
            assert "join" in names[:last_refine]
        else:
            assert [(name, depth) for pid, name, depth in calls if pid == parent] == [
                ("refine", "0")]
            assert {pid for pid, name, depth in calls
                    if name == "refine" and depth != "0"} - {parent}


def test_the_pool_has_no_idle_workers(monkeypatch):
    """A pool gets one worker per first-column group at most, and none
    when there is only one worker to start."""
    get_context, sizes = multiprocessing.get_context, []

    class Recording:
        def __init__(self, ctx):
            self.ctx = ctx

        def Pool(self, processes, *args):
            sizes.append(processes)
            return self.ctx.Pool(processes, *args)

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: Recording(get_context(method)))
    fs = files_for(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric"))
    groups = len(match_cases(fs, 3))
    assert 1 < groups < 8
    expected = brute_force_match(fs, 3)
    for jobs, pool in ((8, groups), (2, 2), (1, None)):
        sizes.clear()
        assert bins_match(fs, 3, jobs=jobs) == expected
        assert sizes == ([] if pool is None else [pool])


def test_join_builds_each_pair_once(monkeypatch):
    """Every pair key the join builds, over one match: none twice, and no
    more than |A||D| + |B||C| in all."""
    join = gsdf.matcher._join
    built = []

    def recording_join(case, ws):
        for side in case.sides:
            (mx, my), (sx, sy) = (side.fx.masks, side.fy.masks), side.slots
            for offset, keys in side.blocks(ws):
                x, y = side.locate(offset + np.arange(len(keys)))
                built.extend(zip([sx] * len(x), mx[x].tolist(), [sy] * len(y), my[y].tolist()))
        return join(case, ws)

    monkeypatch.setattr(gsdf.matcher, "_join", recording_join)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    a, b, c, d = sorted(len(f) for f in fs)
    expected = brute_force_match(fs, 7)
    for limit in SPLIT_LIMITS:
        monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
        built.clear()
        assert bins_match(fs, 7) == expected
        assert len(built) == len(set(built))
        assert 0 < len(built) <= a * d + b * c


def test_a_match_sizes_one_workspace_once(monkeypatch):
    """A serial match builds one workspace, sized from its first-column
    groups; no join grows it unless the join's piece was refined on every
    column, as split limits 10 and 1 may force."""
    sized = []
    reserve = gsdf.matcher._Workspace.reserve

    def recording_reserve(ws, stored):
        if stored > len(ws.keys):
            sized.append(id(ws))
        reserve(ws, stored)

    monkeypatch.setattr(gsdf.matcher._Workspace, "reserve", recording_reserve)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    expected = brute_force_match(fs, 7)
    for limit in SPLIT_LIMITS:
        monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
        sized.clear()
        assert bins_match(fs, 7) == expected
        assert len(set(sized)) == 1
        assert len(sized) == 1 or limit < 10 ** 6
    # no first-column group at all: the workspace is sized from none
    assert bins_match(fs[:2] + [fs[2].select([])] + fs[3:], 7) == []


def test_brute_force_guard():
    fs = files_for(25, (12, 12, 12, 12), ("skew",) * 4, filtered=False)
    with pytest.raises(ValueError):
        brute_force_match(fs, 23, guard=10 ** 6)


def test_bad_inputs():
    fs = files_for(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric"))
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs must be positive"):
            bins_match(fs, 3, jobs=jobs)
    mixed = fs[:3] + [collect_rows(9, 2, "symmetric")]
    with pytest.raises(ValueError, match="^row files disagree on v$"):
        match_cases(mixed, 3)
    with pytest.raises(ValueError, match="^matching needs at least one difference column$"):
        match_cases([collect_rows(1, 0, "symmetric")] * 4, 0)


def test_join_refuses_a_stored_side_of_2_31_pairs():
    """Positions of the stored side must fit the low 31 bits of a key; a
    side of 2**31 pairs is refused before anything is built, so neither
    files, keys nor workspace are read."""
    big = gsdf.matcher._Side(None, None, None, None, (0, 1), [(0, 1 << 16, 0, 1 << 15)])
    assert big.pairs == 1 << 31
    case = MatchCase(13, 7, 1, (big, big))
    with pytest.raises(ValueError, match=r"^a stored side of 2147483648 pairs exceeds 2\*\*31 - 1$"):
        gsdf.matcher._join(case, None)


def random_instance(rng, v):
    """Random sub-files of genuine candidate sets, all four tag patterns."""
    half = (v - 1) // 2
    pattern = rng.choice(["ksss", "kkss", "kkks", "kkkk"])
    files = []
    for i, tag in enumerate(pattern):
        if tag == "k":
            rf = collect_rows(v, half, "skew", filtered=False)
        else:
            k = int(rng.integers(0, half + 1))
            rf = collect_rows(v, k, "symmetric", filtered=False)
        n = len(rf)
        take = min(n, int(rng.integers(1, 25)))
        files.append(subfile(rf, rng.choice(n, size=take, replace=False)))
    lam = int(rng.integers(0, 2 * half))
    return files, lam


def agree_on_random_instances(monkeypatch, limits) -> int:
    """Compare bins_match with brute force on 25 random instances at each
    split limit; count the solvable ones."""
    rng = np.random.default_rng(20260823)
    hits = 0
    for trial in range(25):
        v = int(rng.choice([5, 7, 9, 11, 13]))
        files, lam = random_instance(rng, v)
        expected = brute_force_match(files, lam)
        for limit in limits:
            monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
            assert bins_match(files, lam) == expected
        hits += bool(expected)
    return hits


def test_randomized_agreement_with_brute_force(monkeypatch):
    """Also at _CHUNK 1 and 7, where the pair blocks, the table fill and
    the confirmation steps all cross block boundaries."""
    for chunk in (gsdf.matcher._CHUNK, 1, 7):
        monkeypatch.setattr(gsdf.matcher, "_CHUNK", chunk)
        # the sample should contain some solvable instances
        assert agree_on_random_instances(monkeypatch, (1, 10 ** 7))


def test_exact_confirmation_under_hash_collisions(monkeypatch):
    """With every multiplier 1 a key is the row sum, which is constant over
    each file's candidates, so nearly every pair meets every pair on its key
    and only the exact row check separates families from collisions."""
    monkeypatch.setattr(gsdf.matcher, "_HASH_MULT", np.ones(64, dtype=np.uint64))
    assert agree_on_random_instances(monkeypatch, SPLIT_LIMITS)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    expected = brute_force_match(fs, 7)
    assert len(expected) == 480
    for limit in SPLIT_LIMITS:
        monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
        for jobs in (1, 2):
            assert bins_match(fs, 7, jobs=jobs) == expected


U64 = 2 ** 64 - 1
TOP = 2 ** 44  # at most 80 keys make top cells of at most 2**10 bits; 2**44 values share one


def key_lists():
    """Sorted key arrays: anywhere, all in the first top cell, all in the
    last, all sharing their top bits, and with the extremes 0 and 2**64 - 1."""
    anywhere = st.integers(0, U64)
    extremes = st.sampled_from([0, 1, U64 - 1, U64])
    values = st.one_of(
        st.lists(st.one_of(anywhere, extremes), min_size=1, max_size=64),
        st.lists(st.integers(0, TOP - 1), min_size=1, max_size=64),
        st.lists(st.integers(U64 - TOP + 1, U64), min_size=1, max_size=64),
        st.integers(0, U64 // TOP).flatmap(lambda top: st.lists(
            st.integers(top * TOP, top * TOP + TOP - 1), min_size=1, max_size=64)),
    )
    # duplicates: each key may repeat
    return values.flatmap(lambda ks: st.lists(st.sampled_from(ks), max_size=16).map(
        lambda extra: np.sort(np.array(ks + extra, dtype=np.uint64))))


def probe_agrees(table, keys, values, low):
    """The table finds exactly the values np.isin finds when low is 0, and
    otherwise exactly the values v with a key in [c, c | low], c = v with
    the bits of low clear, and returns those c; in either order."""
    clear = values & np.uint64(U64 ^ low)
    if low:
        hi = np.searchsorted(keys, clear | np.uint64(low), side="right")
        expected = np.flatnonzero(hi > np.searchsorted(keys, clear))
    else:
        expected = np.flatnonzero(np.isin(values, keys))
    for order in (np.arange(len(values)), np.arange(len(values))[::-1]):
        i, found = table.probe(values[order])
        assert (np.diff(i) > 0).all()
        assert np.array_equal(np.sort(order[i]), expected)
        assert np.array_equal(found, clear[order[i]])


@settings(max_examples=300, deadline=None)
@given(key_lists(), st.lists(st.integers(0, U64), max_size=16),
       st.sampled_from([0, 1, 2, 5, 31, 58, 61, 63]))
def test_table_lookup_agrees_with_isin(keys, extra, w):
    """`probe_agrees` for the keys, their neighbours, and the edges of
    their cells in both filters' fields and of the cells beside them,
    empty or not, with and without low bits set.  The cells of `by_above`
    are 2**w values wide and repeat every 2**(w + cells) values.  A
    stored side of the join has fewer than 2**31 pairs, so its w is at
    most 31; larger w are where the fields must narrow to read only
    bits above the low w."""
    low = 2 ** w - 1
    ws = gsdf.matcher._Workspace(len(keys), gsdf.matcher._CHUNK)
    table = gsdf.matcher._Table(keys, np.uint64(low), ws)
    cells = int(table.field).bit_length()
    assert int(table.top) >= w and int(table.w) == w and w + cells <= 64
    near = set(extra)
    for width in (1 << int(table.top), 1 << w, 1 << (w + cells)):
        for k in map(int, keys):
            b = k // width * width
            near.update((k - 1, k, k + 1, b - 1, b, b + width - 1, b + width,
                         k - width, k + width, b - width, b + 2 * width,
                         k - low, k - low - 1, k | low, (k | low) + 1))
    values = np.array(sorted(x for x in near if 0 <= x <= U64), dtype=np.uint64)
    probe_agrees(table, keys, values, low)


def test_table_both_cells_occupied_by_other_keys():
    """A value whose `by_top` cell holds one key and whose `by_above` cell
    holds another passes both filters and is still not found: no key is
    in its range, and the binary search says so."""
    w = 2
    low = 2 ** w - 1
    keys = np.array([0, 3 << 61 | 7 << w], dtype=np.uint64)
    ws = gsdf.matcher._Workspace(len(keys), gsdf.matcher._CHUNK)
    table = gsdf.matcher._Table(keys, np.uint64(low), ws)
    assert int(table.top) == 59 and int(table.field) == 31
    values = np.array([7 << w, 7 << w | 1, 7 << w | low], dtype=np.uint64)
    assert table.by_top[table._top(values)].all()
    assert table.by_above[table._above(values)].all()
    i, found = table.probe(values)
    assert len(i) == len(found) == 0
    probe_agrees(table, keys, np.concatenate([values, keys]), low)


def test_blocks_and_locate_cover_each_pair_once(monkeypatch):
    """With _CHUNK = 8: two 2 x 2 products share a block, a 5 x 3 product
    spans blocks, a 1 x 11 product is one block longer than _CHUNK, a 2 x 4
    product of exactly _CHUNK pairs is one block of one part, and three
    1 x 1 products share the last block; the products are disjoint ranges
    of one sorted file, as a match lays them out.  The blocks give every
    position once, in order, and locate takes each position to the rows
    whose keys sum to its key.  `_join` turns the streamed blocks into
    needles in place, so each block is writable and not a view of the
    keys; the needles it probes, with the 1-pair side stored, are the
    all-lam row's key less the keys of the located rows."""
    monkeypatch.setattr(gsdf.matcher, "_CHUNK", 8)
    skew = collect_rows(13, 6, "skew", filtered=False)
    first = match_cases([skew] * 4, 10)[0].sides[0]
    f, k = first.fx, first.kx
    shape = ((2, 2), (2, 2), (5, 3), (1, 11), (2, 4), (1, 1), (1, 1), (1, 1))
    x0, y0 = np.cumsum([0] + [nx for nx, _ in shape]), np.cumsum([0] + [ny for _, ny in shape])
    ranges = list(zip(x0.tolist(), x0[1:].tolist(), y0.tolist(), y0[1:].tolist()))
    pairs = sum(nx * ny for nx, ny in shape)
    side = gsdf.matcher._Side(f, k, f, k, (0, 2), ranges)
    assert side.pairs == pairs
    ws = gsdf.matcher._Workspace(1, 11)
    sizes, end = [], 0
    for offset, keys in side.blocks(ws):
        assert offset == end
        assert keys.flags.writeable and not np.shares_memory(keys, k)
        x, y = side.locate(offset + np.arange(len(keys)))
        assert (keys == k[x] + k[y]).all()
        sizes.append(len(keys))
        end += len(keys)
    assert end == pairs
    assert sizes == [8, 6, 6, 3, 11, 8, 3]
    x, y = side.locate(np.arange(pairs))
    assert len(set(zip(x.tolist(), y.tolist()))) == pairs

    probed = []
    probe = gsdf.matcher._Table.probe
    monkeypatch.setattr(gsdf.matcher._Table, "probe",
                        lambda table, values: probed.append(values.copy()) or probe(table, values))
    stored = gsdf.matcher._Side(f, k, f, k, (1, 3), [(40, 41, 50, 51)])
    assert stored.pairs == 1
    gsdf.matcher._join(MatchCase(13, 10, 1, (side, stored)), ws)
    assert [len(needles) for needles in probed] == sizes
    key_t = gsdf.matcher._hash(np.full((1, 6), 10, dtype=np.int16))[0]
    assert (np.concatenate(probed) == key_t - k[x] - k[y]).all()


def test_default_jobs_from_environment(monkeypatch):
    monkeypatch.delenv("GSDF_JOBS", raising=False)
    assert default_jobs() == 1
    for value, jobs in (("3", 3), ("1", 1), ("", 1)):
        monkeypatch.setenv("GSDF_JOBS", value)
        assert default_jobs() == jobs
    for value in ("0", "-2", "abc", "1.5"):
        monkeypatch.setenv("GSDF_JOBS", value)
        with pytest.raises(ValueError) as err:
            default_jobs()
        assert str(err.value) == f"GSDF_JOBS must be a positive integer, got {value!r}"
