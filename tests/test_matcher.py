import numpy as np
import pytest

from gsdf.blockgen import RowFile, collect_rows, difference_counts
import gsdf.matcher
from gsdf.family import family_from_blocks, format_family
from gsdf.matcher import (BRUTE_FORCE_GUARD, bins_match, brute_force_match,
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


def test_match_cases_structure():
    fs = files_for(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric"))
    cases = match_cases(fs, 3)
    assert cases
    keys = []
    for case in cases:
        assert all(len(f.masks) > 0 for f in case.files)
        for f, orig in zip(case.files, fs):
            assert set(f.masks.tolist()) <= set(orig.masks.tolist())
            assert len(set(f.rows[:, 0].tolist())) == 1
        keys.append(tuple(int(f.rows[0, 0]) for f in case.files))
        assert sum(keys[-1]) == 3
    # cases partition by value quadruple: no duplicates
    assert len(keys) == len(set(keys))


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
    text = lambda sol: "".join(
        format_family(family_from_blocks(13, [CyclicSubset(13, m) for m in q]))
        for q in sol)
    for limit in SPLIT_LIMITS:
        monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
        for jobs in (1, 2, 4):
            assert text(bins_match(fs, 7, jobs=jobs)) == text(base)


def test_split_limit_1_bins_every_column(monkeypatch):
    """At limit 1 no case is small enough to join early: every case is
    binned on every column and then joined over none, in the parent and in
    forked workers."""
    join = gsdf.matcher._serial_join

    def join_at_full_depth(files, order, lam, depth, ncols):
        assert depth == ncols, f"joined at depth {depth} of {ncols}"
        return join(files, order, lam, depth, ncols)

    monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", 1)
    monkeypatch.setattr(gsdf.matcher, "_serial_join", join_at_full_depth)
    fs = files_for(13, (6, 6, 4, 4), ("skew", "skew", "symmetric", "symmetric"))
    expected = brute_force_match(fs, 7)
    assert len(expected) == 480
    for jobs in (1, 2):
        assert bins_match(fs, 7, jobs=jobs) == expected


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
    with pytest.raises(ValueError):
        match_cases(mixed, 3)


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
