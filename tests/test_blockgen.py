from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdf.blockgen import (PSD_REL_EPS, RowFile, RowFileFormatError, _psd_max,
                           collect_rows, difference_counts, read_row_file,
                           skew_masks, symmetric_masks, write_row_file)
from gsdf.zmod import CyclicSubset, negate_mask, tag_codes


def subsets(masks, v):
    return [CyclicSubset(v, int(m)) for m in masks]


@pytest.mark.parametrize("v", [3, 5, 7, 9, 11, 13])
def test_skew_generation_is_exhaustive(v):
    got = set(skew_masks(v).tolist())
    assert len(got) == 2 ** ((v - 1) // 2)
    brute = set(np.flatnonzero(tag_codes(v, np.arange(1 << v)) == 0).tolist())
    assert got == brute


def skew_masks_sorted(v):
    """Test oracle for `skew_masks`: bit i - 1 of an index picks i over
    v - i from pair i, and the masks are sorted afterwards."""
    p = (v - 1) // 2
    idx = np.arange(1 << p, dtype=np.int64)
    masks = np.full(1 << p, sum(1 << (v - i) for i in range(1, p + 1)), dtype=np.int64)
    for i in range(1, p + 1):
        masks += ((idx >> (i - 1)) & 1) * ((1 << i) - (1 << (v - i)))
    return np.sort(masks)


@pytest.mark.parametrize("v", range(1, 32, 2))
def test_skew_masks_ascend_without_a_sort(v):
    masks = skew_masks(v)
    assert masks.dtype == np.int64
    assert (np.diff(masks) > 0).all()
    assert np.array_equal(masks, skew_masks_sorted(v))
    # the lower half, which the search takes after X_1, is {X : X < -X}
    assert np.array_equal(masks[:len(masks) // 2], masks[masks < negate_mask(v, masks)])


@pytest.mark.parametrize("v", [3, 5, 7, 9, 11])
def test_symmetric_generation_is_exhaustive(v):
    symmetric = np.flatnonzero(tag_codes(v, np.arange(1 << v)) == 1).tolist()
    for k in range(v + 1):
        got = set(symmetric_masks(v, k).tolist())
        assert len(got) == comb((v - 1) // 2, k // 2)
        brute = {m for m in symmetric if m.bit_count() == k}
        assert got == brute


def symmetric_by_combinations(v, k):
    """The symmetric k-subsets of Z_v by definition: every choice of
    k // 2 pairs {i, v - i}, with 0 when k is odd."""
    pairs = [(1 << i) | (1 << (v - i)) for i in range(1, (v + 1) // 2)]
    return sorted(k % 2 + sum(c) for c in combinations(pairs, k // 2))


@pytest.mark.parametrize("v, ks", [*((v, range(v + 1)) for v in range(1, 32, 2)),
                                   (41, [16]), (43, [19])])
def test_symmetric_masks_are_the_combinations(v, ks):
    for k in ks:
        masks = symmetric_masks(v, k)
        assert masks.dtype == np.int64
        assert masks.tolist() == symmetric_by_combinations(v, k), (v, k)


def test_symmetric_fixed_point_membership():
    for x in subsets(symmetric_masks(9, 3), 9):
        assert 0 in x
    for x in subsets(symmetric_masks(9, 4), 9):
        assert 0 not in x


def test_symmetric_example():
    assert [x.elements for x in subsets(symmetric_masks(7, 3), 7)] == [
        (0, 3, 4), (0, 2, 5), (0, 1, 6)]


def test_skew_stream_closed_under_negation():
    masks = set(skew_masks(11).tolist())
    assert masks == {CyclicSubset(11, m).negate().mask for m in masks}


def test_difference_counts_match_scalar():
    rng = np.random.default_rng(5)
    for v in (7, 13, 21):
        masks = rng.integers(0, 1 << v, size=50).astype(np.int64)
        rows = difference_counts(masks, v)
        for m, row in zip(masks, rows):
            x = CyclicSubset(v, int(m))
            assert row.tolist() == [x.difference_count(s) for s in range(1, (v - 1) // 2 + 1)]


def test_psd_filter_examples():
    qr7 = CyclicSubset.from_elements(7, [1, 2, 4])
    assert _psd_max(difference_counts(np.array([qr7.mask]), 7), 7, 3).tolist() == \
        pytest.approx([8.0])
    # symmetric block at v=25 with spectrum far above the solution bound 4v=100
    hot = CyclicSubset.from_elements(25, range(7, 19))
    assert tag_codes(25, hot.mask) == 1  # symmetric
    rows = difference_counts(np.array([hot.mask]), 25)
    assert float(_psd_max(rows, 25, 12)[0]) == pytest.approx(253.6365557936, abs=1e-6)
    assert hot.mask in symmetric_masks(25, 12)
    assert hot.mask not in collect_rows(25, 12, "symmetric").masks
    assert hot.mask in collect_rows(25, 12, "symmetric", filtered=False).masks


def test_filter_keeps_exactly_the_blocks_within_the_bound():
    v, k = 21, 10
    everything = collect_rows(v, k, "skew", filtered=False)
    peaks = _psd_max(everything.rows, v, k)
    kept = collect_rows(v, k, "skew")
    assert kept.masks.tolist() == \
        everything.masks[peaks <= 4 * v * (1 + PSD_REL_EPS)].tolist()


FILTER_PINS = {
    (13, 6, "skew"): (40, 64),
    (25, 12, "skew"): (1940, 4096),
    (25, 12, "symmetric"): (370, 924),
    (25, 9, "symmetric"): (300, 495),
    (21, 10, "skew"): (576, 1024),
    (21, 6, "symmetric"): (98, 120),
}


@pytest.mark.parametrize("key", sorted(FILTER_PINS))
def test_collect_rows_sizes(key):
    v, k, kind = key
    filtered, unfiltered = FILTER_PINS[key]
    assert len(collect_rows(v, k, kind, filtered=True)) == filtered
    assert len(collect_rows(v, k, kind, filtered=False)) == unfiltered


def test_collect_rows_is_sorted_and_consistent():
    rf = collect_rows(13, 6, "skew")
    assert (np.diff(rf.masks) > 0).all()
    assert np.array_equal(rf.rows, difference_counts(rf.masks, 13))
    assert rf.bound == 4 * 13
    assert collect_rows(13, 6, "skew", filtered=False).bound is None


def test_row_file_coerces_and_selects():
    rf = RowFile(7, 3, "skew", 28, [11, 22], [(1, 1, 1), (2, 1, 0)])
    assert rf.masks.dtype == np.int64 and rf.rows.dtype == np.uint8
    assert rf.rows.shape == (2, 3)
    again = RowFile(7, 3, "skew", 28, rf.masks, rf.rows)
    assert again.masks is rf.masks and again.rows is rf.rows  # no copy
    sub = rf.select(np.array([False, True]))
    assert (sub.v, sub.k, sub.kind, sub.bound) == (7, 3, "skew", 28)
    assert sub.masks.tolist() == [22] and sub.rows.tolist() == [[2, 1, 0]]


def test_collect_rows_argument_errors():
    with pytest.raises(ValueError):
        collect_rows(13, 5, "skew")  # skew size must be (v-1)/2
    with pytest.raises(ValueError):
        collect_rows(13, 5, "banana")
    with pytest.raises(ValueError):
        collect_rows(12, 5, "symmetric")


def test_row_file_round_trip(tmp_path):
    rf = collect_rows(13, 4, "symmetric")
    path = tmp_path / "rows.txt"
    write_row_file(path, rf)
    back = read_row_file(path)
    assert (back.v, back.k, back.kind, back.bound) == (rf.v, rf.k, rf.kind, rf.bound)
    assert np.array_equal(back.masks, rf.masks)
    assert np.array_equal(back.rows, rf.rows)


def test_row_file_round_trip_unfiltered_empty_block(tmp_path):
    rf = collect_rows(3, 0, "symmetric", filtered=False)
    path = tmp_path / "rows.txt"
    write_row_file(path, rf)
    back = read_row_file(path)
    assert len(back) == 1 and back.masks[0] == 0
    assert back.bound is None


@pytest.mark.parametrize("mutate,message", [
    (lambda ls: [ls[0].replace("skew", "weird")] + ls[1:], "kind"),
    (lambda ls: [ls[0]] + [ls[1].replace("|", " ")], "separator"),
    (lambda ls: [ls[0], ls[2], ls[1]] + ls[3:], "sorted"),
    (lambda ls: ls[:2] + [ls[2].split("|")[0] + "|9 9 9 9 9 9"] + ls[3:], "counts"),
    (lambda ls: ["13 6"] + ls[1:], "header"),
    (lambda ls: ["12 6 skew off"], "line 1: .* odd v"),
    (lambda ls: ["12 6 skew 48"] + ls[1:], "line 1: .* odd v"),
    (lambda ls: ["13 6 skew 40"] + ls[1:], "line 1: bound must be 4v"),
])
def test_row_file_rejects_corruption(tmp_path, mutate, message):
    rf = collect_rows(13, 6, "skew")
    path = tmp_path / "rows.txt"
    write_row_file(path, rf)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(RowFileFormatError, match=message) as err:
        read_row_file(path)
    assert str(err.value).startswith("line ")


def test_row_file_errors_name_the_line(tmp_path):
    rf = collect_rows(13, 6, "skew")
    path = tmp_path / "rows.txt"
    write_row_file(path, rf)
    lines = path.read_text().splitlines()
    elements, counts = lines[3].split("|")
    assert counts.split() != counts.split()[::-1]
    bad = lines[:3] + [elements + "|" + " ".join(counts.split()[::-1])] + lines[4:]
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(RowFileFormatError, match="^line 4: counts do not match"):
        read_row_file(path)
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    path.write_text("\n".join(swapped) + "\n")
    with pytest.raises(RowFileFormatError, match="^line 5: blocks are not sorted"):
        read_row_file(path)


@settings(max_examples=30)
@given(st.integers(1, 7).map(lambda n: 2 * n + 1), st.data())
def test_generated_blocks_have_declared_symmetry(v, data):
    k = data.draw(st.integers(0, (v - 1) // 2))
    for x in subsets(symmetric_masks(v, k), v):
        assert tag_codes(v, x.mask) == 1 and len(x) == k  # symmetric
    for x in subsets(skew_masks(v)[:42], v):
        assert tag_codes(v, x.mask) == 0  # skew


def test_generators_and_row_sets_reject_bad_arguments():
    with pytest.raises(ValueError, match="^skew subsets require odd v$"):
        skew_masks(8)
    with pytest.raises(ValueError, match="^only odd v is supported here$"):
        symmetric_masks(8, 2)
    for k in (-1, 8):
        with pytest.raises(ValueError, match=f"^size {k} out of range$"):
            symmetric_masks(7, k)
    rf = collect_rows(7, 3, "skew")
    with pytest.raises(ValueError, match="^kind must be one of"):
        RowFile(7, 3, "weird", rf.bound, rf.masks, rf.rows)
    with pytest.raises(ValueError, match="^masks/rows length mismatch$"):
        RowFile(7, 3, "skew", rf.bound, rf.masks, rf.rows[1:])
