import cmath
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdf.blockgen import _psd_max, difference_counts
from gsdf.zmod import (TAGS, CyclicSubset, _dilation_tables, dilate_mask,
                       distinct_masks, mask_dtype, mask_elements, negate_mask,
                       rotate_mask, tag_codes)

QR7 = CyclicSubset.from_elements(7, [1, 2, 4])


def binary_sequence(x):
    """x_i = -1 if i is in the subset, else +1."""
    return np.array([-1 if i in x else 1 for i in range(x.v)])


def dft_psd(x):
    """Test oracle for `blockgen._psd_max`: |DFT of the +-1 sequence|^2, by FFT.

    It is the third deliberate second implementation in the suite, beside
    `brute_force_match` and `equivalent_by_enumeration`.
    """
    return np.abs(np.fft.fft(binary_sequence(x))) ** 2


def psd_max(x):
    """The pipeline's max_{j>0} PSD(j) of one subset (odd v > 1)."""
    rows = difference_counts(np.array([x.mask], dtype=np.int64), x.v)
    return float(_psd_max(rows, x.v, len(x))[0])


def tag_by_sets(v, elements):
    """Test oracle for `tag_codes`: a subset's tag from the definitions,
    on Python sets.  Skew when |X| = (v-1)/2 and X misses -X = {-x mod v},
    else symmetric when -X = X, else none."""
    x = set(elements)
    negated = {-e % v for e in x}
    if 2 * len(x) + 1 == v and not x & negated:
        return "k"
    return "s" if negated == x else "-"


def difference_row(x):
    """(d_X(1), ..., d_X((v-1)/2)) from the definition."""
    return tuple(x.difference_count(s) for s in range(1, (x.v - 1) // 2 + 1))


@st.composite
def subsets(draw, odd=True, max_v=15):
    v = draw(st.integers(1, max_v))
    if odd and v % 2 == 0:
        v += 1
    mask = draw(st.integers(0, (1 << v) - 1))
    return CyclicSubset(v, mask)


def test_from_elements_and_views():
    x = CyclicSubset.from_elements(7, [4, 1, 2])
    assert x.elements == (1, 2, 4)
    assert len(x) == 3 and 2 in x and 3 not in x
    assert list(x) == [1, 2, 4]
    assert str(x) == "{1,2,4}"
    assert x.mask == 0b10110


def test_from_elements_rejects_bad_input():
    with pytest.raises(ValueError):
        CyclicSubset.from_elements(7, [1, 1])
    with pytest.raises(ValueError):
        CyclicSubset.from_elements(7, [7])
    with pytest.raises(ValueError):
        CyclicSubset(7, 1 << 7)
    with pytest.raises(ValueError):
        CyclicSubset(0, 0)


def test_transformations():
    assert QR7.negate().elements == (3, 5, 6)
    assert QR7.translate(1).elements == (2, 3, 5)
    assert QR7.translate(-1).elements == (0, 1, 3)
    assert QR7.dilate(2).elements == (1, 2, 4)  # quadratic residues are 2-invariant
    assert QR7.complement().elements == (0, 3, 5, 6)
    with pytest.raises(ValueError):
        CyclicSubset.from_elements(9, [1]).dilate(3)


def test_symmetry_predicates():
    cases = [
        (7, [0, 2, 5], "s"),
        (7, [1, 3, 6], "-"),
        (7, [1, 2, 4], "k"),
        (7, [1, 2, 6], "-"),  # meets its negation
        (7, [1, 2], "-"),  # wrong size
        (6, [1, 2], "-"),  # even v never skew
        (6, [1, 5], "s"),
        (7, [], "s"),
        (1, [], "k"),  # skew and symmetric at once: skew wins
    ]
    for v, elements, tag in cases:
        x = CyclicSubset.from_elements(v, elements)
        assert tag_by_sets(v, elements) == TAGS[tag_codes(v, x.mask)] == tag


@pytest.mark.parametrize("v", (1, 2, 6, 7, 13, 63, 64, 65))
def test_tag_codes_on_ints_and_arrays(v):
    # random masks, and skew and symmetric ones, as Python ints and in an
    # array: int64 up to v = 63, and Python ints in an object array above,
    # some of them at or above 2^63
    rng = random.Random(v)
    half = range(1, (v + 1) // 2)
    masks = [rng.getrandbits(v) for _ in range(30)] + [0, (1 << v) - 1]
    for _ in range(10):
        masks.append(sum(1 << rng.choice((x, v - x)) for x in half))
        masks.append(rng.randint(0, 1) + sum(
            (1 << x) | (1 << (v - x)) for x in rng.sample(half, len(half) // 2)))
    want = [TAGS.index(tag_by_sets(v, mask_elements(m))) for m in masks]
    assert v <= 2 or set(want) == ({0, 1, 2} if v % 2 else {1, 2})
    assert [int(tag_codes(v, m)) for m in masks] == want
    array = np.array(masks, dtype=np.int64 if v <= 63 else object)
    assert v < 64 or max(masks) >= 1 << 63
    assert tag_codes(v, array).tolist() == want
    grid = tag_codes(v, array[:30].reshape(6, 5))
    assert grid.tolist() == np.reshape(want[:30], (6, 5)).tolist()
    assert tag_codes(v, array[:0]).shape == (0,)


@pytest.mark.parametrize("masks", (
    np.array([9, 3, 9, 1 << 62, 0, 3, (1 << 62) | 9, 9], dtype=np.int64),
    np.array([1 << 62], dtype=np.int64),
    np.array([], dtype=np.int64),
    # v = 65: Python ints, some of them at or above 2^63
    np.array([1 << 64, 1 << 63, 5, (1 << 65) - 1, 1 << 63, 5, 1 << 64], dtype=object),
), ids=("repeats", "one", "empty", "objects"))
def test_distinct_masks_is_np_unique_with_inverse(masks):
    distinct, inverse = distinct_masks(masks)
    want, want_inverse = np.unique(masks, return_inverse=True)
    assert distinct.dtype == masks.dtype and inverse.shape == masks.shape
    assert distinct.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    assert distinct[inverse].tolist() == masks.tolist()


@pytest.mark.parametrize("dtype", (np.int64, object))
def test_distinct_masks_of_rows_orders_them_lexicographically(dtype):
    # rows that repeat, tie on leading columns, or differ only in the last;
    # as objects, entries at and above 2^63 (v = 65)
    high = 1 << 64 if dtype is object else 1 << 62
    rows = np.array([[3, 1, 2, 0], [3, 1, 2, 0], [3, 1, 0, 9], [high, 0, 0, 0],
                     [0, high, 5, 5], [3, 1, 2, 1], [0, high, 5, 5], [0, 0, 0, 0]],
                    dtype=dtype)
    distinct, inverse = distinct_masks(rows)
    want = sorted(set(map(tuple, rows.tolist())))
    assert distinct.dtype == rows.dtype and inverse.shape == (len(rows),)
    assert list(map(tuple, distinct.tolist())) == want
    assert distinct[inverse].tolist() == rows.tolist()
    distinct, inverse = distinct_masks(rows[:0])
    assert distinct.shape == (0, 4) and inverse.shape == (0,)


def test_difference_row_example():
    row = difference_row(QR7)
    assert row == (1, 1, 1)
    assert difference_counts(np.array([QR7.mask]), 7).tolist() == [list(row)]
    # independent count over ordered pairs
    for d in range(1, 4):
        n = sum(1 for a in QR7 for b in QR7 if (a - b) % 7 == d)
        assert n == row[d - 1]


def test_difference_row_at_even_v():
    # d(1), ..., d(v/2) at even v, from int64 masks and, at v = 64, Python
    # ints in an object array; the generators and row files refuse even v
    for v in (2, 4, 6, 10, 16, 64):
        rng = random.Random(v)
        xs = [CyclicSubset(v, rng.getrandbits(v)) for _ in range(20)]
        xs += [CyclicSubset(v, 0), CyclicSubset(v, (1 << v) - 1)]
        masks = np.array([x.mask for x in xs], dtype=np.int64 if v <= 63 else object)
        rows = difference_counts(masks, v)
        assert rows.shape == (len(xs), v // 2)
        assert rows.tolist() == [[x.difference_count(s) for s in range(1, v // 2 + 1)]
                                 for x in xs]


def test_paf_example():
    assert QR7.paf() == (7, -1, -1, -1, -1, -1, -1)
    empty = CyclicSubset(5, 0)
    assert empty.paf() == (5, 5, 5, 5, 5)


def test_psd_example():
    psd = dft_psd(QR7)
    assert psd[0] == pytest.approx(1.0)
    assert psd[1:] == pytest.approx(np.full(6, 8.0))
    assert psd_max(QR7) == pytest.approx(8.0)


@given(subsets())
def test_paf_matches_direct_autocorrelation(x):
    seq = binary_sequence(x)
    v = x.v
    direct = tuple(sum(seq[i] * seq[(i + s) % v] for i in range(v)) for s in range(v))
    assert x.paf() == direct


@given(subsets(max_v=12))
def test_psd_matches_direct_dft(x):
    v = x.v
    seq = binary_sequence(x)
    direct = [abs(sum(seq[i] * cmath.exp(2j * cmath.pi * i * j / v)
                      for i in range(v))) ** 2 for j in range(v)]
    assert dft_psd(x) == pytest.approx(direct, abs=1e-8)
    if v > 1:
        assert psd_max(x) == pytest.approx(max(direct[1:]), abs=1e-8)


@given(subsets())
def test_psd_parseval(x):
    v, k = x.v, len(x)
    assert dft_psd(x).sum() == pytest.approx(v ** 2)
    if v > 1:
        # sum_{j>0} PSD(j) = v^2 - PSD(0): the max lies between mean and sum
        rest = v ** 2 - (v - 2 * k) ** 2
        assert rest / (v - 1) - 1e-9 <= psd_max(x) <= rest + 1e-9


@settings(max_examples=300)
@given(st.data())
def test_psd_max_matches_the_dft_at_every_width(data):
    """`_psd_max`, the filter's PSD, against the FFT oracle for odd v <= 63."""
    v = data.draw(st.one_of(st.just(63), st.integers(1, 31).map(lambda n: 2 * n + 1)))
    k = data.draw(st.integers(0, v))
    x = CyclicSubset.from_elements(v, data.draw(st.permutations(range(v)))[:k])
    assert abs(psd_max(x) - dft_psd(x)[1:].max()) <= 1e-9 * v * v


@given(subsets(), st.integers(-20, 20))
def test_translation_preserves_difference_row(x, g):
    assert difference_row(x.translate(g)) == difference_row(x)


@given(subsets())
def test_negation_preserves_difference_row_and_is_involutive(x):
    assert difference_row(x.negate()) == difference_row(x)
    assert x.negate().negate() == x


@given(subsets(), st.integers(1, 40))
def test_dilation_preserves_difference_multiset(x, u):
    from math import gcd
    u %= x.v
    if u == 0 or gcd(u, x.v) != 1:
        return
    y = x.dilate(u)
    # row entries permute under dilation; the multiset is invariant
    assert sorted(difference_row(y)) == sorted(difference_row(x))
    inv = pow(u, -1, x.v)
    assert y.dilate(inv) == x


@given(subsets(odd=False))
def test_symmetric_iff_negation_fixes(x):
    tag = TAGS[tag_codes(x.v, x.mask)]
    assert tag == tag_by_sets(x.v, x.elements)
    # -X = X is the symmetric tag, but for the empty subset of Z_1, which is skew
    assert (x.negate() == x) == (tag == "s" or x == CyclicSubset(1, 0))
    assert (x.complement().negate() == x.complement()) == (x.negate() == x)


@settings(max_examples=60)
@given(subsets())
def test_skew_sets_are_never_periodic(x):
    if tag_codes(x.v, x.mask) != 0:
        return
    for g in range(1, x.v):
        assert x.translate(g) != x


@given(subsets(), st.integers(1, 40))
def test_skew_closed_under_dilation(x, u):
    from math import gcd
    u %= x.v
    if u == 0 or gcd(u, x.v) != 1:
        return
    assert tag_codes(x.v, x.dilate(u).mask) == tag_codes(x.v, x.mask)


@st.composite
def wide_masks(draw):
    """(v, mask, unit u) for v in 1..63, with v = 63 drawn often."""
    v = draw(st.one_of(st.just(63), st.integers(1, 63)))
    mask = draw(st.integers(0, (1 << v) - 1))
    u = draw(st.sampled_from([u for u in range(1, v + 1) if gcd(u, v) == 1]))
    return v, mask, u


@given(wide_masks())
def test_mask_transforms_match_elementwise_definitions(case):
    v, mask, u = case
    elements = mask_elements(mask)
    assert elements == tuple(i for i in range(v) if mask >> i & 1)
    assert negate_mask(v, mask) == sum(1 << (-x % v) for x in set(elements))
    assert dilate_mask(v, mask, u) == sum(1 << (u * x % v) for x in set(elements))
    for s in (u, -u):
        assert rotate_mask(v, mask, s) == sum(1 << ((x + s) % v) for x in set(elements))
    assert TAGS[tag_codes(v, mask)] == tag_by_sets(v, elements)


@st.composite
def wide_mask_arrays(draw):
    """(v, masks, unit u) for v in 1..63, with v = 63 drawn often."""
    v = draw(st.one_of(st.just(63), st.integers(1, 63)))
    masks = draw(st.lists(st.integers(0, (1 << v) - 1), min_size=1, max_size=20))
    u = draw(st.sampled_from([u for u in range(1, v + 1) if gcd(u, v) == 1]))
    return v, masks, u


@settings(max_examples=300)
@given(wide_mask_arrays())
def test_dilate_mask_on_arrays_matches_ints(case):
    # at v = 63 bit 62 is the highest, so int64 never reaches its sign bit
    v, masks, u = case
    image = dilate_mask(v, np.array(masks, dtype=np.int64), u)
    assert image.dtype == np.int64
    assert image.tolist() == [dilate_mask(v, m, u) for m in masks]


@pytest.mark.parametrize("v", (3, 31, 61, 63))
def test_rotate_mask_on_arrays_matches_ints(v):
    # the top bit (bit 62 at v = 63) is set in half the masks: cutting the
    # low bits before the shift keeps int64 clear of its sign bit
    rng = np.random.default_rng(v)
    masks = rng.integers(0, (1 << v) - 1, size=64, dtype=np.int64, endpoint=True)
    masks[::2] |= 1 << (v - 1)
    for s in range(-1, v + 1):
        image = rotate_mask(v, masks, s)
        assert image.dtype == np.int64 and image.min() >= 0
        assert image.tolist() == [rotate_mask(v, m, s) for m in masks.tolist()]


@pytest.mark.parametrize("v", (1, 2, 3, 62, 63, 65))
def test_table_dilation_matches_elementwise_definitions(v):
    # every unit, on Python ints, int64 arrays (v <= 63) and object arrays;
    # half the masks have the top bit set, bit 62 at v = 63
    rng = np.random.default_rng(v)
    masks = [0, (1 << v) - 1] + [int(b) for b in rng.integers(0, 2, size=(8, v)) @
                                 [1 << i for i in range(v)]]
    masks[2::2] = [m | 1 << (v - 1) for m in masks[2::2]]
    arrays = [np.array(masks, dtype=object)]
    if v <= 63:
        arrays.append(np.array(masks, dtype=np.int64))
    unit_list = tuple(u for u in range(v) if gcd(u, v) == 1)

    def image(mask, u):
        return sum(1 << (u * x % v) for x in mask_elements(mask))

    for u in unit_list + (-1,):
        expected = [image(m, u) for m in masks]
        got = [negate_mask(v, m) for m in masks] if u == -1 else \
            [dilate_mask(v, m, u) for m in masks]
        assert got == expected
        for arr in arrays:
            out = negate_mask(v, arr) if u == -1 else dilate_mask(v, arr, u)
            assert out.dtype == (np.int64 if v <= 63 else object)
            assert out.tolist() == expected
    # a tuple of units stacks the images, one row per unit
    for arr in arrays:
        stacked = dilate_mask(v, arr, unit_list)
        assert stacked.tolist() == [[image(m, u) for m in masks] for u in unit_list]


def dilation_table_by_unit(v, u):
    """Test oracle for `_dilation_tables`: one unit's ceil(v/8) x 256 rows,
    each entry the OR of the dilated powers of two its byte's bits select,
    as the per-unit tables were built before there was one per order."""
    nbytes = -(-v // 8)
    positions = np.arange(8 * nbytes).reshape(nbytes, 8)
    powers = np.zeros(positions.shape, dtype=mask_dtype(v))
    live = positions < v
    powers[live] = [1 << (u * int(i) % v) for i in positions[live]]
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return np.bitwise_or.reduce(bits * powers[:, None, :], axis=2)


@pytest.mark.parametrize("v", list(range(1, 64, 2)) + [64, 65, 71])
def test_dilation_tables_match_the_per_unit_tables(v):
    # every residue, units or not, at every odd v <= 63 (int64) and at
    # 64, 65 and 71 (Python ints in an object array)
    tables = _dilation_tables(v)
    assert tables.shape == (-(-v // 8), v, 256)
    assert tables.dtype == mask_dtype(v) and not tables.flags.writeable
    for u in range(v):
        assert np.array_equal(tables[:, u], dilation_table_by_unit(v, u)), u
