import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gsdf.search
import gsdf.verify
from gsdf.catalog import catalog_entries, catalog_entry
from gsdf.family import Family, family_from_blocks, family_patterns
from gsdf.params import (enumerate_param_sets, searchable_param_sets,
                         type_applicable)
from gsdf.search import search_order, search_param
from gsdf.verify import (DiffFamilyCheck, build_gs_array,
                         check_difference_family, check_good_matrices,
                         check_gs_matrices, circulant, family_circulants,
                         hadamard_text, is_hadamard, is_skew_hadamard,
                         verify_families, verify_family, write_hadamard)
from gsdf.zmod import CyclicSubset, tag_codes


def back_circulant(row):
    """B[i, j] = row[(i + j) mod v]."""
    v = len(row)
    return np.asarray(row)[np.add.outer(np.arange(v), np.arange(v)) % v]


def r_matrix(v):
    """The back-circulant identity R: R[i, j] = 1 iff i + j = v - 1."""
    return np.eye(v, dtype=np.int64)[::-1]


def test_circulant_shapes():
    c = circulant([1, 2, 3])
    assert c.tolist() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]
    b = back_circulant([1, 2, 3])
    assert b.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    assert r_matrix(3).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert np.array_equal(r_matrix(3), back_circulant([0, 0, 1]))


def test_circulant_from_subset():
    c = circulant(CyclicSubset.from_elements(3, [1]))
    assert c.tolist() == [[1, -1, 1], [1, 1, -1], [-1, 1, 1]]


@given(st.integers(2, 12), st.integers(0, 1 << 12))
def test_circulant_r_identities(v, seed):
    row = [1 if seed >> i & 1 else -1 for i in range(v)]
    a, b, r = circulant(row), back_circulant(row), r_matrix(v)
    ar = a @ r
    assert np.array_equal(ar, ar.T)  # A R is symmetric for any circulant A
    assert np.array_equal(ar, a[:, ::-1])  # R reverses columns
    rev = [row[(-m - 1) % v] for m in range(v)]
    assert np.array_equal(ar, back_circulant(rev))
    assert np.array_equal(b, b.T)
    assert np.array_equal(r @ a.T @ r, a)
    assert np.array_equal(r @ r, np.eye(v, dtype=np.int64))


def test_difference_family_check():
    fam = [CyclicSubset.from_elements(3, e) for e in ([1], [1], [1, 2])]
    fam.append(CyclicSubset(3, 0))
    check = check_difference_family(fam)
    assert check.ok and check.lam == 1 and check.sums == (1, 1)
    bad = [CyclicSubset.from_elements(5, [1, 2]), CyclicSubset(5, 0),
           CyclicSubset(5, 0), CyclicSubset(5, 0)]
    check = check_difference_family(bad)
    assert not check.ok and check.lam is None and check.sums == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        check_difference_family([])


def test_difference_family_check_rejects_blocks_of_different_orders():
    blocks = [CyclicSubset(7, 0b10110), CyclicSubset(9, 0b10110)]
    with pytest.raises(ValueError, match=r"^blocks live in different groups$"):
        check_difference_family(blocks)


@pytest.mark.parametrize("row", ([[1, -1], [-1, 1]], 1))
def test_circulant_rejects_a_first_row_that_is_not_1d(row):
    with pytest.raises(ValueError, match=r"^expected a 1-d first row$"):
        circulant(row)


def test_gs_matrices_condition():
    fam = family_from_blocks(7, [[1, 2, 4]] * 3 + [[0]])
    assert check_gs_matrices(fam)
    # translating a block changes nothing
    assert check_gs_matrices(family_from_blocks(7, [[1, 2, 4]] * 3 + [[1]]))
    broken = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 3], [0]])
    assert not check_gs_matrices(broken)


def test_gs_array_hadamard():
    fam = family_from_blocks(7, [[1, 2, 4]] * 3 + [[0]])
    h = build_gs_array(fam)
    assert h.shape == (28, 28)
    assert is_hadamard(h)
    assert is_skew_hadamard(h)  # first block is skew


def test_gs_array_of_four_empty_blocks():
    fam = family_from_blocks(1, [[], [], [], []])
    h = build_gs_array(fam)
    assert h.shape == (4, 4) and is_hadamard(h)


def test_hadamard_negatives():
    assert not is_hadamard(np.ones((4, 4), dtype=np.int64))
    assert not is_hadamard(np.array([[1, 2], [2, 1]]))
    assert not is_hadamard(np.ones((2, 3)))
    h = build_gs_array(family_from_blocks(7, [[1, 2, 4]] * 3 + [[0]]))
    assert not is_skew_hadamard(-h)  # still Hadamard, not of skew type
    assert is_hadamard(-h)


def test_good_matrices():
    fam = family_from_blocks(3, [[1], [0], [0], []])
    assert family_patterns([fam]) == ["ksss"]
    assert check_good_matrices(fam)
    with pytest.raises(ValueError):
        check_good_matrices(family_from_blocks(7, [[1, 2, 4]] * 3 + [[0]]))
    good = catalog_entry("45-ksss-a").family
    assert check_good_matrices(good)
    assert check_good_matrices(family_circulants(good))
    # a translated symmetric block keeps the Gram sum but is no longer symmetric
    blocks = list(good.blocks)
    blocks[1] = blocks[1].translate(1)
    assert not check_good_matrices(family_circulants(Family(good.params, tuple(blocks))))


def test_g_and_best_matrices():
    # good, G- and best matrices are the Gram condition on their pattern
    for label, name in (("33-kkss-a", "g"), ("43-kkks-a", "best"),
                        ("43-ksss-a", "good"), ("45-ksss-a", "good")):
        cert = verify_family(catalog_entry(label).family)
        assert cert.special_name == name
        assert cert.special is True and cert.special == cert.gs


def test_verify_family_certificate():
    cert = verify_family(catalog_entry("43-ksss-a").family)
    assert cert.ok and cert.diff.ok and cert.lam_matches
    assert cert.gs and cert.hadamard and cert.skew_type
    assert cert.special_name == "good" and cert.special
    bad = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 3], [0]])
    cert = verify_family(bad)
    assert not cert.ok and not cert.diff.ok and not cert.lam_matches
    assert not cert.gs and not cert.hadamard
    assert cert.special_name == "best" and cert.special is False


def gs_block_formula(fam):
    """The Goethals-Seidel array from its block formula, with an explicit R."""
    v = fam.v
    z0, z1, z2, z3 = (circulant([-1 if i in b else 1 for i in range(v)])
                      for b in fam.blocks)
    r = np.eye(v, dtype=np.int64)[::-1]
    return np.block([[z0, z1 @ r, z2 @ r, z3 @ r],
                     [-z1 @ r, z0, -z3.T @ r, z2.T @ r],
                     [-z2 @ r, z3.T @ r, z0, -z1.T @ r],
                     [-z3 @ r, -z2.T @ r, z1.T @ r, z0]])


def test_gs_array_is_the_block_formula():
    rng = np.random.default_rng(25)
    fams = [family_from_blocks(1, [[], [], [], []])]
    for v in (*range(3, 26, 2), 65):  # 65: masks wider than int64
        for params in enumerate_param_sets(v)[:3]:
            fams.append(Family(params, tuple(
                CyclicSubset.from_elements(v, rng.choice(v, k, replace=False))
                for k in params.k)))
    # a family of every special pattern: G-, good and best matrices
    fams += [catalog_entry(label).family
             for label in ("33-kkss-a", "43-ksss-a", "43-kkks-a")]
    for fam in fams:
        h = build_gs_array(fam)
        assert h.dtype == np.int64
        assert np.array_equal(h, gs_block_formula(fam)), fam


def move_one_element(fam, rng, keep_tags=False):
    """The family with one element of one block moved to a residue outside it.

    With keep_tags, an x of the skew block X_1 moves to -x, so X_1 stays
    skew.  Moves (block, x, target) are drawn from rng and each is tried
    once: one that keeps the block's difference counts (a translate, say)
    is passed over, and any other breaks their constant sum.  When every
    move keeps them, as at v = 3, it is a ValueError.
    """
    v = fam.v
    movable = [0] if keep_tags else [j for j, b in enumerate(fam.blocks) if 0 < len(b) < v]
    moves = sum(len(fam.blocks[i]) * (1 if keep_tags else v - len(fam.blocks[i]))
                for i in movable)
    tried = set()
    while len(tried) < moves:
        i = movable[0] if keep_tags else rng.choice(movable)
        b = fam.blocks[i]
        x = rng.choice(b.elements)
        out = -x % v if keep_tags else rng.choice([y for y in range(v) if y not in b])
        if (i, x, out) in tried:
            continue
        tried.add((i, x, out))
        moved = CyclicSubset(v, b.mask ^ 1 << x ^ 1 << out)
        if any(moved.difference_count(s) != b.difference_count(s)
               for s in range(1, v)):
            return Family(fam.params, fam.blocks[:i] + (moved,) + fam.blocks[i + 1:])
    raise ValueError(f"no move of one element changes a block of {fam}")


def test_verify_family_uses_the_public_checks():
    rng = random.Random(4)
    real = [e.family for e in catalog_entries()]
    for t in ("kkks", "kkss"):
        found = [f for p in searchable_param_sets(13) if type_applicable(p, t)
                 for f in search_param(p, t).families]
        real += rng.sample(found, 4)
    real += [f for v in range(3, 18, 2) for o in search_order(v, "ksss")
             for f in o.families]
    # at v = 3 every move keeps the (empty) difference counts
    corrupted = [move_one_element(fam, rng, keep) for fam in real if fam.v > 3
                 for keep in (False, True)]
    assert set(family_patterns(real)) == {"kkks", "kkss", "ksss"}
    assert set(family_patterns(corrupted)) >= {"kkks", "kkss", "ksss"}
    for fam in real + corrupted:
        assert certificate_by_public_checks(fam).ok == (fam in real)


def test_move_one_element_refuses_order_3():
    # every block of an order-3 family has at most one element, or two, so
    # each move gives a translate and keeps the difference counts
    fams = [f for o in search_order(3, "ksss") for f in o.families]
    assert fams
    for fam in fams:
        for keep in (False, True):
            with pytest.raises(ValueError, match="no move"):
                move_one_element(fam, random.Random(3), keep)


def certificate_by_public_checks(fam):
    """fam's certificate, by `checked_by_public_checks`."""
    return checked_by_public_checks(verify_family(fam))


def checked_by_public_checks(cert):
    """The certificate, each field asserted equal to the float64 public
    check on the block formula's array and the blocks' circulants."""
    fam = cert.family
    mats = family_circulants(fam)
    h = gs_block_formula(fam)
    assert cert.family == fam
    assert cert.diff == check_difference_family(fam.blocks)
    assert cert.lam_matches == (cert.diff.ok and cert.diff.lam == fam.params.lam)
    assert cert.gs == check_gs_matrices(fam) == check_gs_matrices(mats)
    assert cert.hadamard == is_hadamard(h)
    assert cert.skew_type == (is_skew_hadamard(h) if x1_skew(fam) else None)
    assert cert.special == (cert.gs if cert.special_name else None)
    if family_patterns([fam]) == ["ksss"]:
        assert cert.special_name == "good"
        assert cert.special == check_good_matrices(fam)
    return cert


def x1_skew(fam):
    return tag_codes(fam.v, fam.blocks[0].mask) == 0


def random_tagged_family(params, pattern, rng):
    """Random blocks of params' sizes with the tags of pattern ("-" for
    untagged): a skew block holds one of each pair {x, -x}, a symmetric one
    whole pairs (and 0 when its size is odd)."""
    v = params.v
    halves = range(1, (v + 1) // 2)
    blocks = []
    for k, tag in zip(params.k, pattern):
        if tag == "k":
            elements = [rng.choice((x, v - x)) for x in halves]
        elif tag == "s":
            elements = [0] * (k % 2) + [y for x in rng.sample(halves, k // 2)
                                        for y in (x, v - x)]
        else:
            elements = rng.sample(range(v), k)
        blocks.append(CyclicSubset.from_elements(v, elements))
    return Family(params, tuple(blocks))


def test_certificates_at_the_top_of_the_range():
    # v = 63 is the widest order the search takes, with Gram rows of up
    # to 4v = 252 and public checks on 252 x 252 arrays; orders 43 and 45
    # hold the catalog's good matrices
    rng = random.Random(63)
    fams = []
    for params in enumerate_param_sets(63):
        patterns = [t for t in ("ksss", "kkss") if type_applicable(params, t)]
        for pattern in patterns or ["----"]:
            fams += [random_tagged_family(params, pattern, rng) for _ in range(2)]
    assert set(family_patterns(fams)) == {"ksss", "kkss", "----"}
    top = [e.family for e in catalog_entries() if e.v in (43, 45)]
    assert set(family_patterns(top)) == {"ksss", "kkss", "kkks"}
    moved = [move_one_element(fam, rng, keep) for fam in fams + top
             for keep in (False, True) if not keep or x1_skew(fam)]
    certs = [certificate_by_public_checks(fam) for fam in fams + top + moved]
    assert [c.ok for c in certs] == [False] * len(fams) + [True] * len(top) + \
        [False] * len(moved)
    # tagged random blocks pass the skew and symmetry tests and fail later
    assert any(c.special is False for c, pattern in
               zip(certs, family_patterns(c.family for c in certs)) if pattern == "ksss")


@st.composite
def _four_blocks(draw):
    """Random blocks of a parameter set's sizes at odd v <= 63 (mostly not a
    difference family), or a catalog family with every block translated
    (still one)."""
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.integers(0, 3)) == 0:
        fam = draw(st.sampled_from(catalog_entries())).family
        blocks = tuple(b.translate(rnd.randrange(fam.v)) for b in fam.blocks)
        return Family(fam.params, blocks)
    v = draw(st.one_of(st.just(63), st.sampled_from(range(3, 64, 2))))
    params = draw(st.sampled_from(enumerate_param_sets(v)))
    blocks = tuple(CyclicSubset.from_elements(v, rnd.sample(range(v), k))
                   for k in params.k)
    return Family(params, blocks)


@given(_four_blocks())
def test_certificates_agree_with_bit_level_counts(fam):
    v, blocks = fam.v, fam.blocks
    cert = verify_family(fam)
    assert cert.diff.sums == tuple(sum(b.difference_count(s) for b in blocks)
                                   for s in range(1, v))
    pafs = [b.paf() for b in blocks]
    assert cert.gs == all(sum(p[s] for p in pafs) == 0 for s in range(1, v))
    # the array's off-diagonal blocks cancel for any four circulants
    assert cert.hadamard == cert.gs


def test_search_verifies_each_family_once(monkeypatch):
    # one `verify_families` call with every family, each certificate consumed
    # by one `verify_family` call per family, in order
    calls, yielded, asked = [], [], []

    def counting(fams):
        calls.append(list(fams))
        for cert in verify_families(calls[-1]):
            yielded.append(cert.family)
            yield cert

    def asking(fam, certificates=None):
        asked.append(fam)
        return verify_family(fam, certificates)

    monkeypatch.setattr(gsdf.search, "verify_families", counting)
    monkeypatch.setattr(gsdf.search, "verify_family", asking)
    params = next(p for p in searchable_param_sets(13) if p.k == (6, 6, 6, 3))
    out = search_param(params, "kkks")
    assert out.families and calls == [out.families]
    assert yielded == asked == out.families


def test_verify_family_takes_the_next_certificate_of_its_family(order_7, small_slices):
    fams = order_7[:SLICE + 1]
    certificates = verify_families(fams)
    assert [verify_family(f, certificates) for f in fams] == list(verify_families(fams))
    certificates = verify_families(fams)
    with pytest.raises(ValueError, match="not that of"):
        verify_family(fams[1], certificates)


# the slice length the slot tests run `verify_families` with, so that a
# short list spans several slices; the default is gsdf.verify._SLICE
SLICE = 8


@pytest.fixture
def small_slices(monkeypatch):
    monkeypatch.setattr(gsdf.verify, "_SLICE", SLICE)


@pytest.fixture(scope="module")
def order_7():
    """Every family of order 7, in a fixed random order: two parameter
    sets, and the patterns of all three types."""
    fams = [f for t in ("ksss", "kkss", "kkks") for o in search_order(7, t)
            for f in o.families]
    random.Random(7).shuffle(fams)
    assert len({f.params for f in fams}) == 2 and len(set(family_patterns(fams))) == 3
    return fams


@pytest.mark.parametrize("n", (1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 3))
def test_batched_certificates_are_the_public_checks(order_7, small_slices, n):
    fams = order_7[:n]
    certs = [checked_by_public_checks(c) for c in verify_families(fams)]
    assert [c.family for c in certs] == fams and all(c.ok for c in certs)
    assert list(verify_families([])) == []


# first and last slot of the first slice and of a full slice before the
# short tail, and the first and last slot of the tail
@pytest.mark.parametrize("slot", (0, SLICE - 1, 2 * SLICE - 1, 2 * SLICE, 2 * SLICE + 2))
def test_a_corrupted_family_fails_in_any_slot(order_7, small_slices, slot):
    fams = order_7[:2 * SLICE + 3]
    fams[slot] = move_one_element(fams[slot], random.Random(slot))
    certs = [checked_by_public_checks(c) for c in verify_families(fams)]
    assert [c.family for c in certs] == fams
    assert [c.ok for c in certs] == [i != slot for i in range(len(fams))]
    # the corrupted family's check holds its own sums; the passing ones of
    # one index are one check, equal to the check built on its own
    assert not certs[slot].diff.ok and len(set(certs[slot].diff.sums)) > 1
    shared = {c.diff.lam: c.diff for c in certs if c.diff.ok}
    assert all(c.diff is shared[c.diff.lam] for c in certs if c.diff.ok)
    for lam, check in shared.items():
        assert check == DiffFamilyCheck(True, lam, (lam,) * 6)


def test_one_call_mixes_orders_parameter_sets_and_patterns(order_7, small_slices):
    # as a family file can: runs of one order longer than a slice, single
    # families between them, good and corrupted ones
    rng = random.Random(13)
    order_13 = [f for t in ("ksss", "kkss") for o in search_order(13, t)
                for f in o.families]
    fams = (rng.sample(order_13, SLICE + 2) + [e.family for e in catalog_entries()]
            + [family_from_blocks(1, [[], [], [], []])] + order_7[:3]
            + [random_tagged_family(next(p for p in enumerate_param_sets(63)
                                         if type_applicable(p, "ksss")), "ksss", rng)]
            + order_7[3:SLICE + 5])
    # v = 65: masks wider than int64, sorted as Python ints; a family, the
    # same with an element moved (three blocks shared), and it again
    wide = random_tagged_family(next(p for p in enumerate_param_sets(65)
                                     if type_applicable(p, "ksss")), "ksss", rng)
    assert max(b.mask for b in wide.blocks) >= 1 << 63
    fams[SLICE:SLICE] = [wide, move_one_element(wide, rng), wide]
    for i in range(1, len(fams), 5):
        if fams[i].v > 3:
            fams[i] = move_one_element(fams[i], rng)
    certs = [checked_by_public_checks(c) for c in verify_families(iter(fams))]
    assert [c.family for c in certs] == fams
    assert {True, False} == {c.ok for c in certs}
    assert len(set(zip((f.params for f in fams), family_patterns(fams)))) >= 10


def even_families(params, limit):
    """Up to `limit` families with `params` at an even v, found by FFT.
    The blocks of each size that hold 0 (a translate of every nonempty
    block does) and whose PSD stays within 4v are joined as (X_1, X_4)
    pairs against (X_2, X_3) pairs on their PAF rows, whose sum is zero
    at s = 1..v/2 in a family."""
    v, half = params.v, params.v // 2
    base = (4 * v + 1) ** np.arange(half)  # PAF(s) + v in [0, 2v] per block
    pools, keys = [], []
    for k in params.k:
        subsets = [c for c in combinations(range(v), k) if 0 in c or not k]
        signs = np.array([[-1 if i in c else 1 for i in range(v)] for c in subsets])
        psd = np.abs(np.fft.fft(signs, axis=1)) ** 2
        keep = (psd[:, 1:] <= 4 * v + 1e-6).all(axis=1)
        paf = np.rint(np.fft.ifft(psd[keep], axis=1).real).astype(np.int64)
        pools.append([subsets[i] for i in np.flatnonzero(keep)])
        keys.append((paf[:, 1:half + 1] + v) @ base)
    left = np.add.outer(keys[0], keys[3]).ravel()
    order = np.argsort(left)
    found = []
    for b, key in enumerate(keys[1]):
        need = 4 * v * base.sum() - key - keys[2]
        at = np.searchsorted(left, need, sorter=order).clip(max=len(left) - 1)
        for c in np.flatnonzero(left[order[at]] == need).tolist():
            a, d = divmod(int(order[at[c]]), len(keys[3]))
            quad = (pools[0][a], pools[1][b], pools[2][c], pools[3][d])
            found.append(Family(params, tuple(CyclicSubset.from_elements(v, x)
                                              for x in quad)))
            if len(found) == limit:
                return found
    return found


def test_even_order_certificates_are_the_public_checks(small_slices):
    # no search takes an even v, but a family file can hold one: the
    # certificates mirror d(v - s) = d(s) into their sums, and every field
    # must equal the float64 public checks, for families, random blocks
    # and both with one element moved
    rng = random.Random(16)
    real, fams = [], []
    for v in range(2, 17, 2):
        for params in enumerate_param_sets(v):
            found = even_families(params, 2)
            assert found, params
            real += found
            fams += found + [random_tagged_family(params, "----", rng) for _ in range(2)]
    fams += [move_one_element(f, rng) for f in fams if f.v >= 6]
    certs = [checked_by_public_checks(c) for c in verify_families(fams)]
    assert [c.family for c in certs] == fams
    assert all(c.ok for c in certs if c.family in real)
    # at v = 2 the one shift s = 1 always has a constant sum
    assert {c.family.v for c in certs if not c.diff.ok} == set(range(4, 17, 2))
    assert sum(not c.ok for c in certs) > len(fams) // 3


def test_verify_family_refuses_an_exhausted_certificate_iterator(order_7):
    fams = order_7[:3]
    certificates = verify_families(fams[:2])
    assert [verify_family(f, certificates) for f in fams[:2]] == \
        list(verify_families(fams[:2]))
    with pytest.raises(ValueError, match="not that of"):
        verify_family(fams[2], certificates)
    # a StopIteration would end the map early, silently
    certificates = verify_families(fams[:2])
    with pytest.raises(ValueError, match="not that of"):
        list(map(lambda f: verify_family(f, certificates), fams))


def test_certificates_are_immutable_records(order_7):
    fams = order_7[:3] + [move_one_element(order_7[3], random.Random(3))]
    certs = list(verify_families(fams))
    assert certs == list(verify_families(fams)) == [verify_family(f) for f in fams]
    assert certs[0] != certs[1] and [c.ok for c in certs] == [True] * 3 + [False]
    assert certs[0]._fields == ("family", "diff", "lam_matches", "gs", "hadamard",
                                "skew_type", "special_name", "special")
    with pytest.raises(AttributeError):
        certs[0].gs = False
    assert not certs[0]._replace(hadamard=False).ok


def test_ok_is_every_applicable_check(order_7):
    """`ok` over every combination of outcomes, each field of a passing
    certificate replaced in turn, against its definition: every check
    passes, and the skew-type and special checks where they apply."""
    cert = verify_family(catalog_entry("43-ksss-a").family)
    assert cert.ok and cert.skew_type is True and cert.special is True
    failing = verify_family(move_one_element(order_7[0], random.Random(5))).diff
    assert not failing.ok
    outcomes = {"diff": (cert.diff, failing), "lam_matches": (True, False),
                "gs": (True, False), "hadamard": (True, False),
                "skew_type": (True, False, None), "special": (True, False, None)}
    seen = set()
    for values in product(*outcomes.values()):
        c = cert._replace(**dict(zip(outcomes, values)))
        want = all((c.diff.ok, c.lam_matches, c.gs, c.hadamard,
                    c.skew_type is None or c.skew_type,
                    c.special is None or c.special))
        assert c.ok is want
        seen.add(want)
    assert seen == {True, False}


def test_the_pm1_test_reads_each_familys_own_rows(monkeypatch, small_slices):
    """Two masks at v = 3 unpack to integer rows that are not +-1 but keep
    the Gram sum of a family using them 4vI: (3, 3, 3) + (3, -1, -1) +
    (1, 0, 0) + (5, -2, -2).  Its Gram sum is 4vI and its array is still
    not Hadamard; the typed families of the call, which never use those masks,
    still are."""
    pm_rows = gsdf.verify._pm_rows
    fake = {0b011: (-1, 0, 0), 0b101: (-2, 0, 1)}

    def faked(v, masks, *args):
        rows = pm_rows(v, masks, *args)
        for i, m in enumerate(masks):
            if v == 3 and m in fake:
                rows[i] = fake[m]
        return rows

    monkeypatch.setattr(gsdf.verify, "_pm_rows", faked)
    bad = family_from_blocks(3, [[], [0], [0, 1], [0, 2]])
    good = [f for t in ("ksss", "kkss", "kkks") for o in search_order(3, t)
            for f in o.families]
    # bad's first block is +-1, and bad sits in the second slice
    fams = good[:SLICE + 2] + [bad] + good[SLICE + 2:]
    certs = list(verify_families(fams))
    assert [c.family for c in certs] == fams
    cert = certs[SLICE + 2]
    assert cert.diff.ok and cert.lam_matches and cert.gs
    assert not cert.hadamard and not cert.ok
    assert all(c.ok for c in certs if c is not cert)


def test_certificates_build_no_array(monkeypatch, order_7):
    """With the Goethals-Seidel array out of reach, every certificate
    still equals the public checks: they are read from the blocks'
    difference rows alone."""
    def unreachable(*args):
        raise AssertionError("the array was built")

    monkeypatch.setattr(gsdf.verify, "build_gs_array", unreachable)
    fams = order_7 + [e.family for e in catalog_entries()]
    certs = [checked_by_public_checks(c) for c in verify_families(fams)]
    assert [c.family for c in certs] == fams and all(c.ok for c in certs)


def test_the_hadamard_certificate_is_the_arrays_product():
    # H H^T = I_4 (x) G: the certificate read from G and the +-1 rows is
    # the float64 product of the assembled array, for families that pass
    # and, moved one element, fail
    rng = random.Random(17)
    fams = [f for v in range(3, 18, 2) for t in ("ksss", "kkss", "kkks")
            for o in search_order(v, t) for f in o.families]
    fams += [e.family for e in catalog_entries()]
    assert set(family_patterns(fams)) == {"ksss", "kkss", "kkks"}
    fams += [move_one_element(f, rng) for f in rng.sample(fams, 200) if f.v > 3]
    certs = list(verify_families(fams))
    assert [c.family for c in certs] == fams
    assert [c.hadamard for c in certs] == [is_hadamard(build_gs_array(f)) for f in fams]
    assert {c.hadamard for c in certs} == {True, False}


def test_hadamard_text_output(tmp_path):
    h = build_gs_array(family_from_blocks(3, [[1], [1], [1, 2], []]))
    text = hadamard_text(h)
    lines = text.splitlines()
    assert len(lines) == 12 and all(len(ln) == 12 for ln in lines)
    assert set("".join(lines)) <= {"+", "-"}
    path = tmp_path / "h.txt"
    write_hadamard(path, h)
    assert path.read_text() == text
    assert is_hadamard(h) and is_skew_hadamard(h)
