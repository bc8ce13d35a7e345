"""Top-level acceptance checks, one test per delivery criterion.

Each test exercises the public API end to end and asserts both the
mathematical outcome and the runtime budget it is expected to meet.
Criterion 4 repeats a published order-33 classification from scratch and
is tagged ``extended``; run it explicitly with ``pytest -m extended``.
"""
import time

import numpy as np
import pytest

import gsdf.matcher
from gsdf.blockgen import (PSD_REL_EPS, RowFile, _psd_max, collect_rows,
                           difference_counts)
from gsdf.catalog import catalog_entries, catalog_groups
from gsdf.equivalence import (Dilate, apply_transform, are_equivalent,
                              canonical_key, classify,
                              equivalent_by_enumeration, small_classes)
from gsdf.family import family_patterns
from gsdf.matcher import bins_match, brute_force_match, default_jobs
from gsdf.params import (TYPE_NAMES, GsParamSet, searchable_param_sets,
                         type_applicable, type_tags)
from gsdf.search import (SearchOptions, search_order, search_param,
                         table_comparison)
from gsdf.verify import build_gs_array, circulant, verify_family
from gsdf.zmod import CyclicSubset, mask_elements


def _families(v, type_name):
    outs = search_order(v, type_name, SearchOptions(classified=False))
    fams = [f for out in outs for f in out.families]
    return fams


def _random_subset(rng, v, k):
    elems = rng.choice(v, size=k, replace=False)
    return CyclicSubset.from_elements(v, elems.tolist())


# ------------------------------------------------------------------ 1

def test_criterion_1_catalog_certification():
    """All 45 bundled families certify exactly, in under a minute."""
    t0 = time.monotonic()
    entries = catalog_entries()
    assert len(entries) == 45
    patterns = family_patterns(e.family for e in entries)
    for e, pattern in zip(entries, patterns):
        cert = verify_family(e.family)
        assert cert.ok, f"{e.label} failed certification"
        assert cert.special is True  # good/G/best matrices per its type
        assert pattern == e.type_name
    orders = {e.v: build_gs_array(e.family).shape for e in entries}
    assert orders[43] == (172, 172)
    assert orders[45] == (180, 180)
    assert time.monotonic() - t0 < 60


# ------------------------------------------------------------------ 2

def test_criterion_2_existence_table_small_orders():
    """Exhaustive searches reproduce every stored verdict for odd v <= 21."""
    t0 = time.monotonic()
    rows = table_comparison(21, SearchOptions(jobs=1, classified=False))
    got = {(str(p), t): (expected, computed) for p, t, expected, computed in rows}
    assert len(got) == 45
    for key, (expected, computed) in got.items():
        assert expected == computed, f"verdict mismatch at {key}"
    assert got[("(13;6,6,6,3;8)", "kkss")] == ("no", "no")
    assert got[("(13;6,6,6,3;8)", "kkks")] == ("yes", "yes")
    for t in ("ksss", "kkss", "kkks"):
        assert got[("(3;1,1,1,0;0)", t)] == ("yes", "yes")
    assert time.monotonic() - t0 < 15 * 60


# ------------------------------------------------------------------ 3

def test_criterion_3_small_order_class_counts():
    """Order 3 and 7 classifications, stable under input reordering."""
    t0 = time.monotonic()
    fams3 = _families(3, "kkks")
    assert len(fams3) == 8
    assert [c.size for c in classify(fams3)] == [8]
    smalls3 = small_classes(fams3)
    assert sorted(c.size for c in smalls3) == [2, 6]

    fams7 = _families(7, "kkks")
    assert len(fams7) == 56
    full7 = classify(fams7)
    assert sorted(c.size for c in full7) == [8, 48]

    # counts do not depend on input order or on a global relabelling
    rng = np.random.default_rng(7)
    for _ in range(3):
        shuffled = list(fams7)
        rng.shuffle(shuffled)
        again = classify(shuffled)
        assert [c.key for c in again] == [c.key for c in full7]
        assert [c.size for c in again] == [c.size for c in full7]
    dilated = [apply_transform(f, Dilate(3)) for f in fams7]
    assert sorted(c.size for c in classify(dilated)) == [8, 48]
    assert time.monotonic() - t0 < 60


# ------------------------------------------------------------------ 4

@pytest.mark.extended
def test_criterion_4_order_33_full_classification():
    """From-scratch order-33 kkss classification matches the bundled classes."""
    t0 = time.monotonic()
    jobs = default_jobs()
    expected = {
        (16, 16, 15, 11): (480, 6, 12),
        (16, 16, 13, 12): (1120, 14, 28),
    }
    reps = []
    for k, (n_fams, n_classes, n_smalls) in expected.items():
        out = search_param(GsParamSet(33, k, sum(k) - 33), "kkss",
                           SearchOptions(jobs=jobs))
        assert len(out.families) == n_fams
        assert len(out.classes) == n_classes
        assert all(c.size == 80 for c in out.classes)
        assert len(out.smalls) == n_smalls
        reps.extend(c.representative for c in out.classes)

    bundled = catalog_groups()[(33, "kkss")]
    assert len(bundled) == len(reps) == 20
    assert ({canonical_key(f) for f in reps}
            == {canonical_key(e.family) for e in bundled})
    assert time.monotonic() - t0 < 3 * 3600


# ------------------------------------------------------------------ 5

def test_criterion_5_nonexistence_at_order_25():
    """(25;12,12,9,9;17) has no ksss family, while kkss is realisable."""
    t0 = time.monotonic()
    p = GsParamSet(25, (12, 12, 9, 9), 17)
    ksss = search_param(p, "ksss", SearchOptions(classified=False))
    assert ksss.applicable and ksss.families == []
    assert ksss.verdict == "no"
    kkss = search_param(p, "kkss", SearchOptions(classified=False))
    assert kkss.verdict == "yes"  # emptiness above is not vacuous
    assert time.monotonic() - t0 < 5 * 60


# ------------------------------------------------------------------ 6

def _random_instance(rng, v):
    half = (v - 1) // 2
    pattern = rng.choice(["ksss", "kkss", "kkks", "kkkk"])
    files = []
    for tag in pattern:
        if tag == "k":
            rf = collect_rows(v, half, "skew", filtered=False)
        else:
            k = int(rng.integers(0, half + 1))
            rf = collect_rows(v, k, "symmetric", filtered=False)
        take = min(len(rf), int(rng.integers(4, 41)))
        idx = np.sort(rng.choice(len(rf), size=take, replace=False))
        files.append(RowFile(rf.v, rf.k, rf.kind, rf.bound,
                             rf.masks[idx], rf.rows[idx]))
    if rng.random() < 0.5:  # a target that at least one quadruple attains
        lam = sum(int(f.rows[rng.integers(len(f.rows)), 0]) for f in files)
    else:
        lam = int(rng.integers(0, 2 * half))
    return files, lam


def _serialize(quads):
    return "\n".join(" ".join(",".join(map(str, mask_elements(m))) or "-"
                              for m in quad)
                     for quad in quads)


def test_criterion_6_matcher_agrees_with_brute_force(monkeypatch):
    """100 random instances: binned == brute force at every split limit,
    output job-independent."""
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    solvable = 0
    for trial in range(100):
        v = int(rng.choice([5, 7, 9, 11, 13]))
        files, lam = _random_instance(rng, v)
        expected = brute_force_match(files, lam)
        for limit in (1, 10, 10 ** 7):
            monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", limit)
            assert bins_match(files, lam) == expected
        if expected:
            solvable += 1
            base = _serialize(expected)
            assert _serialize(bins_match(files, lam, jobs=4)) == base
    assert solvable >= 10
    assert time.monotonic() - t0 < 5 * 60


# ------------------------------------------------------------------ 7

def test_criterion_7_spectral_filter_soundness():
    """The 4v bound never discards a block that belongs to a family."""
    t0 = time.monotonic()
    for e in catalog_entries():
        for block in e.family.blocks:
            rows = difference_counts(np.array([block.mask]), e.v)
            assert _psd_max(rows, e.v, len(block))[0] <= 4 * e.v * (1 + PSD_REL_EPS)
    # the search (filtered files) finds exactly what the unfiltered join finds
    nonempty = 0
    for v in range(3, 14, 2):
        for p in searchable_param_sets(v):
            for t in TYPE_NAMES:
                if not type_applicable(p, t):
                    continue
                off = [collect_rows(v, k, "skew" if tag == "k" else "symmetric",
                                    filtered=False)
                       for tag, k in zip(type_tags(t), p.k)]
                on = search_param(p, t, SearchOptions(classified=False)).families
                assert [tuple(b.mask for b in f.blocks) for f in on] == \
                    bins_match(off, p.lam), (p, t)
                nonempty += bool(on)
    assert nonempty >= 10
    assert time.monotonic() - t0 < 5 * 60


# ------------------------------------------------------------------ 8

def test_criterion_8_structural_invariants():
    """Spot checks of the identities the individual modules rely on."""
    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    # autocorrelation and spectrum of the +-1 encoding
    for _ in range(25):
        v = int(rng.choice([7, 9, 13, 25]))
        k = int(rng.integers(0, v + 1))
        x = _random_subset(rng, v, k)
        seq = np.where([i in x for i in range(v)], -1, 1)
        paf = x.paf()
        for s in range(v):
            assert paf[s] == int(seq @ np.roll(seq, -s))
        spec = np.abs(np.fft.fft(seq)) ** 2
        peak = _psd_max(difference_counts(np.array([x.mask]), v), v, k)[0]
        assert abs(peak - spec[1:].max()) <= 1e-9 * v * v

    # the three parameter-set identities hold simultaneously
    from gsdf.params import enumerate_param_sets
    for v in range(3, 30, 2):
        for p in enumerate_param_sets(v):
            assert sum(k * (k - 1) for k in p.k) == p.lam * (v - 1)
            assert sum(p.k) == p.lam + v
            assert sum((v - 2 * k) ** 2 for k in p.k) == 4 * v

    # canonical labels: transformation-invariant, and equality agrees with
    # a full orbit enumeration on a composite order
    fams9 = _families(9, "kkss")
    assert len(fams9) == 48
    keys = [canonical_key(f) for f in fams9]
    for f, key in zip(fams9[:12], keys[:12]):
        g = apply_transform(f, Dilate(2))
        assert canonical_key(g) == key
    for i in range(0, 48, 4):
        for j in range(i + 1, 48, 4):
            same = keys[i] == keys[j]
            assert are_equivalent(fams9[i], fams9[j]) == same
            assert equivalent_by_enumeration(fams9[i], fams9[j]) == same

    # circulant algebra used by the array construction
    for v in (4, 7, 10, 13):
        row = rng.integers(-3, 4, size=v)
        a, r = circulant(row), np.eye(v, dtype=np.int64)[::-1]
        ar = a @ r
        assert (ar == ar.T).all()
        rev = row[(-np.arange(v) - 1) % v]
        assert (ar == rev[np.add.outer(np.arange(v), np.arange(v)) % v]).all()
        assert (r @ a.T @ r == a).all()
        assert (r @ r == np.eye(v)).all()
    assert time.monotonic() - t0 < 5 * 60
