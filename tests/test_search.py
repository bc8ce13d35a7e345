"""The reductions of `search_param` and the facts they rest on.

`search_param` joins only the X_1 blocks that are least in their orbit
under dilation by the units of Z_v, and at every other skew position
only the blocks X < -X, then takes each family found with those blocks
as they are and negated and dilates it by every unit.  That is sound
when every candidate file is mapped onto itself by each dilation and
each negation; the reduced-then-expanded families must then equal the
unreduced join of the full files, family for family and in order.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gsdf.equivalence
import gsdf.family
import gsdf.matcher
import gsdf.search
import gsdf.verify
from gsdf.blockgen import collect_rows, skew_masks
from gsdf.equivalence import orbit_least, orbit_representatives, units
from gsdf.family import format_families
from gsdf.matcher import bins_match
from gsdf.params import (TYPE_NAMES, searchable_param_sets, type_applicable,
                         type_tags)
from gsdf.search import (SearchOptions, expand_over_units, row_files_for,
                         search_order, search_param)
from gsdf.zmod import CyclicSubset, dilate_mask, negate_mask

ODD_TO_31 = range(1, 32, 2)


def kinds_and_sizes(v):
    yield "skew", (v - 1) // 2
    for k in range(v + 1):
        yield "symmetric", k


@pytest.mark.parametrize("filtered", (True, False))
@pytest.mark.parametrize("v", ODD_TO_31)
def test_candidate_files_are_closed_under_dilation(v, filtered):
    # with filtered=True this checks the float PSD filter too: it keeps a
    # block exactly when it keeps every dilate, despite rounding
    for kind, k in kinds_and_sizes(v):
        masks = collect_rows(v, k, kind, filtered=filtered).masks
        for u in units(v):
            image = np.sort(dilate_mask(v, masks, u))
            assert np.array_equal(image, masks), (v, k, kind, u)


def test_orbit_least_is_the_least_dilate():
    v = 15
    masks = collect_rows(v, 7, "skew", filtered=False).masks
    least = orbit_least(v, masks)
    for mask, low in zip(masks.tolist()[::37], least.tolist()[::37]):
        assert low == min(dilate_mask(v, mask, u) for u in units(v))
    # quadruples: the lexicographically least dilate, one unit for all four
    rng = np.random.default_rng(15)
    quads = rng.choice(masks, size=(60, 4))
    quads[:20, 1:] = quads[:20, :1]  # ties in the first column
    quads[20:30, 0] = quads[20:30, 0].min()  # one X_1 for ten rows
    for quad, low in zip(quads.tolist(), orbit_least(v, quads).tolist()):
        assert tuple(low) == min(tuple(dilate_mask(v, m, u) for m in quad)
                                 for u in units(v))
    assert orbit_least(v, masks[:0]).shape == (0,)
    assert orbit_least(v, quads[:0]).shape == (0, 4)
    # masks wider than int64, at v = 65: Python ints in an object array
    v = 65
    wide = [int.from_bytes(rng.bytes(9), "little") % (1 << v) for _ in range(40)]
    wide[:4] = [0, 1, 1 << 64, (1 << v) - 1]
    least = orbit_least(v, wide)
    assert least.dtype == object and least.shape == (40,)
    assert least.tolist() == [min(dilate_mask(v, m, u) for u in units(v))
                              for m in wide]


@pytest.mark.parametrize("v", ODD_TO_31)
def test_orbit_representatives_are_the_orbit_minima(v, monkeypatch):
    # every candidate file, filtered or not, skew and symmetric, in passes
    # of 97 masks, so every file of more masks spans passes
    monkeypatch.setattr(gsdf.equivalence, "_CHUNK", 97)
    for filtered in (True, False):
        for kind, k in kinds_and_sizes(v):
            masks = collect_rows(v, k, kind, filtered=filtered).masks
            keep = orbit_representatives(v, masks)
            assert keep.dtype == bool
            assert np.array_equal(keep, orbit_least(v, masks) == masks), (v, k, kind)


def test_expand_over_units_sorts_and_deduplicates():
    v = 7
    q, n = 0b0010110, 0b1101000  # {1,2,4} and {3,5,6} = -{1,2,4}
    quad = [q, q, q, 1]  # {1,2,4} x3, {0}
    # {1,2,4} is fixed by the squares 1, 2, 4 and sent to {3,5,6} by the rest
    other = [n, n, n, 1]
    families, orbit = expand_over_units(v, [quad])
    assert families.tolist() == [quad, other] and orbit.tolist() == [0, 0]
    # a quadruple given together with one of its dilates: one orbit
    families, orbit = expand_over_units(v, [quad, other])
    assert families.tolist() == [quad, other] and orbit.tolist() == [0, 0]
    # with X_2 negated, a quadruple given together with a dilate of its
    # X_2-negated image (q, n, q, 1): two sources of each orbit, whose
    # least quadruples (q, q, q, 1) < (q, n, q, 1) number them
    families, orbit = expand_over_units(v, [quad, [n, q, n, 1]], (1,))
    assert families.tolist() == [quad, [q, n, q, 1], [n, q, n, 1], other]
    assert orbit.tolist() == [0, 1, 1, 0]
    families, orbit = expand_over_units(v, [])
    assert families.shape == (0, 4) and orbit.shape == (0,)


def test_expand_over_units_equals_np_unique():
    # np.unique(axis=0) is the oracle, and each image's orbit is numbered
    # by np.unique of its least dilate, as dilation_orbits numbers it; v =
    # 63 masks set bit 62, the top bit int64 leaves them
    def check(expanded, oracle):
        families, orbit = expanded
        assert np.array_equal(families, oracle)
        _, label = np.unique(orbit_least(v, oracle), axis=0, return_inverse=True)
        assert np.array_equal(orbit, label.ravel())

    rng = np.random.default_rng(62)
    for v in (7, 13, 63):
        quads = rng.integers(0, (1 << v) - 1, size=(60, 4), dtype=np.int64,
                             endpoint=True)
        quads[10:20] = quads[:10]  # repeated rows
        quads[20:30, :2] = quads[20, :2]  # rows that tie on their first columns
        quads[30:35] = dilate_mask(v, quads[:5], units(v)[-1])  # one orbit twice
        if v == 63:
            assert ((quads[:30] >> 62) & 1).any()
        oracle = np.unique(dilate_mask(v, quads, units(v)).reshape(-1, 4), axis=0)
        check(expand_over_units(v, quads), oracle)
        # with X_2 and X_3 also taken negated, in all four combinations
        images = []
        for flip in ((), (1,), (2,), (1, 2)):
            flipped = quads.copy()
            flipped[:, flip] = negate_mask(v, quads[:, flip])
            images.append(dilate_mask(v, flipped, units(v)).reshape(-1, 4))
        oracle = np.unique(np.concatenate(images), axis=0)
        check(expand_over_units(v, quads, (1, 2)), oracle)


@pytest.mark.parametrize("v", range(3, 30, 2))
def test_a_search_builds_the_orbits_dilation_orbits_finds(v, monkeypatch):
    # the orbits numbered by the expansion are those that orbit_least
    # finds over the families, field for field, and give the same classes
    def keyed_ids(orbits):
        return [(w, list(map(id, fams))) for w, fams in orbits.keyed]

    def kept(*args):
        built.append(inner(*args))
        return built[-1]

    inner, built, searched = gsdf.search.orbits_of, [], 0
    monkeypatch.setattr(gsdf.search, "orbits_of", kept)
    for p in searchable_param_sets(v):
        for t in TYPE_NAMES:
            built.clear()
            out = search_param(p, t)
            if not out.families:
                assert not built
                continue
            searched += 1
            (orbits,) = built
            found = gsdf.equivalence.dilation_orbits(out.families)
            assert orbits.families is out.families
            assert np.array_equal(orbits.orbit, found.orbit)
            assert keyed_ids(orbits) == keyed_ids(found)
            ((idx, ranks),), ((found_idx, found_ranks),) = orbits.ranked, found.ranked
            assert np.array_equal(idx, found_idx) and np.array_equal(ranks, found_ranks)
            for group in (gsdf.equivalence.classify, gsdf.equivalence.small_classes):
                assert group(out.families, orbits) == group(out.families)
            assert out.classes == gsdf.equivalence.classify(out.families)
            assert out.smalls == gsdf.equivalence.small_classes(out.families)
    assert searched


def test_a_search_imports_no_module():
    # on numpy 2.4 the first np.unique of a process imports numpy.ma
    # (14-16 ms on a 2-core x86-64 machine); a fresh interpreter, since
    # other tests import it here
    code = """if True:
        import sys
        from gsdf.params import searchable_param_sets, type_applicable
        from gsdf.search import search_param
        sets = [p for p in searchable_param_sets(13) if type_applicable(p, "ksss")]
        before = set(sys.modules)
        outs = [search_param(p, "ksss") for p in sets]
        assert all(out.families and out.classes and out.smalls for out in outs)
        print(sorted(set(sys.modules) - before))
    """
    assert run_fresh(code) == "[]\n"


def test_importing_gsdf_loads_neither_multiprocessing_nor_numpy_random():
    # a parallel match imports multiprocessing itself, and the matcher's
    # hash multipliers come from a few lines of SplitMix64
    code = """if True:
        import sys
        import gsdf
        print([m for m in ("multiprocessing", "numpy.random") if m in sys.modules])
    """
    assert run_fresh(code) == "[]\n"


def run_fresh(code: str) -> str:
    """The output of code run in a fresh interpreter that imports gsdf
    from this source tree."""
    src = str(Path(gsdf.search.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_matches_in_one_process_equal_fresh_ones():
    """One process joins the join-heavy search's canonical files, then a
    smaller match, then join-heavy again; each result is byte-identical
    to the same match run alone in a fresh interpreter, so no join
    leaves state behind for the next."""
    setup = """if True:
        import hashlib
        from gsdf.matcher import bins_match
        from gsdf.params import searchable_param_sets
        from gsdf.search import row_files_for
        def files(v, k, t):
            p = next(p for p in searchable_param_sets(v) if p.k == k)
            return row_files_for(p, t), p.lam
        heavy = files(29, (14, 13, 12, 10), "ksss")
        small = files(15, (7, 7, 6, 4), "kkss")
        def digest(match):
            quads = bins_match(*match)
            print(len(quads), hashlib.sha256(repr(quads).encode()).hexdigest())
    """
    # setup ends in its closing line's indent, so a statement goes on it
    together = run_fresh(setup + "    digest(heavy); digest(small); digest(heavy)\n")
    alone = [run_fresh(setup + f"    digest({m})\n") for m in ("heavy", "small")]
    assert together == alone[0] + alone[1] + alone[0]
    assert int(alone[0].split()[0]) > 0 and int(alone[1].split()[0]) > 0


def recording(codes, seen):
    """`codes`, recording the masks of each call in `seen`."""
    def counted(v, masks):
        seen.append(masks.tolist())
        return codes(v, masks)
    return counted


@pytest.fixture()
def tag_calls(monkeypatch):
    """The masks of each `tag_codes` call made through `gsdf.verify` and
    through `gsdf.family`, by module name."""
    calls = {"verify": [], "family": []}
    for name, module in (("verify", gsdf.verify), ("family", gsdf.family)):
        monkeypatch.setattr(module, "tag_codes", recording(module.tag_codes, calls[name]))
    return calls


def test_a_search_tags_and_unpacks_each_distinct_block_once(tag_calls, monkeypatch):
    """The expanded families share one CyclicSubset per distinct mask.
    Certification tags exactly those masks in one `tag_codes` call, and
    unpacks their +-1 rows in one `_pm_rows` call; the search makes no
    `tag_codes` call through `gsdf.family`."""
    unpacked = []
    pm_rows = gsdf.verify._pm_rows

    def counted_pm_rows(v, masks, *args):
        unpacked.append(len(masks))
        return pm_rows(v, masks, *args)

    monkeypatch.setattr(gsdf.verify, "_pm_rows", counted_pm_rows)
    params = next(p for p in searchable_param_sets(13) if p.k == (6, 6, 6, 3))
    families = search_param(params, "kkks").families
    distinct = {b.mask for fam in families for b in fam.blocks}
    blocks = {id(b) for fam in families for b in fam.blocks}
    assert len(distinct) < 4 * len(families)
    assert len(blocks) == len(distinct)
    assert tag_calls == {"verify": [sorted(distinct)], "family": []}
    assert unpacked == [len(distinct)]


def test_a_search_reads_no_family_tags_and_shares_passing_checks(tag_calls, monkeypatch):
    """Certification reads each distinct block's tag code from one
    `tag_codes` call, and no family pattern (`family_patterns`) is read,
    and the families of a search, which share one index, share one
    passing `DiffFamilyCheck`."""
    built = []
    check = gsdf.verify.DiffFamilyCheck

    def counted_check(ok, lam, sums):
        built.append((ok, lam))
        return check(ok, lam, sums)

    monkeypatch.setattr(gsdf.verify, "DiffFamilyCheck", counted_check)
    lams = set()
    for p in searchable_param_sets(15):
        for t in TYPE_NAMES:
            if type_applicable(p, t):
                built.clear()
                tag_calls["verify"].clear()
                out = search_param(p, t)
                assert len(out.families) > 50
                assert len(tag_calls["verify"]) == 1 and tag_calls["family"] == []
                assert built == [(True, p.lam)]
                lams.add(p.lam)
    assert len(lams) == 2


def file_keys(p, type_name):
    """The (v, k, kind) of each of the four positions of a search."""
    return [(p.v, k, "skew" if tag == "k" else "symmetric")
            for tag, k in zip(type_tags(type_name), p.k)]


def candidates(v, kind, masks):
    """Which candidates a `collect_rows` call took: "all" blocks of the
    kind and size, X_1's orbit "representatives", or the "lower half" of
    the skew blocks, X < -X."""
    if masks is None:
        return "all"
    skew = skew_masks(v)
    assert kind == "skew"
    if np.array_equal(masks, skew[orbit_representatives(v, skew)]):
        return "representatives"
    assert np.array_equal(masks, skew[skew < negate_mask(v, skew)])
    return "lower half"


def search_calls(p, type_name):
    """The `collect_rows` calls a search makes: one for X_1's
    representatives, and one for each other distinct (v, k, kind), the
    skew ones over the lower half."""
    first, *rest = file_keys(p, type_name)
    return [first + ("representatives",)] + [
        key + ("lower half" if key[2] == "skew" else "all",)
        for key in dict.fromkeys(rest)]


@pytest.fixture
def generated(monkeypatch):
    """Every `collect_rows` call the search layer makes, as (v, k, kind)
    and `candidates`."""
    calls = []

    def counting(v, k, kind, masks=None):
        calls.append((v, k, kind, candidates(v, kind, masks)))
        return collect_rows(v, k, kind, masks=masks)

    monkeypatch.setattr(gsdf.search, "collect_rows", counting)
    return calls


def test_row_files_share_one_set_per_size_and_kind(generated):
    checked = 0
    for p in searchable_param_sets(13):
        for t in filter(lambda t: type_applicable(p, t), TYPE_NAMES):
            generated.clear()
            files, keys = row_files_for(p, t), file_keys(p, t)
            # ksss at (13;6,6,6,3;8) has a skew and two symmetric blocks of
            # size 6; X_1 has a file of its own
            for i in range(4):
                for j in range(4):
                    shared = i == j or (i and j and keys[i] == keys[j])
                    assert (files[i] is files[j]) == shared, (p, t)
            assert generated == search_calls(p, t)
            checked += len(set(keys[1:])) < 3
    assert checked >= 4


@pytest.mark.parametrize("type_name", TYPE_NAMES)
def test_search_order_generates_afresh_for_each_parameter_set(generated, type_name):
    # kkss at 13 has two applicable sets, each generating its own files
    outcomes = search_order(13, type_name, SearchOptions(classified=False))
    expected = [call for out in outcomes if out.applicable
                for call in search_calls(out.params, type_name)]
    assert sorted(generated) == sorted(expected) and expected


@pytest.mark.parametrize("filtered", (True, False))
@pytest.mark.parametrize("v", range(3, 30, 2))
def test_row_files_restrict_the_candidates_before_their_rows(v, filtered):
    """`collect_rows` over X_1's orbit representatives, or over the lower
    half of the skew blocks, gives the masks and rows that selecting them
    from the full file gives."""
    k = (v - 1) // 2
    full = collect_rows(v, k, "skew", filtered=filtered)
    skew = skew_masks(v)
    picks = ((skew[orbit_representatives(v, skew)],
              orbit_representatives(v, full.masks)),
             (skew[:len(skew) // 2], full.masks < negate_mask(v, full.masks)))
    for masks, keep in picks:
        part = collect_rows(v, k, "skew", filtered=filtered, masks=masks)
        chosen = full.select(keep)
        assert np.array_equal(part.masks, chosen.masks), v
        assert np.array_equal(part.rows, chosen.rows), v
        assert (part.v, part.k, part.kind, part.bound) == (v, k, "skew", full.bound)


def reduced_equals_unreduced(orders):
    """The reduced search's families equal the join of the full candidate
    files, `collect_rows` with no restriction, family for family."""
    checked = 0
    for v in orders:
        for p in searchable_param_sets(v):
            for t in TYPE_NAMES:
                if not type_applicable(p, t):
                    continue
                out = search_param(p, t, SearchOptions(classified=False))
                keys = file_keys(p, t)
                files = {key: collect_rows(*key) for key in dict.fromkeys(keys)}
                full = bins_match([files[key] for key in keys], p.lam)
                masks = [tuple(b.mask for b in f.blocks) for f in out.families]
                assert masks == full, (p, t)
                checked += bool(full)
    return checked


def test_reduced_search_equals_unreduced_join():
    assert reduced_equals_unreduced(range(3, 30, 2)) > 0


@pytest.mark.extended
def test_reduced_search_equals_unreduced_join_at_31():
    assert reduced_equals_unreduced([31]) > 0


def test_jobs_and_split_limit_do_not_change_the_reduced_search(monkeypatch):
    p = next(p for p in searchable_param_sets(15) if type_applicable(p, "kkss"))
    text = lambda jobs: format_families(search_param(
        p, "kkss", SearchOptions(classified=False, jobs=jobs)).families)
    base = text(1)
    assert base
    monkeypatch.setattr(gsdf.matcher, "SPLIT_LIMIT", 1)
    assert text(2) == base


@pytest.mark.parametrize("bad", ({"jobs": 0}, {"jobs": -2}))
def test_search_options_reject_non_positive_limits(bad):
    with pytest.raises(ValueError, match="must be positive"):
        SearchOptions(**bad)


def test_a_match_that_is_no_family_is_an_error(monkeypatch):
    """Blocks of the right sizes whose rows do not sum to lam fail the
    re-verification, which names the family."""
    params = next(p for p in searchable_param_sets(7) if p.k == (3, 3, 3, 1))
    bad = CyclicSubset.from_elements(7, [1, 2, 3]).mask
    zero = CyclicSubset.from_elements(7, [0]).mask
    monkeypatch.setattr(gsdf.search, "bins_match",
                        lambda files, lam, jobs=1: [(bad, bad, bad, zero)])
    with pytest.raises(RuntimeError, match="^matcher emitted an invalid family"):
        search_param(params, "kkks")
