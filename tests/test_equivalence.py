import random
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

import gsdf.equivalence
from gsdf.blockgen import collect_rows
from gsdf.equivalence import (Dilate, Exchange, Negate, Translate, _block_key_of,
                              _class_keys, _pack_block_key,
                              apply_transform, are_equivalent, canonical_key,
                              classify, equivalent_by_enumeration,
                              orbit_least, small_classes, small_key, units)
from gsdf.family import Family, block_key, family_from_blocks, family_patterns
from gsdf.matcher import bins_match
from gsdf.params import (TYPE_NAMES, enumerate_param_sets,
                         searchable_param_sets, type_applicable)
from gsdf.search import SearchOptions, search_param
from gsdf.zmod import (TAG_NONE, TAG_SKEW, TAGS, CyclicSubset, dilate_mask,
                       negate_mask, rotate_mask, tag_codes)
from gsdf.verify import check_difference_family
from test_zmod import tag_by_sets


def tag(x):
    """A block's tag, by `tag_codes`."""
    return TAGS[tag_codes(x.v, x.mask)]


def is_typed(fam):
    return TAG_NONE not in family_patterns([fam])[0]


def search_families(v, sizes, kinds, lam):
    files = [collect_rows(v, k, kind) for k, kind in zip(sizes, kinds)]
    return [family_from_blocks(v, [CyclicSubset(v, m) for m in quad])
            for quad in bins_match(files, lam)]


FAMS9 = search_families(9, (4, 4, 3, 2), ("skew", "skew", "symmetric", "symmetric"), 4)
FAMS7 = search_families(7, (3, 3, 3, 1), ("skew", "skew", "skew", "symmetric"), 3)


def test_apply_transform_examples():
    fam = FAMS7[0]
    shifted = apply_transform(fam, Translate(3, 1))
    assert shifted.blocks[3] == fam.blocks[3].translate(1)
    negated = apply_transform(fam, Negate(0))
    assert negated.blocks[0] == fam.blocks[0].negate()
    dilated = apply_transform(fam, Dilate(2))
    assert dilated.blocks[1] == fam.blocks[1].dilate(2)
    swapped = apply_transform(fam, Exchange(0, 1))
    assert swapped.blocks[0] == fam.blocks[1]
    with pytest.raises(ValueError):
        apply_transform(fam, Exchange(0, 3))  # sizes 3 and 1
    with pytest.raises(ValueError):
        apply_transform(fam, Dilate(7))


def test_apply_transform_rejects_what_is_no_transformation():
    with pytest.raises(TypeError, match=r"^not a transformation: 'dilate'$"):
        apply_transform(FAMS7[0], "dilate")


def test_translation_can_break_symmetry():
    fam = family_from_blocks(7, [[1, 2, 4], [0, 2, 5], [0, 2, 5], [0]])
    moved = apply_transform(fam, Translate(1, 1))
    assert moved.blocks[1].elements == (1, 3, 6)
    assert tag_by_sets(7, moved.blocks[1].elements) == tag(moved.blocks[1]) == "-"
    assert family_patterns([moved]) == ["k-ss"]


def test_transformations_preserve_the_difference_property():
    fam = FAMS9[0]
    lam = fam.params.lam
    for t in (Translate(0, 5), Translate(2, 1), Negate(1), Dilate(2),
              Exchange(0, 1)):
        fam = apply_transform(fam, t)
        check = check_difference_family(fam.blocks)
        assert check.ok and check.lam == lam


def _typed_random_walk(fam, rng, steps=6):
    for _ in range(steps):
        choice = rng.randrange(4)
        if choice == 0:
            cand = apply_transform(fam, Translate(rng.randrange(4), rng.randrange(fam.v)))
            if is_typed(cand):
                fam = cand
        elif choice == 1:
            fam = apply_transform(fam, Negate(rng.randrange(4)))
        elif choice == 2:
            fam = apply_transform(fam, Dilate(rng.choice(units(fam.v))))
        else:
            i, j = rng.randrange(4), rng.randrange(4)
            if len(fam.blocks[i]) == len(fam.blocks[j]):
                fam = apply_transform(fam, Exchange(i, j))
    return fam


def test_canonical_key_invariant_under_transformations():
    rng = random.Random(7)
    for fam in FAMS9[:12] + FAMS7[:12]:
        key = canonical_key(fam)
        moved = _typed_random_walk(fam, rng)
        assert canonical_key(moved) == key
        assert are_equivalent(fam, moved)


def test_canonical_key_agrees_with_orbit_enumeration_v9():
    fams = FAMS9
    assert len(fams) == 48
    key = keys_by_family(fams)
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            assert (key[fams[i]][0] == key[fams[j]][0]) == \
                equivalent_by_enumeration(fams[i], fams[j])


def test_canonical_key_agrees_with_orbit_enumeration_v13_sampled():
    fams = search_families(13, (6, 6, 4, 4),
                           ("skew", "skew", "symmetric", "symmetric"), 7)
    rng = random.Random(13)
    picks = [(rng.randrange(len(fams)), rng.randrange(len(fams))) for _ in range(25)]
    for i, j in picks:
        assert are_equivalent(fams[i], fams[j]) == \
            equivalent_by_enumeration(fams[i], fams[j])


def _block_key(b):
    """(-size, tag code, elements) of a typed block: skew 0, symmetric 1."""
    return (-len(b), 0 if tag(b) == TAG_SKEW else 1, b.elements)


def _exchanges(fam):
    """The family under every exchange sequence of equal-size blocks."""
    seen, todo = {fam}, [fam]
    while todo:
        f = todo.pop()
        for i in range(4):
            for j in range(i + 1, 4):
                if len(f.blocks[i]) == len(f.blocks[j]):
                    g = apply_transform(f, Exchange(i, j))
                    if g not in seen:
                        seen.add(g)
                        todo.append(g)
    return seen


def _typed_options(fam, i, u):
    """Block keys of every e*u*X_i + g (sign e, translation g) that is typed."""
    dilated = apply_transform(fam, Dilate(u))
    options = set()
    for signed in (dilated, apply_transform(dilated, Negate(i))):
        for g in range(fam.v):
            b = apply_transform(signed, Translate(i, g)).blocks[i]
            if tag(b) != TAG_NONE:
                options.add(_block_key(b))
    return options


def _typed_orbit_keys(fam):
    """Sorted block keys of every typed member e_i*u*X_pi(i) + g_i of the orbit.

    Signs and translations act on each block alone, so a member is typed
    iff each of its blocks is: every combination of typed block options,
    under every unit and exchange, is a typed member.
    """
    options = {}  # (block, u) -> its typed options, whatever its position
    for f in _exchanges(fam):
        for u in units(fam.v):
            for i in range(4):
                if (f.blocks[i], u) not in options:
                    options[f.blocks[i], u] = _typed_options(f, i, u)
            for keys in product(*(options[b, u] for b in f.blocks)):
                yield tuple(sorted(keys))


def test_key_values_are_the_least_over_the_typed_orbit():
    fams13 = search_families(13, (6, 6, 4, 4),
                             ("skew", "skew", "symmetric", "symmetric"), 7)
    sample13 = random.Random(5).sample(fams13, 4)
    for fam in FAMS7 + FAMS9 + sample13:
        v = fam.v
        assert canonical_key(fam) == (v,) + min(_typed_orbit_keys(fam))
        dilates = (apply_transform(fam, Dilate(u)).blocks for u in units(v))
        assert small_key(fam) == (v,) + min(tuple(sorted(map(_block_key, blocks)))
                                            for blocks in dilates)


def test_units():
    assert units(1) == (0,)
    assert units(9) == (1, 2, 4, 5, 7, 8)
    assert units(13) == tuple(range(1, 13))


def test_skew_translates_can_leave_the_negation_pair():
    # at composite v a skew block can have a skew translate besides {X, -X};
    # the canonical search must look past per-block negations
    k = CyclicSubset.from_elements(9, [1, 3, 4, 7])
    t = k.translate(3)
    assert tag_by_sets(9, k.elements) == tag_by_sets(9, t.elements) == "k"
    assert tag(k) == tag(t) == "k"
    assert t.mask not in (k.mask, k.negate().mask)


def test_classify_v3_worked_example():
    fams = search_families(3, (1, 1, 1, 0),
                           ("skew", "skew", "skew", "symmetric"), 0)
    assert len(fams) == 8
    classes = classify(fams)
    smalls = small_classes(fams)
    assert len(classes) == 1 and classes[0].size == 8
    assert sorted(c.size for c in smalls) == [2, 6]


def test_classify_is_input_order_invariant():
    fams = list(FAMS9)
    base = classify(fams)
    shuffled = list(fams)
    random.Random(3).shuffle(shuffled)
    redone = classify(shuffled)
    assert [c.key for c in base] == [c.key for c in redone]
    assert [c.size for c in base] == [c.size for c in redone]
    assert [c.representative for c in base] == [c.representative for c in redone]


def test_small_classes_refine_full_classes():
    for fams in (FAMS7, FAMS9):
        full = {f: c.key for c in classify(fams) for f in c.members}
        for small in small_classes(fams):
            keys = {full[f] for f in small.members}
            assert len(keys) == 1
    # and class sizes sum to the input size
    assert sum(c.size for c in classify(FAMS9)) == len(FAMS9)


def test_class_counts_stable_under_global_relabeling():
    fams = FAMS7
    moved = [apply_transform(f, Dilate(3)) for f in fams]
    assert len(classify(fams)) == len(classify(moved))
    assert sorted(c.size for c in small_classes(fams)) == \
        sorted(c.size for c in small_classes(moved))


def test_untyped_families_are_rejected():
    untyped = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [1]])
    with pytest.raises(ValueError):
        canonical_key(untyped)
    with pytest.raises(ValueError):
        small_key(untyped)


def test_representative_is_sort_key_minimal():
    for c in classify(FAMS9):
        rep_key = c.representative.sort_key
        assert all(rep_key <= m.sort_key for m in c.members)


# --- classes keyed once per dilation orbit -----------------------------------

@lru_cache(maxsize=None)
def found(v):
    """Every family the search finds at v, one list per (set, type)."""
    return tuple(tuple(search_param(p, t, SearchOptions(classified=False)).families)
                 for p in searchable_param_sets(v) for t in TYPE_NAMES
                 if type_applicable(p, t))


def keys_by_family(families):
    """{family: (canonical key, small key)}, one `_class_keys` pass per
    order.  A pass keys each family of its input on its own, as
    `canonical_key` and `small_key` do for one."""
    by_v = {}
    for fam in dict.fromkeys(families):
        by_v.setdefault(fam.v, []).append(fam)
    return {fam: keys for v, fams in by_v.items()
            for fam, keys in zip(fams, zip(*_class_keys(v, fams)))}


def dilate(fam, u):
    return Family(fam.params, tuple(b.dilate(u) for b in fam.blocks))


def quad(fam):
    return tuple(b.mask for b in fam.blocks)


def test_keys_are_invariant_under_dilation():
    # the search's lists are closed under dilation, so u F is found as well
    # and its key is looked up; a dilate not in the list is keyed directly
    checked = 0
    for v in range(3, 22, 2):
        for fams in found(v):
            by_quad = {quad(f): f for f in fams}
            quads = np.array([quad(f) for f in fams], dtype=np.int64).reshape(-1, 4)
            dilates = dilate_mask(v, quads, units(v)).tolist()  # [unit][family]
            images = [[by_quad.get(tuple(q)) or dilate(fam, u)
                       for u, q in zip(units(v), row)]
                      for fam, row in zip(fams, zip(*dilates))]
            keys_of = keys_by_family([*fams, *(g for row in images for g in row)])
            for fam, row in zip(fams, images):
                for image in row:
                    assert keys_of[image] == keys_of[fam]
                    checked += 1
    assert checked > 10000


def grouped(families, keyfunc):
    """Classes from one key per family: (key, size, members, representative)."""
    buckets = {}
    for fam in families:
        buckets.setdefault(keyfunc(fam), []).append(fam)
    return [(key, len(m), tuple(m), min(m, key=lambda fam: fam.sort_key))
            for key, m in sorted(buckets.items())]


def assert_classes_match_per_family_keys(families):
    keys_of = keys_by_family(families)
    for classes, index in ((classify(families), 0), (small_classes(families), 1)):
        got = [(c.key, c.size, c.members, c.representative) for c in classes]
        want = grouped(families, lambda f: keys_of[f][index])
        assert got == want
        # the very objects, in input order: equal copies and repeats are
        # kept apart, and the representative is the first least one
        assert [(list(map(id, c.members)), id(c.representative)) for c in classes] == \
            [(list(map(id, m)), id(rep)) for _, _, m, rep in want]


def swapped(fam):
    """fam with its first two blocks exchanged, which must be of one size:
    a family of the same sort key."""
    a, b, c, d = fam.blocks
    return Family(fam.params, (b, a, c, d))


def test_orbit_keyed_classes_equal_per_family_classes():
    lists = [fams for v in range(3, 26, 2) for fams in found(v) if fams]
    for fams in lists:
        assert_classes_match_per_family_keys(list(fams))
    rng = random.Random(9)
    fams = [f for fams in found(13) for f in fams]
    shuffled = rng.sample(fams, len(fams))
    assert_classes_match_per_family_keys(shuffled)
    # not closed under dilation: some dilates of an orbit present, some not
    assert_classes_match_per_family_keys([f for f in shuffled if rng.random() < 0.4])
    # two orders in one list, as a family file may hold
    mixed = fams + [f for fams in found(15) for f in fams]
    assert_classes_match_per_family_keys(rng.sample(mixed, len(mixed)))
    # repeated families: the same objects again, and equal copies
    part = rng.sample(fams, 40)
    copies = [Family(f.params, f.blocks) for f in part[:10]]
    assert_classes_match_per_family_keys(part + part[::3] + copies + part[:5])
    # representatives that tie on rank: a family and its two equal-size
    # skew blocks exchanged, in either order, with nothing less in its class
    kkss = [f for f, pattern in zip(fams, family_patterns(fams))
            if pattern == "kkss" and f.blocks[0] != f.blocks[1]]
    ties = [g for f in rng.sample(kkss, 30) for g in rng.sample([f, swapped(f)], 2)]
    assert ties[0].sort_key == ties[1].sort_key and ties[0] != ties[1]
    assert_classes_match_per_family_keys(ties)
    assert_classes_match_per_family_keys(ties[::-1] + rng.sample(kkss, 20))
    # v = 65 (object masks): an orbit not closed under dilation, another
    # family, and repeats, between families of two small orders
    params = next(p for p in enumerate_param_sets(65) if p.k[0] == 32)
    wide = [random_typed_family(params, rng) for _ in range(2)]
    wide = [wide[0], dilate(wide[0], 2), wide[1], dilate(wide[0], 64), wide[0]]
    assert max(b.mask for f in wide for b in f.blocks) >= 1 << 63
    small = rng.sample(mixed, 30)
    assert_classes_match_per_family_keys(small[:10] + wide[:3] + small[10:] + wide[3:])


def test_untyped_family_after_typed_ones_is_rejected():
    typed = list(found(7)[0])
    untyped = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [1]])
    for group in (classify, small_classes):
        with pytest.raises(ValueError, match="typed families"):
            group(typed + [untyped])


def test_keys_are_computed_once_per_dilation_orbit(monkeypatch):
    # classify and small_classes key the families in `_class_keys` passes,
    # each pass giving both keys; those passes receive exactly one family
    # of each orbit, for each partition on its own and for both together
    fams = [f for fams in found(13) + found(15) for f in fams]
    orbits = {frozenset(quad(dilate(f, u)) for u in units(f.v)) for f in fams}
    assert len(orbits) < len(fams) // 4
    inner = gsdf.equivalence._class_keys
    received = []

    def counted(v, families):
        families = list(families)
        received.extend(families)
        return inner(v, families)

    def both():
        shared = gsdf.equivalence.dilation_orbits(fams)
        return classify(fams, shared), small_classes(fams, shared)

    monkeypatch.setattr(gsdf.equivalence, "_class_keys", counted)
    for run in (lambda: classify(fams), lambda: small_classes(fams), both):
        received.clear()
        run()
        assert len(received) == len(orbits)
        assert {frozenset(quad(dilate(f, u)) for u in units(f.v))
                for f in received} == orbits


def test_shared_orbits_give_the_same_classes():
    # one dilation_orbits pass serves both partitions, with the classes
    # each gives on its own; it must be of the very list it is given with
    fams = [f for fams in found(13) + found(15) for f in fams]
    orbits = gsdf.equivalence.dilation_orbits(fams)
    for group in (classify, small_classes):
        assert group(fams, orbits) == group(fams)
    for other in (fams[:-1], fams[::-1], list(fams)[:-1] + [fams[0]]):
        for group in (classify, small_classes):
            with pytest.raises(ValueError, match="another family list"):
                group(other, orbits)


def test_a_search_finds_each_orbit_once_for_both_partitions(monkeypatch):
    # the expansion numbers a search's orbits, so family_masks,
    # orbit_least and distinct_masks never run over its whole family
    # list, and _sort_ranks runs over it once for classify and
    # small_classes together
    p, t, families = next((p, t, fams) for fams, (p, t) in zip(found(13), (
        (p, t) for p in searchable_param_sets(13) for t in TYPE_NAMES
        if type_applicable(p, t))) if fams)
    orbits = {frozenset(quad(dilate(f, u)) for u in units(13)) for f in families}
    n = len(families)
    assert 1 < len(orbits) < n
    calls = []
    for name in ("family_masks", "orbit_least", "distinct_masks", "_sort_ranks"):
        inner = getattr(gsdf.equivalence, name)

        def counted(*args, name=name, inner=inner):
            arg = args[-1]
            calls.append((name, len(arg) if isinstance(arg, list) else np.shape(arg)))
            return inner(*args)

        monkeypatch.setattr(gsdf.equivalence, name, counted)
    out = search_param(p, t)
    assert list(out.families) == list(families) and out.classes and out.smalls
    whole = sorted(name for name, rows in calls if rows in (n, (n, 4)))
    assert whole == ["_sort_ranks"]


def test_orbit_labels_beyond_int64_masks():
    # v = 65 masks do not fit int64; labels and keys use Python ints
    v = 65
    params = next(p for p in enumerate_param_sets(v) if p.k[0] == 32)
    rng = random.Random(65)
    skew = CyclicSubset.from_elements(v, [rng.choice((x, v - x)) for x in range(1, 33)])
    symmetric = [CyclicSubset.from_elements(
        v, ([0] if k % 2 else []) + [y for x in rng.sample(range(1, 33), k // 2)
                                     for y in (x, v - x)]) for k in params.k[1:]]
    fam = Family(params, (skew, *symmetric))
    assert family_patterns([fam]) == ["ksss"]
    fams = [fam, dilate(fam, 2), dilate(fam, 64)]
    assert orbit_least(v, [quad(fam)]).tolist() == [list(min(
        quad(dilate(fam, u)) for u in units(v)))]
    classes = classify(fams)
    assert [(c.size, c.members) for c in classes] == [(3, tuple(fams))]
    assert_classes_match_per_family_keys(fams)


# --- array keys against the brute-force orbit at wide masks --------------------

def random_typed_family(params, rng):
    """Random blocks of the sizes of ``params``: the first skew, each other
    block of size (v-1)/2 skew or symmetric at random, the rest symmetric.
    Typed, but not in general a difference family."""
    v = params.v
    half = range(1, (v + 1) // 2)

    def skew():
        return CyclicSubset.from_elements(v, [rng.choice((x, v - x)) for x in half])

    def symmetric(k):
        pairs = rng.sample(half, k // 2)
        elements = [0] * (k % 2) + pairs + [v - x for x in pairs]
        return CyclicSubset.from_elements(v, elements)

    blocks = [skew()] + [skew() if 2 * k + 1 == v and rng.random() < 0.5
                         else symmetric(k) for k in params.k[1:]]
    return Family(params, tuple(blocks))


@pytest.mark.parametrize("v", (61, 63, 65))
def test_array_keys_equal_the_brute_force_keys_at_wide_masks(v):
    # from v = 57 on the packed (size, surrogate) keys outgrow int64, at
    # v = 63 the masks use bit 62, and at v = 65 they outgrow int64 too
    rng = random.Random(v)
    fams = [random_typed_family(p, rng) for p in enumerate_param_sets(v)
            if 2 * p.k[0] + 1 == v]
    fams.append(_typed_random_walk(fams[0], rng))
    canonical = {f: c.key for c in classify(fams) for f in c.members}
    small = {f: c.key for c in small_classes(fams) for f in c.members}
    for fam in fams:
        assert is_typed(fam)
        assert canonical[fam] == canonical_key(fam) == (v,) + min(_typed_orbit_keys(fam))
        dilates = (apply_transform(fam, Dilate(u)).blocks for u in units(v))
        assert small[fam] == small_key(fam) == (v,) + min(
            tuple(sorted(map(_block_key, blocks))) for blocks in dilates)


def block_key_of_one(v, packed):
    """The scalar definition of `_block_key_of`, one packed key at a time."""
    full = (1 << v) - 1
    surrogate = packed & ((full << 1) | 1)
    mask = rotate_mask(v, negate_mask(v, full ^ (surrogate & full)), -1)
    return block_key(mask, surrogate >> v)


@pytest.mark.parametrize("v", (13, 61, 63, 65))
def test_block_keys_decode_in_one_pass(v):
    # packed keys are int64 at v = 13 and objects from v = 57 on; masks
    # use bit 62 at v = 63 and outgrow int64 at v = 65
    rng = random.Random(v)
    blocks = [b for p in enumerate_param_sets(v) if 2 * p.k[0] + 1 == v
              for _ in range(3) for b in random_typed_family(p, rng).blocks]
    masks = [b.mask for b in blocks]
    wide = v + 7 > 63
    x = np.array(masks, dtype=np.int64 if v <= 63 else object)
    negated = negate_mask(v, x)
    packed = _pack_block_key(v, tag_codes(v, x) == 0, negated)
    assert packed.dtype == (object if wide else np.int64)
    decoded = _block_key_of(v, packed)
    assert decoded == [block_key_of_one(v, p) for p in packed.tolist()]
    assert decoded == [block_key(b.mask, TAGS.index(tag_by_sets(v, b.elements))) for b in blocks]
