import random
from itertools import product

import pytest

from gsdf.blockgen import collect_rows
from gsdf.equivalence import (Dilate, Exchange, Negate, Translate,
                              apply_transform, are_equivalent, canonical_key,
                              classify, equivalent_by_enumeration,
                              family_sort_key, small_classes, small_key, units)
from gsdf.family import TAG_NONE, TAG_SKEW, block_tag, family_from_blocks
from gsdf.matcher import bins_match
from gsdf.verify import check_difference_family


def search_families(v, sizes, kinds, lam):
    files = [collect_rows(v, k, kind) for k, kind in zip(sizes, kinds)]
    return [family_from_blocks(v, [b.elements for b in quad])
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


def test_translation_can_break_symmetry():
    fam = family_from_blocks(7, [[1, 2, 4], [0, 2, 5], [0, 2, 5], [0]])
    moved = apply_transform(fam, Translate(1, 1))
    assert moved.blocks[1].elements == (1, 3, 6)
    assert not moved.blocks[1].is_symmetric()
    assert not moved.is_typed


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
            if cand.is_typed:
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
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            assert are_equivalent(fams[i], fams[j]) == \
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
    return (-len(b), 0 if block_tag(b) == TAG_SKEW else 1, b.elements)


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
            if block_tag(b) != TAG_NONE:
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
    from gsdf.zmod import CyclicSubset
    k = CyclicSubset.from_elements(9, [1, 3, 4, 7])
    t = k.translate(3)
    assert k.is_skew() and t.is_skew()
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
        rep_key = family_sort_key(c.representative)
        assert all(rep_key <= family_sort_key(m) for m in c.members)
