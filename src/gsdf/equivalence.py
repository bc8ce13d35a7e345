"""Equivalence of typed families and their classification.

The elementary transformations are per-block translation X_i -> X_i + g,
per-block negation X_i -> -X_i, global dilation X_i -> u X_i by a unit u,
and exchange of two equal-size blocks.  Compositions have the form

    Y_i = e_i * u * X_{pi(i)} + g_i

with a common unit u, signs e_i, translations g_i and a size-preserving
permutation pi (negation is dilation by v-1, so signs fold into per-block
unit multipliers +-u).  All four transformations preserve difference rows,
hence map difference families to difference families with the same
parameters; they do not generally preserve the skew/symmetric block tags.

Two typed families are equivalent iff some composition maps one onto the
other.  The canonical key of a typed family is the least sorted block-key
tuple over the *typed* members of its orbit; since the typed subset of an
orbit is itself an orbit invariant, key equality decides equivalence.

For a fixed unit u each block picks its sign and translate on its own, and
sorting is monotone (x_i <= y_i for every i bounds each order statistic of
x by that of y), so the least sorted tuple for u is the sorted tuple of the
blocks' least options.  Dilation preserves tags and u(X + g) = uX + ug, so
the typed translates of uX are u times those of X, found once per block by
direct scan (usually just g = 0: a skew set is never periodic, and a
symmetric aperiodic set admits only the trivial symmetric translate).

Small classes use only global dilations, acting on the unordered multiset
of tagged blocks; they refine the full classes.

Both keys are invariant under global dilation F -> uF.  Dilation keeps
tags, the typed translates of uX are u times those of X, and as u' runs
over the units so does u'u, so the least over units is the same for F
and uF.  `classify` and `small_classes` therefore label each family by
its dilation orbit, the least mask quadruple over its dilates
(`orbit_least`, vectorised per v), and compute one key per label.  A
search's family list is closed under dilation, so that is one key per
family the join found before its expansion over the units.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import gcd

import numpy as np

from .family import TAG_CODE, TAG_NONE, Family, block_key, block_tag
from .zmod import CyclicSubset, dilate_mask, mask_elements, rotate_mask


# --- elementary transformations ---------------------------------------------

@dataclass(frozen=True)
class Translate:
    index: int
    shift: int


@dataclass(frozen=True)
class Negate:
    index: int


@dataclass(frozen=True)
class Dilate:
    unit: int


@dataclass(frozen=True)
class Exchange:
    i: int
    j: int


def apply_transform(fam: Family, t) -> Family:
    blocks = list(fam.blocks)
    if isinstance(t, Translate):
        blocks[t.index] = blocks[t.index].translate(t.shift)
    elif isinstance(t, Negate):
        blocks[t.index] = blocks[t.index].negate()
    elif isinstance(t, Dilate):
        blocks = [b.dilate(t.unit) for b in blocks]
    elif isinstance(t, Exchange):
        if len(blocks[t.i]) != len(blocks[t.j]):
            raise ValueError("only equal-size blocks may be exchanged")
        blocks[t.i], blocks[t.j] = blocks[t.j], blocks[t.i]
    else:
        raise TypeError(f"not a transformation: {t!r}")
    return Family(fam.params, tuple(blocks))


@lru_cache(maxsize=None)
def units(v: int) -> tuple:
    """The units of Z_v, ascending; Z_1 has the one unit 0 (= 1)."""
    return tuple(u for u in range(v) if gcd(u, v) == 1)


def orbit_least(v: int, masks) -> np.ndarray:
    """The least dilate of each mask, over dilation by the units of Z_v.

    ``masks`` is an (n,) int64 array of masks or an (n, 4) array of mask
    quadruples; quadruples are compared lexicographically and all four
    masks take the same unit, so a row's result labels its family's
    dilation orbit.
    """
    # int64 holds masks of v <= 63 bits; wider ones stay Python ints
    masks = np.asarray(masks, dtype=np.int64 if v <= 63 else object)
    cols = masks if masks.ndim == 2 else masks[:, None]
    least = cols.copy()
    for u in units(v):
        image = dilate_mask(v, cols, u)
        # lexicographic image < least, decided from the last column back
        smaller = image[:, -1] < least[:, -1]
        for j in range(cols.shape[1] - 2, -1, -1):
            smaller = (image[:, j] < least[:, j]) | (
                (image[:, j] == least[:, j]) & smaller)
        np.copyto(least, image, where=smaller[:, None])
    return least.reshape(masks.shape)


# --- cached mask-level helpers ----------------------------------------------

_elements = lru_cache(maxsize=None)(mask_elements)
_dilate = lru_cache(maxsize=None)(dilate_mask)


@lru_cache(maxsize=None)
def _typed_translates(v, mask):
    """Distinct translates of the set that are skew or symmetric, with tags."""
    seen, out = set(), []
    for g in range(v):
        t = rotate_mask(v, mask, g)
        if t in seen:
            continue
        seen.add(t)
        tag = block_tag(CyclicSubset(v, t))
        if tag != TAG_NONE:
            out.append((t, TAG_CODE[tag]))
    return tuple(out)


def _dilated_key(v, mask, tagcode, u):
    """Key of the block's dilate uX: the block key of small classes."""
    return block_key(_dilate(v, mask, u), tagcode)


@lru_cache(maxsize=None)
def _least_option(v, mask, tagcode, u):
    """Least key of e*u*T over signs e and typed translates T (tagcode unused)."""
    return min(_dilated_key(v, t, tc, m)
               for t, tc in _typed_translates(v, mask) for m in (u, v - u))


def _tagged_blocks(fam: Family):
    tags = fam.tags
    if TAG_NONE in tags:
        raise ValueError("equivalence machinery needs typed families")
    return tuple((b.mask, TAG_CODE[t]) for b, t in zip(fam.blocks, tags))


def _least_over_units(fam: Family, unit_key) -> tuple:
    """(v,) + the least over units u of the sorted unit_key(v, X, tag, u)."""
    v = fam.v
    tagged = _tagged_blocks(fam)
    return (v,) + min(tuple(sorted(unit_key(v, m, tc, u) for m, tc in tagged))
                      for u in units(v))


def canonical_key(fam: Family) -> tuple:
    """Least sorted block-key tuple over the typed members of the orbit."""
    return _least_over_units(fam, _least_option)


def small_key(fam: Family) -> tuple:
    """Least sorted block-key tuple over global dilations only."""
    return _least_over_units(fam, _dilated_key)


def are_equivalent(f1: Family, f2: Family) -> bool:
    if f1.v != f2.v:
        return False
    return canonical_key(f1) == canonical_key(f2)


@dataclass(frozen=True)
class FamilyClass:
    key: tuple
    representative: Family
    size: int
    members: tuple


def _orbit_labels(families) -> list:
    """(v,) + the least mask quadruple of each family's dilation orbit."""
    by_v = {}
    for i, fam in enumerate(families):
        by_v.setdefault(fam.v, []).append(i)
    labels = [None] * len(families)
    for v, idx in by_v.items():
        quads = [[b.mask for b in families[i].blocks] for i in idx]
        for i, least in zip(idx, orbit_least(v, quads).tolist()):
            labels[i] = (v, *least)
    return labels


def _group_by(families, keyfunc) -> list:
    """Classes of families under an invariant of dilation, keyfunc called
    once per dilation orbit present."""
    families = list(families)
    keys, buckets = {}, {}
    for fam, label in zip(families, _orbit_labels(families)):
        key = keys.get(label)
        if key is None:
            key = keys[label] = keyfunc(fam)
        buckets.setdefault(key, []).append(fam)
    classes = []
    for key in sorted(buckets):
        members = buckets[key]
        rep = min(members, key=lambda fam: fam.sort_key)
        classes.append(FamilyClass(key, rep, len(members), tuple(members)))
    return classes


def classify(families) -> list:
    """Partition typed families into equivalence classes, sorted by key."""
    return _group_by(families, canonical_key)


def small_classes(families) -> list:
    """Partition under global dilation alone (a refinement of classify)."""
    return _group_by(families, small_key)


# --- reference oracle --------------------------------------------------------

def _translatable(v, mask_a, mask_b):
    if mask_a.bit_count() != mask_b.bit_count():
        return False
    if mask_b == 0:
        return mask_a == 0
    b0 = (mask_b & -mask_b).bit_length() - 1
    for a in _elements(mask_a):
        if rotate_mask(v, mask_a, b0 - a) == mask_b:
            return True
    return False


def equivalent_by_enumeration(f1: Family, f2: Family) -> bool:
    """Decide equivalence by enumerating compositions e*u*X_pi + g directly.

    Exponential in nothing but v and meant for cross-checking at small
    orders; no typing assumptions.
    """
    if f1.v != f2.v:
        return False
    v = f1.v
    m1 = [b.mask for b in f1.blocks]
    m2 = [b.mask for b in f2.blocks]
    sizes1 = [m.bit_count() for m in m1]
    sizes2 = [m.bit_count() for m in m2]
    if sorted(sizes1) != sorted(sizes2):
        return False
    perms = [p for p in permutations(range(4))
             if all(sizes1[p[i]] == sizes2[i] for i in range(4))]
    for u in units(v):
        for signs in product((1, -1), repeat=4):
            mults = [(s * u) % v for s in signs]
            for p in perms:
                if all(_translatable(v, _dilate(v, m1[p[i]], mults[i]), m2[i])
                       for i in range(4)):
                    return True
    return False
