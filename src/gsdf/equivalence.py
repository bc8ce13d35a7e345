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
the typed translates of uX are u times those of X (usually just X itself:
a skew set is never periodic, and a symmetric aperiodic set admits only
the trivial symmetric translate).

Small classes use only global dilations, acting on the unordered multiset
of tagged blocks; they refine the full classes.

Both keys are invariant under global dilation F -> uF.  Dilation keeps
tags, the typed translates of uX are u times those of X, and as u' runs
over the units so does u'u, so the least over units is the same for F
and uF.  `classify` and `small_classes` therefore work per orbit, not
per family, and share one `Orbits`, which `orbits_of` assembles from
each order's orbit labels.  Each family is labelled by its dilation
orbit, the least mask quadruple over its dilates, and the orbits are
numbered by one lexicographic sort and an adjacent compare of those
quadruples (`distinct_masks`).  A search labels the families as it
builds them (`search.expand_over_units`): each is a unit dilate of a
quadruple the join found, whose dilates the expansion has already
made.  `dilation_orbits` labels any other list, such as a file that
`gsdf classify` reads, which need not be closed under dilation: per
order, the families' masks are gathered once (`family_masks`) and
their least dilates taken (`orbit_least`, vectorised per v, one
dilate at a time).  One family of each orbit is keyed, and each
orbit's key gives its class, so a family's class is one lookup in an
array of orbit classes.  A search's family list is closed under
dilation, so that is one key per family the join found before its
expansion over the units.

The keys of one order are computed together, in one array pass
(`_class_keys`): the translates of every distinct block mask, tagged
by `tag_codes`, the dilates of the typed ones by every unit, and an
integer per option that sorts as its block key.  Only each
family's winning options, the least of its sorted options over the
units, are turned back into block-key tuples.  `_lex_min` is the one
lexicographic minimum, of the dilates in `orbit_least` and in the
search's expansion and of the options in `_class_keys`.
`canonical_key` and `small_key` are that pass on one family.  A class is
represented by its first least member under `Family.sort_key`, in input
order.  The members are ranked by the same integers, for each block
itself (`_sort_ranks`), in the same pass per order; one stable sort of
the families by class and rank gives each class's representative, and
one stable argsort of the class ids gives each class's members, in
input order.

`orbit_representatives` picks the masks least in their orbits, the
search's X_1 blocks, by elimination: the units are tried one at a time,
and each dilates only the masks that every unit before it kept.  It
runs over _CHUNK masks at a time, so its arrays stay small when it
picks from every skew block of an order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from operator import attrgetter, is_
from typing import NamedTuple

import numpy as np

from .family import Family, block_key, family_masks
from .zmod import (dilate_mask, distinct_masks, mask_dtype, mask_elements,
                   negate_mask, rotate_mask, tag_codes)

# masks per pass of `orbit_representatives`: over the 2**20 skew blocks of
# v = 41, passes of 2**16 took 60-68 ms and peaked at 3.2 MiB (tracemalloc)
# against 83-87 ms and 32 MiB for one pass (2-core x86-64)
_CHUNK = 1 << 16


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


def _lex_min(rows) -> np.ndarray:
    """The row-wise lexicographic least of equal-shape (n, k) arrays, taken
    from an iterable or from the leading axis of an (m, n, k) array: row i
    of the result is the least row i of any of them, compared column by
    column.  Int64 and object arrays alike."""
    rows = iter(rows)
    least = next(rows).copy()
    for image in rows:
        # lexicographic image < least, decided from the last column back
        smaller = image[:, -1] < least[:, -1]
        for j in range(least.shape[1] - 2, -1, -1):
            smaller = (image[:, j] < least[:, j]) | (
                (image[:, j] == least[:, j]) & smaller)
        np.copyto(least, image, where=smaller[:, None])
    return least


def orbit_least(v: int, masks) -> np.ndarray:
    """The least dilate of each mask, over dilation by the units of Z_v.

    ``masks`` is an (n,) array of masks or an (n, 4) array of mask
    quadruples; quadruples are compared lexicographically and all four
    masks take the same unit, so a row's result labels its family's
    dilation orbit.
    """
    masks = np.asarray(masks, dtype=mask_dtype(v))
    cols = masks if masks.ndim == 2 else masks[:, None]
    # one dilate at a time, so the memory held stays that of two dilates
    least = _lex_min(dilate_mask(v, cols, u) for u in units(v))
    return least.reshape(masks.shape)


def orbit_representatives(v: int, masks) -> np.ndarray:
    """Whether each of an (n,) array of masks is the least of its orbit
    under the units of Z_v: `orbit_least(v, masks) == masks`, by
    elimination.  The units are tried one at a time, and a mask is kept
    only while no unit's dilate is smaller, so each unit dilates only
    the masks that every unit before it kept; _CHUNK masks at a time."""
    masks = np.asarray(masks, dtype=mask_dtype(v))
    out = np.zeros(len(masks), bool)
    for lo in range(0, len(masks), _CHUNK):
        live = masks[lo:lo + _CHUNK]
        keep = np.arange(lo, lo + len(live))
        for u in units(v)[1:]:
            stays = dilate_mask(v, live, u) >= live
            live, keep = live[stays], keep[stays]
        out[keep] = True
    return out


# --- class keys in one array pass -------------------------------------------

def _pack_block_key(v: int, skew, negated):
    """Integers that sort as the blocks' `block_key`s, from their skewness
    and the masks of their negations: ((v - |X|) << (v + 1)) | (tag << v)
    | (2^v - 1 - rev X), as the element tuples of equal-size blocks ascend
    when their bit-reversed masks rev X (-X rotated by -1) descend.  The
    keys take v + 7 bits, so from v = 57 on they are objects."""
    dtype = object if v + 7 > 63 else np.int64
    sizes = np.bitwise_count(negated).astype(dtype)
    negated = negated.astype(dtype, copy=False)
    full = (1 << v) - 1
    return (((v - sizes) << (v + 1)) | ((~skew).astype(dtype) << v)
            | (full ^ rotate_mask(v, negated, -1)))


def _block_key_of(v: int, packed: np.ndarray) -> list:
    """The `block_key`s that an array of packed keys of `_pack_block_key`
    stands for, decoded in one array pass, each distinct key once."""
    distinct, index = distinct_masks(packed)
    full = (1 << v) - 1
    surrogate = distinct & ((full << 1) | 1)
    reversed_masks = full ^ (surrogate & full)
    masks = rotate_mask(v, negate_mask(v, reversed_masks), -1)
    keys = list(map(block_key, masks.tolist(), (surrogate >> v).tolist()))
    return list(map(keys.__getitem__, index.tolist()))


def _class_keys(v: int, families: list, small: bool) -> list:
    """Canonical keys (or, with ``small``, small keys) of typed families of
    order v, computed together.

    The distinct block masks come from `distinct_masks`.  Each one, X, is
    rotated v ways and each translate T is tagged by `tag_codes`.  The
    typed translates are dilated by every unit and packed by
    `_pack_block_key` (the negation of uT is (-u)T).  A block's least
    option under u is the least over its typed translates and signs +-u
    (for a small key: u X itself); each unit's four options are sorted,
    and their least over the units (`_lex_min`) is turned back into
    `block_key` tuples.
    """
    x, index = distinct_masks(family_masks(v, families).ravel())
    index = index.reshape(-1, 4)
    translates = rotate_mask(v, x[:, None], np.arange(v).astype(x.dtype))
    codes = tag_codes(v, translates)
    skew, typed = codes == 0, codes < 2
    if not typed[:, 0].all():
        raise ValueError("equivalence machinery needs typed families")
    # row-major, so each mask's typed translates are consecutive, itself first
    owner, shift = np.nonzero(typed)
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    options = translates[owner, shift]
    us = units(v)
    # the units ascend, so row len(us) - 1 - i dilates by -us[i]
    images = dilate_mask(v, options, us)
    packed = _pack_block_key(v, skew[owner, shift], images[::-1])
    if small:
        least = packed[:, first]
    else:
        # u and -u offer the same options, so half the units suffice
        least = np.minimum(packed, packed[::-1])[:(len(us) + 1) // 2]
        least = np.minimum.reduceat(least, first, axis=1)
    keys = _block_key_of(v, _lex_min(np.sort(least[:, index], axis=-1)).ravel())
    return [(v,) + tuple(keys[i:i + 4]) for i in range(0, len(keys), 4)]


def canonical_key(fam: Family) -> tuple:
    """Least sorted block-key tuple over the typed members of the orbit."""
    return _class_keys(fam.v, [fam], small=False)[0]


def small_key(fam: Family) -> tuple:
    """Least sorted block-key tuple over global dilations only."""
    return _class_keys(fam.v, [fam], small=True)[0]


def are_equivalent(f1: Family, f2: Family) -> bool:
    if f1.v != f2.v:
        return False
    key1, key2 = _class_keys(f1.v, [f1, f2], small=False)
    return key1 == key2


@dataclass(frozen=True)
class FamilyClass:
    key: tuple
    representative: Family
    size: int
    members: tuple


def _sort_ranks(v: int, quads: np.ndarray) -> np.ndarray:
    """Each typed family's `Family.sort_key` without its v, from its mask
    quadruple: its block keys packed by `_pack_block_key` and sorted, so
    the rows compare lexicographically as the sort keys do."""
    skew = tag_codes(v, quads) == 0
    packed = _pack_block_key(v, skew, negate_mask(v, quads))
    return np.sort(packed, axis=1)


class Orbits(NamedTuple):
    """The dilation orbits of a family list, which `classify` and
    `small_classes` share: `orbit` numbers each family's orbit over all
    orders; per order, `keyed` holds (v, one family of each orbit, in
    orbit order) and `ranked` (the families' positions, their
    `_sort_ranks` rows)."""

    families: list
    orbit: np.ndarray
    keyed: list
    ranked: list


def orbits_of(families, orders) -> Orbits:
    """The `Orbits` of a family list from its orders' orbit labels.

    ``orders`` holds, per order, (v, the positions of its families in
    ``families``, their mask quadruples, each one's orbit label): labels
    numbered from 0 in the order of the orbits' least quadruples, as
    `distinct_masks` of those quadruples numbers them."""
    orbit = np.empty(len(families), np.intp)
    keyed, ranked, count = [], [], 0
    for v, idx, quads, label in orders:
        one = np.empty(label.max() + 1, np.intp)  # one family of each orbit
        one[label] = idx
        orbit[idx] = label + count
        count += len(one)
        keyed.append((v, [families[i] for i in one.tolist()]))
        ranked.append((idx, _sort_ranks(v, quads)))
    return Orbits(families, orbit, keyed, ranked)


def dilation_orbits(families) -> Orbits:
    """The dilation orbits of any family list, one pass per order.

    Per order, the families' masks are gathered once (`family_masks`) and
    each family is labelled by its orbit, the least quadruple over its
    dilates (`orbit_least`), numbered by `distinct_masks`.  A search
    labels the families it builds as it expands them and hands the
    labels to `orbits_of` itself."""
    families = list(families)
    vs = np.fromiter(map(attrgetter("params.v"), families), np.int64, len(families))
    orders = []
    for v in dict.fromkeys(vs.tolist()):
        idx = np.flatnonzero(vs == v)
        quads = family_masks(v, [families[i] for i in idx.tolist()])
        orders.append((v, idx, quads, distinct_masks(orbit_least(v, quads))[1]))
    return orbits_of(families, orders)


def _group_by(families, small: bool, orbits) -> list:
    """Classes of families under the canonical (or small) key.

    One `_class_keys` pass per order keys one family of each orbit, and
    each orbit's key gives its class.  A class is represented by its
    first least member under `Family.sort_key`, in input order: the
    families of an order are sorted stably by class and then by
    `_sort_ranks`, and each class's first is taken.  The members, in
    input order, come from one stable argsort of the class ids."""
    if orbits is None:
        orbits = dilation_orbits(families)
    elif not (len(orbits.families) == len(families)
              and all(map(is_, orbits.families, families))):
        raise ValueError("the orbits were computed for another family list")
    families = orbits.families
    keys = [key for v, fams in orbits.keyed for key in _class_keys(v, fams, small)]
    class_keys = sorted(set(keys))
    class_id = {key: i for i, key in enumerate(class_keys)}
    class_of = np.array([class_id[key] for key in keys], np.intp)[orbits.orbit]
    reps = np.empty(len(class_keys), np.intp)
    for idx, ranks in orbits.ranked:
        order = idx[np.lexsort((*ranks.T[::-1], class_of[idx]))]
        first = np.ones(len(order), dtype=bool)
        first[1:] = class_of[order[1:]] != class_of[order[:-1]]
        reps[class_of[order[first]]] = order[first]
    members = list(map(families.__getitem__,
                       np.argsort(class_of, kind="stable").tolist()))
    ends = np.cumsum(np.bincount(class_of, minlength=len(class_keys))).tolist()
    return [FamilyClass(key, families[rep], end - start, tuple(members[start:end]))
            for key, rep, start, end in zip(class_keys, reps.tolist(), [0] + ends, ends)]


def classify(families, orbits: Orbits = None) -> list:
    """Partition typed families into equivalence classes, sorted by key;
    ``orbits``, the `Orbits` of the same list, saves computing them."""
    return _group_by(families, False, orbits)


def small_classes(families, orbits: Orbits = None) -> list:
    """Partition under global dilation alone (a refinement of classify);
    ``orbits`` as for `classify`."""
    return _group_by(families, True, orbits)


# --- reference oracle --------------------------------------------------------

def _translatable(v, mask_a, mask_b):
    if mask_a.bit_count() != mask_b.bit_count():
        return False
    if mask_b == 0:
        return mask_a == 0
    b0 = (mask_b & -mask_b).bit_length() - 1
    for a in mask_elements(mask_a):
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
                if all(_translatable(v, dilate_mask(v, m1[p[i]], mults[i]), m2[i])
                       for i in range(4)):
                    return True
    return False
