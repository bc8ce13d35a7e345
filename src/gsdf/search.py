"""End-to-end exhaustive search: parameters -> blocks -> matching -> classes.

For a symmetry type and parameter set (k1 = ... = (v-1)/2 on the skew
positions), the canonical PSD-filtered candidate row sets are generated
(`row_files_for`), matched into families, expanded to every family the
full row sets give, re-verified from scratch, and optionally
classified.  No state is kept
between parameter sets: generation takes seconds at most (2.8 s for the
975528 skew blocks at v = 45 on a 2-core x86-64 machine), against joins
of minutes to hours.  The filter is sound (see `blockgen`), so the
search always uses it; an unfiltered cross-check joins
`collect_rows(..., filtered=False)` files with `bins_match`, or runs
`gsdf generate --no-filter` and `gsdf match`.  `SearchOptions` holds the
worker count and whether to classify.  `search_order` is the one loop
over the parameter sets of an order; its verdicts reproduce the
existence table: 'yes' when some parameter set admits a family of the
type, 'no' when the exhaustive runs all come up empty, 'x' when no
parameter set can carry the type.

The match is reduced by two symmetries, chosen before any row or PSD
is computed.  Dilating a block by a unit u of Z_v keeps its tag, size
and PSD values, so it maps every candidate file onto itself and every
family onto a family: each family is u F for a family F whose X_1 is
least in its unit orbit.  Negating one block alone keeps its row and
tag, so the skew blocks after X_1 (X_2 in kkss, X_2 and X_3 in kkks)
may be taken with X < -X.  `row_files_for` builds those canonical
files, `search_param` joins them, and `expand_over_units` takes each
family found with those blocks as they are and negated, dilates each by
every unit, and deduplicates and sorts the result: exactly the list the
unreduced join of the full files gives, every family of it re-verified.
`bins_match` itself is unreduced, as row files given to `gsdf match`
need not be closed under dilation or negation.

The expanded families share their blocks: each distinct mask, found by
`distinct_masks`, becomes one `CyclicSubset`, and the families are built
from them a column of blocks at a time.  After the join, the work is one
array pass per distinct block and per dilation orbit; per family, only
the `Family` object (a slotted frozen dataclass, as are its blocks and
parameters), its certificate and its one `verify_family` call remain.
The families are certified in one `verify_families` pass, which tags
the distinct masks in one `tag_codes` call, so no block's tag is read,
takes each one's difference row once from
`difference_counts`, unpacks them once for the +-1 test, and reads
every certificate from the sum of a family's four difference rows, a
slice of families at a time.  The search asks for each family's
certificate with one `verify_family` call, which takes it from that
pass, so certification stays one call per family at the layer boundary
while its work is batched; the search raises on the first certificate
that fails.  The families' dilation orbits come from the expansion:
each family is a unit dilate of a quadruple the join found (or of its
negated image), so `expand_over_units` labels every image by its
source's least dilate and numbers the orbits as `dilation_orbits`
would, and no orbit minimum is taken over the expanded families.
`orbits_of` assembles those labels and keys one family per orbit,
once for both partitions, and `classify` and `small_classes` share
them (see `equivalence`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockgen import check_width, collect_rows, skew_masks
from .catalog import table_rows_up_to
from .equivalence import (_lex_min, classify, orbit_representatives, orbits_of,
                          small_classes, units)
from .family import Family
from .matcher import bins_match
from .params import (TYPE_NAMES, GsParamSet, searchable_param_sets,
                     type_applicable, type_tags)
from .verify import verify_families, verify_family
from .zmod import CyclicSubset, dilate_mask, distinct_masks, negate_mask


@dataclass
class SearchOptions:
    jobs: int = 1
    classified: bool = True

    def __post_init__(self):
        # checked here as well as in bins_match, so bad input fails before
        # any candidate generation
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass
class ParamOutcome:
    """Search result for one (parameter set, type) pair."""

    params: GsParamSet
    type_name: str
    applicable: bool
    families: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    smalls: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "x"
        return "yes" if self.families else "no"

    @property
    def file_name(self) -> str:
        """Name of the outcome's family file: '{v}-{type}-{k1-k2-k3-k4}.fam'."""
        return f"{self.params.v}-{self.type_name}-{'-'.join(map(str, self.params.k))}.fam"


def row_files_for(params: GsParamSet, type_name: str) -> list:
    """The four canonical filtered candidate row sets `search_param` joins:
    X_1's orbit representatives (`orbit_representatives` of every skew
    block), the blocks X < -X at every other skew position, and every
    block at a symmetric one.  X < -X holds when X has 1 rather than
    v - 1, the highest bit a skew block can set: the lower half of the
    ascending `skew_masks`.  Positions after X_1 of equal size and kind
    share one `collect_rows` call and row set."""
    v = params.v
    skew = skew_masks(v)
    first = collect_rows(v, params.k[0], "skew",
                         masks=skew[orbit_representatives(v, skew)])
    keys = [(k, "skew" if tag == "k" else "symmetric")
            for tag, k in zip(type_tags(type_name)[1:], params.k[1:])]
    half = skew[:len(skew) // 2]
    files = {key: collect_rows(v, *key, masks=half if key[1] == "skew" else None)
             for key in dict.fromkeys(keys)}
    return [first] + [files[key] for key in keys]


def expand_over_units(v: int, quads, negated=()) -> tuple:
    """Every image of the mask quadruples, deduplicated and sorted, as an
    (n, 4) int64 array (`distinct_masks` of the images), and each image's
    dilation orbit: each quadruple with the blocks at the positions
    ``negated`` taken as they are and negated, in every combination,
    and each of those dilated by every unit.

    A source's orbit is labelled by its least dilate (`_lex_min` of its
    images, its `orbit_least`), and the labels are numbered by
    `distinct_masks` of those least quadruples, as `dilation_orbits`
    numbers them; sources of one orbit, such as a quadruple whose
    negation is a dilate of it, share one label, and every image takes
    its source's."""
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    for i in negated:
        flipped = quads.copy()
        flipped[:, i] = negate_mask(v, quads[:, i])
        quads = np.concatenate((quads, flipped))
    images = dilate_mask(v, quads, units(v))
    families, index = distinct_masks(images.reshape(-1, 4))
    _, label = distinct_masks(_lex_min(images))
    # the images are unit-major, so image r is of source r % len(quads)
    orbit = np.empty(len(families), np.intp)
    orbit[index] = np.tile(label, len(images))
    return families, orbit


def search_param(params: GsParamSet, type_name: str,
                 options: SearchOptions = None) -> ParamOutcome:
    """Exhaustive search for one parameter set and type; families re-verified."""
    options = options or SearchOptions()
    if not type_applicable(params, type_name):
        return ParamOutcome(params, type_name, applicable=False)
    v = params.v
    found = bins_match(row_files_for(params, type_name), params.lam,
                       jobs=options.jobs)
    # the skew positions after X_1, which `row_files_for` halves
    negated = [i for i, tag in enumerate(type_tags(type_name)) if i and tag == "k"]
    expanded, orbit = expand_over_units(v, found, negated)
    distinct, index = distinct_masks(expanded.ravel())
    blocks = [CyclicSubset(v, m) for m in distinct.tolist()]
    # the families' blocks, gathered a column at a time
    columns = (map(blocks.__getitem__, col) for col in index.reshape(-1, 4).T.tolist())
    families = [Family(params, quad) for quad in zip(*columns)]
    certificates = verify_families(families)
    for fam in families:
        if not verify_family(fam, certificates).ok:
            raise RuntimeError(f"matcher emitted an invalid family: {fam}")
    out = ParamOutcome(params, type_name, True, families)
    if options.classified and families:
        orbits = orbits_of(families, [(v, np.arange(len(families)), expanded, orbit)])
        out.classes = classify(families, orbits)
        out.smalls = small_classes(families, orbits)
    return out


def order_param_sets(v: int, type_name: str, params_filter=None) -> list:
    """The parameter sets of an order (k1 = (v-1)/2) that `search_order`
    searches for a type.

    `params_filter`, a size vector (k1, k2, k3, k4), restricts them to
    that set; an order or a vector with no searchable set is a
    ValueError.  Bad input fails here, before any candidate generation."""
    type_tags(type_name)  # an unknown type fails before any work
    check_width(v)  # before parameter enumeration, so every type fails alike
    sets = [p for p in searchable_param_sets(v)
            if params_filter is None or p.k == tuple(params_filter)]
    if not sets:
        sizes = "" if params_filter is None else " has sizes " + ",".join(map(str, params_filter))
        raise ValueError(f"no searchable parameter set of v={v}{sizes}")
    return sets


def search_order(v: int, type_name: str, options: SearchOptions = None,
                 params_filter=None) -> list:
    """Search the sets `order_param_sets` gives for one type.

    The outcomes come as a list, so every search has run when this returns."""
    sets = order_param_sets(v, type_name, params_filter)
    options = options or SearchOptions()
    return [search_param(p, type_name, options) for p in sets]


def table_comparison(max_v: int, options: SearchOptions = None) -> list:
    """Recompute table verdicts up to max_v; rows of (params, type, expected, got)."""
    options = options or SearchOptions(classified=False)
    rows = table_rows_up_to(max_v)
    got = {}
    for v in sorted({row.params.v for row in rows}):
        for t in TYPE_NAMES:
            for out in search_order(v, t, options):
                got[out.params, t] = out.verdict
    return [(row.params, t, row.verdict(t), got[row.params, t])
            for row in rows for t in TYPE_NAMES]
