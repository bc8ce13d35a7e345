"""Quadruples of base blocks and their on-disk format.

A family file holds one or more records.  Each record is a header line

    v k1 k2 k3 k4 lambda type

followed by four lines of comma-separated block elements in ascending
order (an empty line denotes the empty block).  `type` gives the
positional block tags, e.g. ``kkss`` or ``skss`` (k = skew,
s = symmetric, - = neither).  Lines starting with ``#`` are comments.

`family_masks` gathers the block masks of a list of families into one
array, and `family_patterns` reads every family's positional tag pattern
from them: one `tag_codes` call per order, each row of codes t_1..t_4
read as entry 27 t_1 + 9 t_2 + 3 t_3 + t_4 of `PATTERNS`.  It is the one
reader of a family list's tags outside the array passes of `verify` and
`equivalence`, for `format_families` (the one record formatter, behind
`write_families`, `gsdf match` and `gsdf catalog show`), the lines of
`gsdf verify`, the check of a file's declared types, the catalog's type
check and the good-matrix precondition.  A block key's tag code is the
tag's index in `TAGS`, the code `tag_codes` gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import attrgetter

import numpy as np

from .params import GsParamSet
from .zmod import TAGS, CyclicSubset, mask_dtype, mask_elements, tag_codes

# the positional tag pattern of each row of tag codes t_1..t_4, at index
# 27 t_1 + 9 t_2 + 3 t_3 + t_4
PATTERNS = tuple(map("".join, product(TAGS, repeat=4)))


def block_key(mask: int, tag_code: int) -> tuple:
    """Order of tagged blocks in every family key: larger blocks first,
    then skew before symmetric, then by elements."""
    return (-mask.bit_count(), tag_code, mask_elements(mask))


@dataclass(frozen=True, slots=True)
class Family:
    """Four blocks in a common Z_v together with their parameter set."""

    params: GsParamSet
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise ValueError("a family has exactly four blocks")
        a, b, c, d = self.blocks
        if not a.v == b.v == c.v == d.v == self.params.v:
            raise ValueError("blocks live in different groups")
        sizes = (a.mask.bit_count(), b.mask.bit_count(), c.mask.bit_count(),
                 d.mask.bit_count())
        if sizes != self.params.k:
            raise ValueError(f"block sizes {sizes} do not match {self.params}")

    @property
    def v(self) -> int:
        return self.params.v

    @property
    def sort_key(self) -> tuple:
        """v and the sorted block keys of the family as it stands, the tags
        from `tag_codes` of its four masks; classification represents each
        class by its least member under it.  Typed families only."""
        masks = family_masks(self.v, [self])[0]
        return (self.v,) + tuple(sorted(map(block_key, masks.tolist(),
                                            tag_codes(self.v, masks).tolist())))

    def __str__(self):
        return f"{self.params} " + " ".join(str(b) for b in self.blocks)


def family_masks(v: int, families: list) -> np.ndarray:
    """The block masks of families of order v, one row of four per family,
    read in one pass over the blocks, of `mask_dtype`."""
    blocks = chain.from_iterable(map(attrgetter("blocks"), families))
    return np.fromiter(map(attrgetter("mask"), blocks),
                       mask_dtype(v), 4 * len(families)).reshape(-1, 4)


def family_from_blocks(v: int, blocks) -> Family:
    """Build a family from element iterables; lambda is sum |X_i| - v."""
    subs = tuple(b if isinstance(b, CyclicSubset) else CyclicSubset.from_elements(v, b)
                 for b in blocks)
    k = tuple(len(b) for b in subs)
    return Family(GsParamSet(v, k, sum(k) - v), subs)


def family_patterns(families) -> list:
    """The positional tag pattern of each family, e.g. 'ksss' ('-' for an
    untyped block), in order: one `tag_codes` call per order."""
    families = list(families)
    by_v = {}
    for i, fam in enumerate(families):
        by_v.setdefault(fam.v, []).append(i)
    patterns = [None] * len(families)
    for v, picked in by_v.items():
        codes = tag_codes(v, family_masks(v, [families[i] for i in picked]))
        for i, row in zip(picked, (codes @ (27, 9, 3, 1)).tolist()):
            patterns[i] = PATTERNS[row]
    return patterns


def format_families(families) -> str:
    """The records of families in the file format, in order."""
    families = list(families)
    return "".join(
        f"{fam.v} {' '.join(map(str, fam.params.k))} {fam.params.lam} {pattern}\n" +
        "".join(",".join(map(str, b.elements)) + "\n" for b in fam.blocks)
        for fam, pattern in zip(families, family_patterns(families)))


def write_families(path, families) -> None:
    with open(path, "w") as fh:
        fh.write(format_families(families))


class FamilyFormatError(ValueError):
    pass


def read_families(path) -> list:
    """Parse every record in a family file, validating sizes, lambda and
    tags.  The declared types are checked once the records are parsed,
    and the fault on the earliest line is reported."""
    with open(path) as fh:
        raw = fh.readlines()
    lines = [(i + 1, ln.rstrip("\n")) for i, ln in enumerate(raw)
             if not ln.lstrip().startswith("#")]
    records = []
    try:
        records.extend(_records(lines))
    except FamilyFormatError:
        _check_declared_types(records)  # a record before the fault
        raise
    _check_declared_types(records)
    return [fam for _, _, fam in records]


def _records(lines):
    """(header line number, declared type, family) for each record of the
    numbered lines; the types are not checked here."""
    # records are a header plus exactly four block lines; blank lines are
    # meaningful only in block position (empty block), so strip blanks
    # between records.
    pos = 0
    while pos < len(lines):
        lineno, header = lines[pos]
        if not header.strip():
            pos += 1
            continue
        fields = header.split()
        if len(fields) != 7:
            raise FamilyFormatError(
                f"line {lineno}: header needs 'v k1 k2 k3 k4 lambda type', got {header!r}")
        try:
            v, k1, k2, k3, k4, lam = map(int, fields[:6])
        except ValueError:
            raise FamilyFormatError(f"line {lineno}: non-integer field in header")
        tag_str = fields[6]
        if len(tag_str) != 4 or any(t not in "ks-" for t in tag_str):
            raise FamilyFormatError(f"line {lineno}: bad type field {tag_str!r}")
        if pos + 4 >= len(lines):
            raise FamilyFormatError(f"line {lineno}: record truncated")
        blocks = []
        for block_lineno, text in lines[pos + 1:pos + 5]:
            try:
                blocks.append(CyclicSubset.parse(v, text))
            except ValueError as exc:
                raise FamilyFormatError(f"line {block_lineno}: {exc}")
        try:
            p = GsParamSet(v, (k1, k2, k3, k4), lam)
            fam = Family(p, tuple(blocks))
        except ValueError as exc:
            raise FamilyFormatError(f"line {lineno}: {exc}")
        yield lineno, tag_str, fam
        pos += 5


def _check_declared_types(records) -> None:
    """Raise for the earliest record whose blocks' tags (`family_patterns`)
    are not its declared type."""
    patterns = family_patterns(fam for _, _, fam in records)
    for (lineno, tag_str, _), pattern in zip(records, patterns):
        if pattern != tag_str:
            raise FamilyFormatError(
                f"line {lineno}: declared type {tag_str!r} but blocks are {pattern!r}")
