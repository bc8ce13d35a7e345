import random

import numpy as np
import pytest

from gsdf.catalog import catalog_entries
from gsdf.family import (TAG_NONE, Family, FamilyFormatError, family_from_blocks,
                         family_masks, format_family, read_families,
                         write_families)
from gsdf.params import GsParamSet, enumerate_param_sets
from gsdf.zmod import CyclicSubset
from test_zmod import tag_by_sets


def qr7_family():
    return family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [0]])


def test_family_construction():
    fam = qr7_family()
    assert fam.params == GsParamSet.parse("(7;3,3,3,1;3)")
    assert fam.tags == ("k", "k", "k", "s")
    assert fam.pattern == "kkks" and fam.type_name == "kkks"
    assert fam.is_typed


def test_subset_tags():
    assert CyclicSubset.from_elements(7, [1, 2, 4]).tag == "k"
    assert CyclicSubset.from_elements(7, [0, 2, 5]).tag == "s"
    assert CyclicSubset.from_elements(7, [1, 3, 6]).tag == "-"
    # skew and symmetric at once: skew wins
    assert CyclicSubset(1, 0).tag == "k"
    untyped = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [1]])
    assert not untyped.is_typed
    with pytest.raises(ValueError):
        untyped.type_name


def test_family_tags_are_the_subset_tags():
    untyped = 0
    for e in catalog_entries():
        blocks = e.family.blocks
        moved = Family(e.params, tuple(b.translate(i + 1) for i, b in enumerate(blocks)))
        for fam in (e.family, moved):
            assert fam.tags == tuple(b.tag for b in fam.blocks)
            assert fam.pattern == "".join(fam.tags)
            assert fam.is_typed == (TAG_NONE not in fam.tags)
        assert e.family.type_name == e.type_name
        untyped += not moved.is_typed
    assert untyped == len(catalog_entries())


@pytest.mark.parametrize("v", (1, 2, 7, 13, 63, 65))
def test_subset_tag_is_the_subset_predicates(v):
    rng = random.Random(v)
    half = range(1, (v + 1) // 2)
    subsets = [CyclicSubset(v, rng.getrandbits(v)) for _ in range(40)]
    for _ in range(10):
        subsets.append(CyclicSubset.from_elements(v, [rng.choice((x, v - x)) for x in half]))
        subsets.append(CyclicSubset.from_elements(v, [0] * rng.randint(0, 1) + [
            y for x in rng.sample(half, len(half) // 2) for y in (x, v - x)]))
    want = [tag_by_sets(v, x.elements) for x in subsets]
    assert v <= 2 or set(want) == {"k", "s", "-"}
    assert [x.tag for x in subsets] == want


def test_family_validation():
    params = GsParamSet.parse("(7;3,3,3,1;3)")
    qr = CyclicSubset.from_elements(7, [1, 2, 4])
    with pytest.raises(ValueError, match=r"^block sizes \(3, 3, 3, 3\) do not match "
                       r"\(7;3,3,3,1;3\)$"):
        Family(params, (qr,) * 4)
    for n in (3, 5):
        with pytest.raises(ValueError, match="^a family has exactly four blocks$"):
            Family(params, (qr,) * n)
    # a block of another group in any position, sizes matching or not
    for i in range(4):
        for other in (CyclicSubset(9, 0b111), CyclicSubset(9, 1)):
            blocks = [qr, qr, qr, CyclicSubset(7, 1)]
            blocks[i] = other
            with pytest.raises(ValueError, match="^blocks live in different groups$"):
                Family(params, tuple(blocks))


def test_family_masks_gathers_every_block_in_order():
    fams = [e.family for e in catalog_entries()][:5]
    masks = family_masks(fams[0].v, fams[:1] * 2)
    assert masks.dtype == np.int64 and masks.shape == (2, 4)
    assert masks.tolist() == [[b.mask for b in fams[0].blocks]] * 2
    assert family_masks(7, []).shape == (0, 4)
    # v = 65: Python ints in an object array, some at or above 2^63
    params = enumerate_param_sets(65)[0]
    top = [sum(1 << e for e in range(65 - k, 65)) for k in params.k]
    wide = Family(params, tuple(CyclicSubset(65, m) for m in top))
    masks = family_masks(65, [wide, wide])
    assert masks.dtype == object and min(top) >= 1 << 63
    assert masks.tolist() == [top] * 2


def test_round_trip_single(tmp_path):
    fam = qr7_family()
    path = tmp_path / "f.txt"
    write_families(path, [fam])
    assert read_families(path) == [fam]
    text = path.read_text()
    assert text.splitlines()[0] == "7 3 3 3 1 3 kkks"


def test_round_trip_with_empty_block(tmp_path):
    fam = family_from_blocks(3, [[1], [1], [1], []])
    path = tmp_path / "f.txt"
    write_families(path, [fam])
    [back] = read_families(path)
    assert back == fam and len(back.blocks[3]) == 0


def test_multi_record_and_comments(tmp_path):
    fams = [qr7_family(), family_from_blocks(3, [[1], [1], [1], []])]
    path = tmp_path / "f.txt"
    write_families(path, fams)
    content = "# exhaustive run output\n" + path.read_text()
    path.write_text(content)
    assert read_families(path) == fams


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("kkks", "kkss"),       # declared tags contradict blocks
    lambda t: t.replace("7 3 3 3 1 3", "7 3 3 3 1 4"),  # wrong lambda
    lambda t: t.replace("1,2,4", "1,2,5", 1),  # block loses its declared tag
    lambda t: t.replace("1,2,4", "1,1,4", 1),  # duplicate element
    lambda t: "\n".join(t.splitlines()[:3]),   # truncated record
    lambda t: t.replace("kkks", "kqks"),       # invalid tag letter
    lambda t: t.replace(" 3 kkks", " x kkks"),  # non-integer header field
])
def test_malformed_files_are_rejected(tmp_path, mangle):
    fam = qr7_family()
    path = tmp_path / "f.txt"
    write_families(path, [fam])
    path.write_text(mangle(path.read_text()))
    with pytest.raises(FamilyFormatError):
        read_families(path)


def test_error_messages_carry_line_numbers(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# header comment\n7 3 3 3 1 3 kkks\n1,2,4\n1,2,4\n1,2,4\nbananas\n")
    with pytest.raises(FamilyFormatError, match="line 6"):
        read_families(path)


def test_declared_types_are_checked_by_order_and_reported_by_line(tmp_path):
    """Records of two orders, checked one `tag_codes` call per order: the
    error names the earliest record whose type is wrong, and a wrong type
    comes before a later line that does not parse."""
    small = family_from_blocks(3, [[1], [1], [1], []])
    text = format_family(small) + format_family(qr7_family()) + format_family(small)
    path = tmp_path / "f.txt"
    path.write_text(text)
    assert len(read_families(path)) == 3
    lines = text.splitlines()
    for wrong, lineno in ((10, 11), (5, 6)):
        bad = lines.copy()
        bad[wrong] = bad[wrong].replace("kkks", "kkss")
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(FamilyFormatError, match=f"^line {lineno}: declared type"):
            read_families(path)
        path.write_text("\n".join(bad) + "\nbananas\n")
        with pytest.raises(FamilyFormatError, match=f"^line {lineno}: declared type"):
            read_families(path)
    path.write_text(text + "bananas\n")
    with pytest.raises(FamilyFormatError, match="^line 16: header"):
        read_families(path)


def test_format_is_deterministic():
    fam = qr7_family()
    assert format_family(fam) == format_family(qr7_family())
    assert format_family(fam) == "7 3 3 3 1 3 kkks\n1,2,4\n1,2,4\n1,2,4\n0\n"
