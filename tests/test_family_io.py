import random

import numpy as np
import pytest

import gsdf.catalog
import gsdf.family
from gsdf.catalog import catalog_entries
from gsdf.family import (Family, FamilyFormatError, family_from_blocks,
                         family_masks, family_patterns, format_families,
                         read_families, write_families)
from gsdf.params import GsParamSet, enumerate_param_sets
from gsdf.zmod import TAG_NONE, TAGS, CyclicSubset, tag_codes
from test_zmod import tag_by_sets


def qr7_family():
    return family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [0]])


def pattern_by_sets(fam):
    """The family's positional tag pattern from `tag_by_sets`."""
    return "".join(tag_by_sets(fam.v, b.elements) for b in fam.blocks)


def test_family_construction():
    fam = qr7_family()
    assert fam.params == GsParamSet.parse("(7;3,3,3,1;3)")
    assert family_patterns([fam]) == ["kkks"]


def tag(x):
    return TAGS[tag_codes(x.v, x.mask)]


def test_subset_tags():
    assert tag(CyclicSubset.from_elements(7, [1, 2, 4])) == "k"
    assert tag(CyclicSubset.from_elements(7, [0, 2, 5])) == "s"
    assert tag(CyclicSubset.from_elements(7, [1, 3, 6])) == "-"
    # skew and symmetric at once: skew wins
    assert tag(CyclicSubset(1, 0)) == "k"
    untyped = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [1]])
    assert family_patterns([untyped, qr7_family()]) == ["kkk-", "kkks"]


def test_family_tags_are_the_subset_tags():
    fams = []
    for e in catalog_entries():
        blocks = e.family.blocks
        moved = Family(e.params, tuple(b.translate(i + 1) for i, b in enumerate(blocks)))
        fams += [e.family, moved]
    patterns = family_patterns(fams)
    assert patterns == list(map(pattern_by_sets, fams))
    assert patterns[::2] == [e.type_name for e in catalog_entries()]
    assert all(TAG_NONE in p for p in patterns[1::2])


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
    assert list(map(tag, subsets)) == want
    masks = np.array([x.mask for x in subsets], dtype=np.int64 if v <= 63 else object)
    assert [TAGS[c] for c in tag_codes(v, masks).tolist()] == want


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
    text = format_families([small, qr7_family(), small])
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
    assert format_families([fam]) == format_families([qr7_family()])
    assert format_families([fam]) == "7 3 3 3 1 3 kkks\n1,2,4\n1,2,4\n1,2,4\n0\n"
    assert format_families([]) == "" and family_patterns([]) == []


# --- patterns from one `tag_codes` call per order -------------------------------

def wide_family():
    """A ksss family of order 65, whose masks reach past bit 63: X_1 the
    residues 1..32, the others whole pairs {x, -x} from x = 1 (and 0 when
    the size is odd)."""
    params = GsParamSet.parse("(65;32,31,30,25;53)")
    symmetric = [[0] * (k % 2) + [y for x in range(1, k // 2 + 1) for y in (x, 65 - x)]
                 for k in params.k[1:]]
    return family_from_blocks(65, [range(1, 33)] + symmetric)


def mixed_families():
    """Families of orders 7, 13 and 65 interleaved, one with an untyped
    block; the order-13 one is typed kkss but not a difference family."""
    kkss13 = family_from_blocks(13, [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6],
                                     [1, 2, 11, 12], [3, 4, 9, 10]])
    untyped = family_from_blocks(7, [[1, 2, 4], [1, 2, 4], [1, 2, 4], [1]])
    return [qr7_family(), kkss13, wide_family(), untyped, kkss13, wide_family()]


def record_by_sets(fam):
    """A family's record, its type from `tag_by_sets`."""
    lines = [f"{fam.v} {' '.join(map(str, fam.params.k))} {fam.params.lam} "
             f"{pattern_by_sets(fam)}"] + [",".join(map(str, b.elements)) for b in fam.blocks]
    return "\n".join(lines) + "\n"


def recording(codes, calls):
    """`tag_codes` through `codes`, appending the (v, shape of the masks)
    of each call to `calls`."""
    def counted(v, masks):
        calls.append((v, np.shape(masks)))
        return codes(v, masks)
    return counted


@pytest.fixture()
def tag_calls(monkeypatch):
    """The (v, shape of the masks) of each `tag_codes` call made through
    `gsdf.family`."""
    calls = []
    monkeypatch.setattr(gsdf.family, "tag_codes", recording(gsdf.family.tag_codes, calls))
    return calls


def test_family_patterns_take_one_tag_codes_call_per_order(tag_calls):
    fams = mixed_families()
    assert family_patterns(fams) == ["kkks", "kkss", "ksss", "kkk-", "kkss", "ksss"]
    assert tag_calls == [(7, (2, 4)), (13, (2, 4)), (65, (2, 4))]
    assert max(b.mask for b in wide_family().blocks) >= 1 << 63


def test_family_text_is_unchanged_and_written_in_one_pass(tmp_path, tag_calls):
    fams = mixed_families()
    text = format_families(fams)
    assert text == "".join(map(record_by_sets, fams))
    records = text.splitlines()[::5]
    assert records == ["7 3 3 3 1 3 kkks", "13 6 6 4 4 7 kkss", "65 32 31 30 25 53 ksss",
                       "7 3 3 3 1 3 kkk-", "13 6 6 4 4 7 kkss", "65 32 31 30 25 53 ksss"]
    assert text.splitlines()[5:10] == ["13 6 6 4 4 7 kkss", "1,2,3,4,5,6",
                                       "1,2,3,4,5,6", "1,2,11,12", "3,4,9,10"]
    assert text.splitlines()[19] == "1"
    tag_calls.clear()
    path = tmp_path / "mixed.fam"
    write_families(path, fams)
    assert path.read_text() == text
    assert tag_calls == [(7, (2, 4)), (13, (2, 4)), (65, (2, 4))]
    tag_calls.clear()
    assert read_families(path) == fams
    assert tag_calls == [(7, (2, 4)), (13, (2, 4)), (65, (2, 4))]


def test_the_catalog_text_is_its_records_and_read_in_one_pass(tag_calls):
    # each catalog entry's record is its label's order and type, its
    # parameters and its four block lines as they stand in the catalog
    lines = gsdf.catalog._CATALOG_TEXT.splitlines()
    want = ""
    for pos in range(0, len(lines), 5):
        label, param_text = lines[pos].split()
        v, type_name, _ = label.split("-")
        p = GsParamSet.parse(param_text)
        want += f"{v} {' '.join(map(str, p.k))} {p.lam} {type_name}\n"
        want += "".join(ln + "\n" for ln in lines[pos + 1:pos + 5])
    catalog_entries.cache_clear()
    try:
        entries = catalog_entries()
    finally:
        catalog_entries.cache_clear()
    orders = list(dict.fromkeys(e.v for e in entries))
    assert tag_calls == [(v, (sum(e.v == v for e in entries), 4)) for v in orders]
    assert format_families(e.family for e in entries) == want
