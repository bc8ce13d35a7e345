import pytest

import gsdf.catalog
from gsdf.catalog import (catalog_entries, catalog_entry, catalog_groups,
                          table_rows, table_rows_up_to, table_verdict)
from gsdf.equivalence import classify, small_classes
from gsdf.family import family_patterns
from gsdf.params import TYPE_NAMES, searchable_param_sets, type_applicable

EXPECTED_GROUPS = {
    (33, "kkss"): 20,
    (37, "kkss"): 7,
    (41, "kkss"): 3,
    (43, "ksss"): 1,
    (43, "kkss"): 4,
    (43, "kkks"): 5,
    (45, "ksss"): 4,
    (45, "kkss"): 1,
}


def test_entry_counts():
    assert len(catalog_entries()) == 45
    groups = catalog_groups()
    assert {key: len(es) for key, es in groups.items()} == EXPECTED_GROUPS


def test_labels_unique_and_addressable():
    labels = [e.label for e in catalog_entries()]
    assert len(set(labels)) == 45
    e = catalog_entry("43-kkks-b")
    assert e.v == 43 and e.type_name == "kkks"
    with pytest.raises(KeyError):
        catalog_entry("99-kkss-a")


def test_entries_match_their_labels():
    patterns = family_patterns(e.family for e in catalog_entries())
    for e, pattern in zip(catalog_entries(), patterns, strict=True):
        v, type_name, _letter = e.label.split("-")
        assert e.v == int(v)
        assert pattern == type_name
        assert e.params.k == tuple(len(b) for b in e.family.blocks)
        assert e.params.lam == sum(e.params.k) - e.v
        assert type_applicable(e.params, type_name)


def test_corrected_lambda_for_45_kkss():
    # the (45;22,22,21,16) G-matrix family: sizes force lambda 36
    e = catalog_entry("45-kkss-a")
    assert e.params.lam == 36
    assert table_verdict(45, (22, 22, 21, 16), "kkss") == "yes"


def test_table_shape():
    rows = table_rows()
    assert len(rows) == 45
    assert list(dict.fromkeys(row.params.v for row in rows)) == list(range(3, 50, 2))
    for row in rows:
        assert len(row.verdicts) == 3
        assert set(row.verdicts) <= {"yes", "no", "x"}


def test_table_rows_are_the_searchable_parameter_sets():
    by_v = {}
    for row in table_rows():
        by_v.setdefault(row.params.v, []).append(row.params)
    for v in range(3, 50, 2):
        assert sorted(by_v[v]) == sorted(searchable_param_sets(v))


def test_table_rows_up_to_an_order():
    rows = table_rows()
    assert table_rows_up_to(None) == rows
    for max_v in (3, 20, 21, 49):
        assert table_rows_up_to(max_v) == tuple(r for r in rows if r.params.v <= max_v)
    with pytest.raises(ValueError) as err:
        table_rows_up_to(2)
    assert str(err.value) == "the table has no order v <= 2"


def test_verdict_x_iff_type_inapplicable():
    for row in table_rows():
        for t in TYPE_NAMES:
            assert (row.verdict(t) == "x") == (not type_applicable(row.params, t))


def test_catalog_groups_match_yes_verdicts():
    for (v, t), entries in catalog_groups().items():
        params_seen = {e.params.k for e in entries}
        for k in params_seen:
            assert table_verdict(v, k, t) == "yes"
    # and the one nonexistence rows in catalog range carry no entries
    assert table_verdict(49, (24, 24, 22, 18), "kkss") == "no"
    assert (49, "kkss") not in catalog_groups()


def test_representatives_are_pairwise_inequivalent():
    # stand-in for re-running the large searches: the listed representatives
    # really are distinct classes, and small classes refine them
    for (v, t), entries in sorted(catalog_groups().items()):
        fams = [e.family for e in entries]
        assert len(classify(fams)) == len(fams)
        assert len(small_classes(fams)) == len(fams)


def test_known_class_count_splits():
    # 33-kkss: 6 classes at (16,16,15,11), 14 at (16,16,13,12)
    entries = catalog_groups()[(33, "kkss")]
    by_k = {}
    for e in entries:
        by_k.setdefault(e.params.k, []).append(e)
    assert {k: len(es) for k, es in by_k.items()} == {
        (16, 16, 15, 11): 6, (16, 16, 13, 12): 14}


def test_table_verdict_of_a_missing_row_is_a_key_error():
    with pytest.raises(KeyError, match=r"no table row for v=5, k=\(9, 9, 9, 9\)"):
        table_verdict(5, (9, 9, 9, 9), "kkss")


def test_a_corrupt_catalog_entry_is_a_value_error(monkeypatch):
    # the first entry's label names the wrong type; the parsed entries
    # are cached, so the cache is emptied before and after
    text = gsdf.catalog._CATALOG_TEXT
    monkeypatch.setattr(gsdf.catalog, "_CATALOG_TEXT", "33-kkks-a" + text[9:])
    catalog_entries.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"^corrupt catalog entry 33-kkks-a$"):
            catalog_entries()
    finally:
        catalog_entries.cache_clear()
