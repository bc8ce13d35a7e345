"""The class check of scripts/large_orders.py."""
import importlib.util
from pathlib import Path

import pytest

from gsdf.catalog import catalog_groups
from gsdf.equivalence import Dilate, Negate, apply_transform, classify
from gsdf.params import searchable_param_sets, type_applicable
from gsdf.search import ParamOutcome

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "large_orders.py"


@pytest.fixture(scope="module")
def large_orders():
    spec = importlib.util.spec_from_file_location("large_orders", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reps(v, type_name):
    return [e.family for e in catalog_groups()[(v, type_name)]]


def test_unbundled_type_is_checked_against_the_table(large_orders):
    # the catalog bundles no ksss classes at 37; the table says ksss = yes.
    # Only the number of classes is read, so any two classes serve.
    ok, line = large_orders.check_class_count(37, "ksss", classify(reps(37, "kkss")[:2]))
    assert ok and line == "v=37 ksss: 2 classes, not bundled, table says yes -> ok"
    ok, line = large_orders.check_class_count(37, "ksss", [])
    assert not ok and line.endswith("MISMATCH")


def test_bundled_type_compares_class_counts(large_orders, monkeypatch):
    found = reps(37, "kkss")
    classes = classify(found)
    keyed = []
    canonical_key = large_orders.canonical_key
    monkeypatch.setattr(large_orders, "canonical_key",
                        lambda fam: keyed.append(fam) or canonical_key(fam))
    ok, line = large_orders.check_class_count(37, "kkss", classes)
    assert ok and line == "v=37 kkss: 7 classes, catalog has 7 -> ok"
    # the classes found come with their keys: only the catalog's are computed
    assert keyed == found
    # other members of the same classes match too
    moved = [apply_transform(apply_transform(f, Dilate(2)), Negate(0)) for f in found]
    assert moved != found
    assert large_orders.check_class_count(37, "kkss", classify(moved))[0]
    ok, line = large_orders.check_class_count(37, "kkss", classify(found[1:]))
    label = catalog_groups()[(37, "kkss")][0].label
    assert not ok and line == (f"v=37 kkss: 6 classes, catalog has 7, missing {label}"
                               " -> MISMATCH")


def test_unlisted_class_is_named(large_orders):
    other = reps(33, "kkss")[0]  # not a class of order 37
    found = classify(reps(37, "kkss")[1:]) + classify([other])
    ok, line = large_orders.check_class_count(37, "kkss", found)
    label = catalog_groups()[(37, "kkss")][0].label
    assert not ok and line == (f"v=37 kkss: 7 classes, catalog has 7, missing {label}, "
                               f"unlisted {other} -> MISMATCH")


def test_families_where_the_table_says_no(large_orders):
    # every kkss set at 49 is "no" in the table
    ok, line = large_orders.check_class_count(49, "kkss", classify(reps(37, "kkss")[:1]))
    assert not ok and line.endswith("table says no -> MISMATCH")
    ok, _ = large_orders.check_class_count(49, "kkss", [])
    assert ok


def no_search(*args, **kwargs):
    raise AssertionError("searched despite bad input")


@pytest.mark.parametrize("flag", ("--jobs",))
def test_non_positive_limits_exit_2_before_any_search(large_orders, flag, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(large_orders, "search_param", no_search)
    assert large_orders.main(["--order", "33", flag, "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag[2:]} must be positive\n"


@pytest.mark.parametrize("value", ("abc", "0"))
def test_bad_jobs_environment_exits_2_before_any_search(large_orders, value, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(large_orders, "search_param", no_search)
    monkeypatch.setenv("GSDF_JOBS", value)
    assert large_orders.main(["--order", "33"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: GSDF_JOBS must be a positive integer, got '{value}'\n"


def test_out_dir_that_is_a_file_exits_2_before_any_search(large_orders, capsys,
                                                         monkeypatch, tmp_path):
    monkeypatch.setattr(large_orders, "search_param", no_search)
    path = tmp_path / "taken"
    path.write_text("")
    assert large_orders.main(["--order", "33", "--out-dir", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_threshold_flag_is_gone(large_orders, monkeypatch):
    monkeypatch.setattr(large_orders, "search_param", no_search)
    with pytest.raises(SystemExit) as exc:
        large_orders.main(["--order", "33", "--threshold", "5"])
    assert exc.value.code == 2


def test_repeated_orders_and_types_are_searched_once(large_orders, capsys, monkeypatch):
    calls = []

    def counting_search(params, type_name, options):
        calls.append((params.v, type_name, params.k))
        return ParamOutcome(params, type_name, True)

    monkeypatch.setattr(large_orders, "search_param", counting_search)
    large_orders.main(["--order", "37", "--order", "33", "--order", "37",
                       "--type", "kkss", "--type", "ksss", "--type", "kkss"])
    # each (order, type) once, in the order first given
    expected = [(v, t, p.k) for v in (37, 33) for t in ("kkss", "ksss")
                for p in searchable_param_sets(v) if type_applicable(p, t)]
    assert calls == expected
    checks = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    assert [line.split(":")[0] for line in checks] == [
        "v=37 kkss", "v=37 ksss", "v=33 kkss", "v=33 ksss"]


def test_each_set_reports_its_classes_and_small_classes(large_orders, capsys,
                                                         monkeypatch):
    def stub_search(params, type_name, options):
        # stand-in outcome lists: only their lengths are printed
        return ParamOutcome(params, type_name, True, families=[None] * 12,
                            classes=[], smalls=[None] * 5)

    monkeypatch.setattr(large_orders, "search_param", stub_search)
    large_orders.main(["--order", "33", "--type", "kkss"])
    sets = [p for p in searchable_param_sets(33) if type_applicable(p, "kkss")]
    lines = [line for line in capsys.readouterr().out.splitlines() if " [" in line]
    assert [line.split(" [")[0] for line in lines] == [
        f"v=33 kkss {p}: 12 families, 0 classes, 5 small classes" for p in sets]
