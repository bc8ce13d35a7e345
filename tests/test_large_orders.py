"""The class-count comparison of scripts/large_orders.py."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "large_orders.py"


@pytest.fixture(scope="module")
def large_orders():
    spec = importlib.util.spec_from_file_location("large_orders", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unbundled_type_is_checked_against_the_table(large_orders):
    # the catalog bundles no ksss classes at 37; the table says ksss = yes
    ok, line = large_orders.check_class_count(37, "ksss", 2)
    assert ok and line == "v=37 ksss: 2 classes, not bundled, table says yes -> ok"
    ok, line = large_orders.check_class_count(37, "ksss", 0)
    assert not ok and line.endswith("MISMATCH")


def test_bundled_type_compares_class_counts(large_orders):
    ok, line = large_orders.check_class_count(37, "kkss", 7)
    assert ok and line == "v=37 kkss: 7 classes, catalog has 7 -> ok"
    ok, line = large_orders.check_class_count(37, "kkss", 6)
    assert not ok and line == "v=37 kkss: 6 classes, catalog has 7 -> MISMATCH"


def test_families_where_the_table_says_no(large_orders):
    # every kkss set at 49 is "no" in the table
    ok, line = large_orders.check_class_count(49, "kkss", 1)
    assert not ok and line.endswith("table says no -> MISMATCH")
    ok, _ = large_orders.check_class_count(49, "kkss", 0)
    assert ok
