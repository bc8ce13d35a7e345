"""Self-test of the benchmark harness on the v = 13 `smoke` workload.

    python3 -m pytest -q bench/test_harness.py

Each run of bench/run.py here takes a few seconds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "ratio")
LAYER_SPANS = ("params.s", "blockgen.s", "matcher.s", "verify.s",
               "equivalence.classify_s", "equivalence.small_s", "search.self_s")


def run_bench(trace: int, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module")
def traced():
    # two seeds: the searches run in different orders, counts must not care
    return [result_of(run_bench(1, seed)) for seed in (1, 2)]


def assert_metrics_printed(result, lines, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(ln.split()[1:2] == [m["name"]] and m["unit"] in ln.split()
                   for ln in lines if ln.startswith("#")), m["name"]


def test_end_to_end_metrics_printed_with_units():
    result, lines = result_of(run_bench(0))
    assert_metrics_printed(result, lines, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced):
    for result, lines in traced:
        assert_metrics_printed(result, lines, SPEC["per_layer"])


def test_counts_repeat_exactly(traced):
    (first, _), (second, _) = traced
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert "matcher.join_work" in exact and "verify.calls" in exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in ("blockgen.calls", "blockgen.cache_hits", "matcher.cases",
                 "matcher.join_work", "verify.calls", "equivalence.classes"):
        assert first["metrics"][name]["value"] > 0, name


def test_spans_account_for_traced_total(traced):
    # search.self_s is the total minus the top-level spans, so this sum
    # fails when a top-level layer has no span metric of its own
    for result, _ in traced:
        m = {n: v["value"] for n, v in result["metrics"].items()}
        assert m["search.self_s"] >= 0
        assert sum(m[n] for n in LAYER_SPANS) == pytest.approx(m["trace.total_s"], abs=1e-6)
        assert m["matcher.bin_s"] + m["matcher.join_s"] == pytest.approx(m["matcher.s"])


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_pace_takes_its_ticks_out_of_the_clock():
    pace = Pace()
    pace.start()
    began, clock0 = perf_counter(), pace.clock()
    while perf_counter() - began < 0.3:
        pass
    pace.stop()
    elapsed, on_clock = perf_counter() - began, pace.clock() - clock0
    assert len(pace.ticks) >= 10
    assert pace.spent == pytest.approx(sum(t for _, t in pace.ticks))
    assert on_clock == pytest.approx(elapsed - pace.spent, abs=1e-3)
    assert 0 < pace.spent < 0.1 * elapsed
    assert pace.slowdown(since=began) > 0
    # an interval with no ticks is topped up after it
    assert pace.slowdown(since=perf_counter()) > 0
