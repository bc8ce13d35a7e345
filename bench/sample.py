"""One benchmark sample: set up a workload, run one of its searches, check it.

    python3 bench/sample.py WORKLOAD --spawned T (--search I [--trace] | --setup-only)

`bench/run.py` starts this script in a fresh interpreter for every
sample, as `gsdf search` runs one search per process.  A second search
in the same process would start with the module-level caches of
`gsdf.equivalence` warm and a heap holding the first one's results, so
its time would depend on what ran before it.  `--spawned` is the
`time.monotonic()` reading taken just before the interpreter was
started; set-up time runs from there to the moment the workload is
ready to search (imports, parameter enumeration for all of its
searches, reference load), and is the same work whichever search runs.
`--search` is the index of the search to run in the workload.

Every time is measured with `bench/pace.py` ticking from the start of
`main`: the tick time is taken out of each interval, and each
interval's slowdown (mean tick time over the nominal one) is reported
beside it, for `bench/run.py` to scale the time by.

The last line of standard output is one JSON object with the sample's
measurements and, unless `--setup-only`, the count of (parameter set,
type) searches attempted and of those whose output differs from
`bench/reference.json`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pace import Pace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference.json"
TYPES = ("ksss", "kkss", "kkks")
JOBS = 1     # every workload runs in one process; no matcher pool
PACE = Pace()


@dataclass(frozen=True)
class Search:
    """One call of a search entry point: search_order or search_param."""

    kind: str            # "order" or "param"
    v: int
    type_name: str = ""
    k: tuple = ()

    @property
    def id(self) -> str:
        if self.kind == "param":
            return f"param {self.v} {','.join(map(str, self.k))} {self.type_name}"
        return f"order {self.v} {self.type_name}"


JOIN = Search("param", 29, "ksss", (14, 13, 12, 10))
# workload -> its searches; every search is classified
WORKLOADS = {
    "dense-small": (Search("order", 21, "kkks"), Search("order", 23, "kkss"),
                    Search("order", 25, "kkss")),
    "join-heavy": (JOIN,),
    # a few seconds at v = 13, for the harness test; not a measured workload
    "smoke": tuple(Search("order", 13, t) for t in TYPES),
}

# workload -> how strongly its search time follows the host's slowdown
# (bench/pace.py): the slope of log wall time on log slowdown over
# fresh-process samples of its searches (bench/README.md, "Noise")
PACE_EXPONENT = {"dense-small": 1.3, "join-heavy": 0.7, "smoke": 1.0}

# family totals asserted by the acceptance runs, checked beside the digests
FAMILY_TOTALS = {
    "order 21 kkks": 2016,
    "order 23 kkss": 704,
    "order 25 kkss": 1040,
    JOIN.id: 140,
}


def import_gsdf():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gsdf
    if Path(gsdf.__file__).resolve().parent != SRC / "gsdf":
        raise SystemExit(f"gsdf imported from {gsdf.__file__}, not from {SRC}")
    return gsdf


def planned_ops(search: Search) -> list:
    """Keys of the (parameter set, type) searches one search call makes."""
    from gsdf.params import GsParamSet, searchable_param_sets
    if search.kind == "order":
        return [f"{p} {search.type_name}" for p in searchable_param_sets(search.v)]
    p = GsParamSet(search.v, search.k, sum(search.k) - search.v)
    return [f"{p} {search.type_name}"]


def run_search(search: Search, options):
    from gsdf.params import GsParamSet
    from gsdf.search import search_order, search_param
    if search.kind == "order":
        return search_order(search.v, search.type_name, options)
    params = GsParamSet(search.v, search.k, sum(search.k) - search.v)
    return [search_param(params, search.type_name, options)]


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def records(result) -> dict:
    """Op key -> the output that must match the reference."""
    out = {}
    for o in result:
        quads = sorted(tuple(b.mask for b in f.blocks) for f in o.families)
        out[f"{o.params} {o.type_name}"] = {
            "verdict": o.verdict,
            "families": len(quads),
            "families_sha256": _sha256(quads),
            "classes": len(o.classes),
            "classes_sha256": _sha256([(c.key, c.size) for c in o.classes]),
            "small_classes": len(o.smalls),
        }
    return out


def table_verdicts() -> dict:
    """Op key -> the existence verdict in the stored table (catalog.table_rows)."""
    from gsdf.catalog import table_rows
    return {f"{row.params} {t}": row.verdict(t) for row in table_rows() for t in TYPES}


def check_ops(search: Search, planned: list, got, reference: dict) -> tuple:
    """(op keys attempted, op keys whose output is missing or wrong)."""
    if got is None:
        return set(planned), set(planned)
    keys = set(planned) | set(got)
    bad = {k for k in keys if k not in got or got[k] != reference.get(k)}
    table = table_verdicts()
    bad |= {k for k, rec in got.items() if k in table and rec["verdict"] != table[k]}
    total = FAMILY_TOTALS.get(search.id)
    if total is not None and sum(rec["families"] for rec in got.values()) != total:
        bad = keys
    return keys, bad


def _cpu_s() -> float:
    return sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main() -> None:
    PACE.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--spawned", type=float, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--search", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    searches = WORKLOADS[args.workload]

    gsdf = import_gsdf()
    import gsdf.matcher
    import gsdf.search
    import numpy
    planned = {s.id: planned_ops(s) for s in searches}
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    reference = {s.id: reference[s.id] for s in searches}
    setup_s = time.monotonic() - args.spawned - PACE.spent
    setup_slowdown = PACE.slowdown(since=0.0)
    if args.setup_only:
        PACE.stop()
        print(json.dumps({"setup_s": setup_s, "setup_slowdown": setup_slowdown}))
        return
    search = searches[args.search]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(clock=PACE.clock)
        tracer.install(gsdf.search, gsdf.matcher)
    options = gsdf.search.SearchOptions(jobs=JOBS, classified=True)
    result = None
    since = time.perf_counter()
    cpu0, t0 = _cpu_s() - PACE.spent, PACE.clock()
    try:
        result = run_search(search, options)
    except Exception:
        # a failing search counts against ops, it does not end the run
        traceback.print_exc()
    t1, cpu1 = PACE.clock(), _cpu_s() - PACE.spent
    slowdown = PACE.slowdown(since)
    PACE.stop()

    got = records(result) if result is not None else None
    keys, bad = check_ops(search, planned[search.id], got, reference[search.id])
    out = {
        "setup_s": setup_s,
        "search_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "slowdown": slowdown,
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(keys),
        "failed": len(bad),
        "failed_ops": sorted(f"{search.id} / {k}" for k in bad),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.totals(t0, t1)
        out["trace_problems"] = tracer.problems(t0, t1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
