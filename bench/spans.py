"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces the names that `gsdf.search` and `gsdf.matcher`
look up when they call into another layer (`searchable_param_sets`,
`collect_rows`, `bins_match`, `match_cases`, `verify_family`, `classify`,
`small_classes`) with timing wrappers.  The search entry points are then
called unchanged, so the spans follow whatever the program really calls
and no file of the package is edited.

Each span records its layer, start, end and the span that was open when
it started, read from the clock the tracer is given.  `match_cases` runs
inside `bins_match`; every other wrapped call is expected at the top
level, so the top-level spans do not overlap.  The traced total minus their durations is the search layer's
own time (`search.self_s`): orchestration, `Family` construction and
the tracing hooks themselves.

Every search runs in a process of its own.  `Tracer.totals` gives one
process's raw sums, `scaled` turns their times into reference seconds
(bench/pace.py), and `metrics` merges those of several
searches into the per-layer metrics.
"""
from __future__ import annotations

import inspect
from math import ceil, comb, prod
from time import perf_counter

LAYERS = ("params", "blockgen", "matcher", "matcher.bin", "verify",
          "equivalence.classify", "equivalence.small")

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 < q <= 1); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def candidate_count(v: int, k: int, kind: str) -> int:
    """Blocks `collect_rows` enumerates before its PSD filter."""
    p = (v - 1) // 2
    if kind == "skew":
        return 1 << p
    return comb(p, k // 2) if k // 2 <= p else 0


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []          # (layer, start, end, parent index or None)
        self._open = []
        self.counts = dict.fromkeys(
            ("params.sets", "blockgen.calls", "blockgen.cache_hits",
             "blockgen.candidates", "blockgen.kept", "matcher.cases",
             "matcher.search_space", "matcher.join_work", "matcher.families",
             "verify.calls", "equivalence.classes", "equivalence.small_classes"), 0)
        self.case_work_max = 0
        self.verify_ms = []
        self._unmatched = {}     # id -> row set returned by collect_rows, not yet matched

    # -- wrappers ------------------------------------------------------------

    def install(self, search_mod, matcher_mod) -> None:
        self._wrap(search_mod, "searchable_param_sets", "params", self._on_params)
        self._wrap(search_mod, "collect_rows", "blockgen", self._on_rows)
        self._wrap(search_mod, "bins_match", "matcher", self._on_match)
        self._wrap(matcher_mod, "match_cases", "matcher.bin", self._on_cases)
        self._wrap(search_mod, "verify_family", "verify", self._on_verify)
        self._wrap(search_mod, "classify", "equivalence.classify", self._on_classify)
        self._wrap(search_mod, "small_classes", "equivalence.small", self._on_small)

    def _wrap(self, module, name, layer, after):
        inner = getattr(module, name)
        signature = inspect.signature(inner)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            start = self.clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = (layer, start, end, parent)
            after(signature.bind(*args, **kwargs).arguments, result, end - start)
            return result

        setattr(module, name, traced)

    def _on_params(self, call, result, seconds):
        self.counts["params.sets"] += len(result)

    def _on_rows(self, call, result, seconds):
        self.counts["blockgen.calls"] += 1
        self.counts["blockgen.candidates"] += candidate_count(
            call["v"], call["k"], call["kind"])
        self.counts["blockgen.kept"] += len(result)
        self._unmatched[id(result)] = result

    def _on_match(self, call, result, seconds):
        files = call["files"]
        self.counts["matcher.search_space"] += prod(len(f) for f in files)
        self.counts["matcher.families"] += len(result)
        # a row set reaches the matcher once per generation; every further
        # use came from the search's row-set cache
        for f in files:
            if self._unmatched.pop(id(f), None) is None:
                self.counts["blockgen.cache_hits"] += 1

    def _on_cases(self, call, result, seconds):
        self.counts["matcher.cases"] += len(result)
        for case in result:
            a, b, c, d = sorted(case.sizes)
            work = a * d + b * c
            self.counts["matcher.join_work"] += work
            self.case_work_max = max(self.case_work_max, work)

    def _on_verify(self, call, result, seconds):
        self.counts["verify.calls"] += 1
        self.verify_ms.append(seconds * 1e3)

    def _on_classify(self, call, result, seconds):
        self.counts["equivalence.classes"] += len(result)

    def _on_small(self, call, result, seconds):
        self.counts["equivalence.small_classes"] += len(result)

    # -- results -------------------------------------------------------------

    def problems(self, t0: float, t1: float) -> list:
        """Ways the spans fail to nest as expected inside the traced interval."""
        out = []
        for layer, start, end, parent in self.spans:
            if layer == "matcher.bin":
                if parent is None or self.spans[parent][0] != "matcher":
                    out.append("match_cases ran outside bins_match")
            elif parent is not None:
                out.append(f"{layer} span nested in {self.spans[parent][0]}")
            if start < t0 or end > t1:
                out.append(f"{layer} span outside the traced interval")
        return out

    def totals(self, t0: float, t1: float) -> dict:
        """This process's raw sums, for `metrics` to merge with other processes'."""
        seconds = dict.fromkeys(LAYERS, 0.0)
        for layer, start, end, _ in self.spans:
            seconds[layer] += end - start
        top_s = sum(end - start for _, start, end, parent in self.spans if parent is None)
        return {"counts": self.counts, "seconds": seconds, "total_s": t1 - t0,
                "self_s": (t1 - t0) - top_s, "verify_ms": self.verify_ms,
                "case_work_max": self.case_work_max}


def scaled(totals: dict, divisor: float) -> dict:
    """`totals` with every time divided by `divisor`."""
    return dict(totals,
                seconds={k: s / divisor for k, s in totals["seconds"].items()},
                total_s=totals["total_s"] / divisor,
                self_s=totals["self_s"] / divisor,
                verify_ms=[ms / divisor for ms in totals["verify_ms"]])


def metrics(totals: list) -> dict:
    """Per-layer metrics of the searches whose `Tracer.totals` are given."""
    c = {name: sum(t["counts"][name] for t in totals) for name in totals[0]["counts"]}
    sec = {layer: sum(t["seconds"][layer] for t in totals) for layer in LAYERS}
    verify_ms = [ms for t in totals for ms in t["verify_ms"]]
    case_work_max = max(t["case_work_max"] for t in totals)
    join_s = sec["matcher"] - sec["matcher.bin"]
    return {
        "params.s": sec["params"],
        "params.sets": c["params.sets"],
        "blockgen.s": sec["blockgen"],
        "blockgen.calls": c["blockgen.calls"],
        "blockgen.cache_hits": c["blockgen.cache_hits"],
        "blockgen.candidates": c["blockgen.candidates"],
        "blockgen.kept": c["blockgen.kept"],
        "blockgen.keep_ratio": (c["blockgen.kept"] / c["blockgen.candidates"]
                                if c["blockgen.candidates"] else 0.0),
        "matcher.s": sec["matcher"],
        "matcher.bin_s": sec["matcher.bin"],
        "matcher.join_s": join_s,
        "matcher.cases": c["matcher.cases"],
        "matcher.search_space": c["matcher.search_space"],
        "matcher.join_work": c["matcher.join_work"],
        "matcher.join_work_per_s": c["matcher.join_work"] / join_s if join_s > 0 else 0.0,
        "matcher.families": c["matcher.families"],
        "matcher.case_work_max_share": (case_work_max / c["matcher.join_work"]
                                        if c["matcher.join_work"] else 0.0),
        "verify.s": sec["verify"],
        "verify.calls": c["verify.calls"],
        "verify.family_ms.p50": percentile(verify_ms, 0.50),
        "verify.family_ms.p99": percentile(verify_ms, 0.99),
        "equivalence.classify_s": sec["equivalence.classify"],
        "equivalence.small_s": sec["equivalence.small"],
        "equivalence.classes": c["equivalence.classes"],
        "equivalence.small_classes": c["equivalence.small_classes"],
        "search.self_s": sum(t["self_s"] for t in totals),
        "trace.total_s": sum(t["total_s"] for t in totals),
    }
