"""gsdf benchmark: exhaustive searches timed end to end, per layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Every sample is a fresh interpreter
running `bench/sample.py` and one search of the workload.  First comes
one discarded warm-up launch (bytecode caches), then rounds: in each,
SETUPS_PER_ROUND set-up-only launches, then one sample per search, in
an order the seed fixes.  Rounds go on until another could end after S
seconds (at least one; with --trace 1 at least one untraced and one
traced, alternating).

Every sample measures the host's pace while it runs (bench/pace.py).  A
search sample's times are divided by its slowdown raised to the
workload's PACE_EXPONENT, a set-up time by its own slowdown: all times
are reference seconds, which the host's drifting speed leaves steady
while every change to the program's work moves them in full.

With --trace 0 the result holds the end-to-end metrics: search and CPU
time are the median over untraced rounds of the round's sum over the
workload's searches, set-up time the median over launches, peak RSS the
median over untraced rounds of the round's largest.  With --trace 1 the
result holds the per-layer metrics, medians over the traced rounds, and
`trace.overhead_s`, the median traced total minus the median untraced
search time.  Earlier lines give the machine context, the host's
slowdown and wall times as measured, and, for every metric, its median
and quartiles over rounds (set-up: launches).  The last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  It is not
printed, and the exit code is not 0, when the checkout has no source
tree or a sample cannot run.

See bench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS_PER_ROUND = 3
HANG_MARGIN_S = 100     # a sample still running this long after --seconds has hung

# One BLAS thread and a fixed hash seed: the only parallelism measured is
# the program's own `jobs`, and set iteration order is the same every run.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
from sample import JOBS, PACE_EXPONENT, WORKLOADS  # noqa: E402


class SampleError(RuntimeError):
    pass


def launch(workload: str, *flags: str, deadline: float) -> dict:
    """Run one sample in a fresh interpreter; its JSON result line."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "sample.py"), workload,
           "--spawned", repr(spawned), *flags]
    # a session of its own, so a timeout also stops any process the sample starts
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"sample {workload} {' '.join(flags)} ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        raise SampleError(f"sample {workload} {' '.join(flags)} exited {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + seconds + HANG_MARGIN_S
    order = list(range(len(WORKLOADS[workload])))
    random.Random(seed).shuffle(order)

    launch(workload, "--setup-only", deadline=deadline)      # warm-up, discarded
    setups, plain, traced, round_s = [], [], [], []
    while True:
        if plain and (traced or not trace):
            if time.monotonic() - start + max(round_s) > seconds:
                break
        began = time.monotonic()
        # set-ups interleaved with the rounds, so they sample the whole run
        setups += [launch(workload, "--setup-only", deadline=deadline)
                   for _ in range(SETUPS_PER_ROUND)]
        use_trace = trace and len(traced) < len(plain)
        flags = ["--trace"] if use_trace else []
        samples = {i: launch(workload, "--search", str(i), *flags, deadline=deadline)
                   for i in order}
        # a round lists its samples in workload order, whatever order they ran in
        (traced if use_trace else plain).append([samples[i] for i in sorted(samples)])
        setups += samples.values()
        round_s.append(time.monotonic() - began)
    return {"order": order, "setups": setups, "plain": plain, "traced": traced}


def summarize(run: dict, trace: bool, exponent: float) -> dict:
    """Metric name -> (value of the run, the samples its spread is taken from)."""
    plain, traced = run["plain"], run["traced"]

    def scale(sample):
        """Divisor that turns a search sample's times into reference seconds."""
        return sample["slowdown"] ** exponent

    def per_round(value, combine=sum):
        return [combine(value(sample) for sample in r) for r in plain]

    search = per_round(lambda x: x["search_s"] / scale(x))
    cpu = per_round(lambda x: x["cpu_s"] / scale(x))
    rss = per_round(lambda x: x["peak_rss_mb"], combine=max)
    setups = [x["setup_s"] / x["setup_slowdown"] for x in run["setups"]]
    out = {
        "search_s": (median(search), search),
        "cpu_s": (median(cpu), cpu),
        "setup_s": (median(setups), setups),
        "peak_rss_mb": (median(rss), rss),
    }
    if trace:
        rounds = [spans.metrics([spans.scaled(x["layers"], scale(x)) for x in r])
                  for r in traced]
        for name in rounds[0]:
            values = [m[name] for m in rounds]
            out[name] = (median(values), values)
        overhead = out["trace.total_s"][0] - out["search_s"][0]
        out["trace.overhead_s"] = (overhead, [overhead])
    return out


def as_measured(run: dict) -> dict:
    """Wall times as measured and the host's slowdown, for the # lines."""
    samples = [x for r in run["plain"] for x in r]
    return {
        "wall search_s": ([sum(x["search_s"] for x in r) for r in run["plain"]], "s"),
        "wall setup_s": ([x["setup_s"] for x in run["setups"]], "s"),
        "slowdown": ([x["slowdown"] for x in samples], "x"),
        "setup slowdown": ([x["setup_slowdown"] for x in run["setups"]], "x"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gsdf" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no gsdf source tree (src/gsdf)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    trace = bool(args.trace)
    load = os.getloadavg()
    try:
        run = measure(args.workload, args.seed, args.seconds, trace)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = [sample for r in run["plain"] + run["traced"] for sample in r]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} jobs={JOBS} search_order={run['order']}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={samples[0]['numpy']} loadavg_at_start="
          f"{load[0]:.2f},{load[1]:.2f},{load[2]:.2f}")
    print(f"# rounds: {len(run['plain'])} untraced, {len(run['traced'])} traced; "
          f"set-ups: {len(run['setups'])}")
    for name, (vals, unit) in as_measured(run).items():
        q1, q3 = quartiles(vals)
        print(f"# {'(' + name + ')':30s} {'':14s} {unit:6s} median={median(vals):.6g} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(vals)}")
    summary = summarize(run, trace, PACE_EXPONENT[args.workload])
    for name, (value, vals) in summary.items():
        q1, q3 = quartiles(vals)
        print(f"# {name:30s} {value:14.6g} {units[name]:6s} median={median(vals):.6g} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(vals)}")

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    problems = sorted({p for s in samples if "trace_problems" in s
                       for p in s["trace_problems"]})
    for op in sorted({op for s in samples for op in s["failed_ops"]}):
        print(f"# FAILED {op}")
    for p in problems:
        print(f"# TRACE PROBLEM {p}")
    print(f"# ops attempted={attempted} ops_failed={failed}")

    metrics = {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
