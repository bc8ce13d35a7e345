#!/usr/bin/env python3
"""Exhaustive classification of the two order-33 kkss parameter sets.

This is the dedicated runner for the extended reproduction target: it
searches (33;16,16,15,11;25) and (33;16,16,13,12;24) from scratch,
classifies the results, and checks the class representatives against the
bundled catalog. Takes about 70 s in one process on a 2-core x86-64
machine; scale with --jobs or the GSDF_JOBS environment variable.

    python scripts/classify_order33.py [--jobs N] [--out-dir DIR]
"""
import argparse
import os
import sys
import time

from gsdf.catalog import catalog_groups
from gsdf.equivalence import canonical_key
from gsdf.family import write_families
from gsdf.matcher import default_jobs
from gsdf.params import kkss_param_sets
from gsdf.search import SearchOptions, search_param


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=default_jobs())
    ap.add_argument("--threshold", type=int, default=10 ** 7)
    ap.add_argument("--out-dir", help="write the matched families here")
    args = ap.parse_args(argv)

    options = SearchOptions(jobs=args.jobs, threshold=args.threshold)
    bundled = {canonical_key(e.family): e.label
               for e in catalog_groups()[(33, "kkss")]}
    t0 = time.time()
    seen = {}
    for params in kkss_param_sets(33):
        out = search_param(params, "kkss", options)
        print(f"{params}: {len(out.families)} families, "
              f"{len(out.classes)} classes, {len(out.smalls)} small classes "
              f"[{time.time() - t0:.0f}s]")
        for i, cls in enumerate(out.classes, 1):
            label = bundled.get(canonical_key(cls.representative), "NEW")
            seen[label] = params
            print(f"  class {i} size {cls.size} -> {label}: "
                  f"{cls.representative}")
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            name = "33-kkss-" + "-".join(map(str, params.k)) + ".fam"
            path = os.path.join(args.out_dir, name)
            write_families(path, out.families)
            print(f"  wrote {path}")

    missing = sorted(set(bundled.values()) - set(seen))
    extra = "NEW" in seen
    print(f"matched {len(seen)} of {len(bundled)} bundled classes"
          + (f"; missing {missing}" if missing else "")
          + ("; found unlisted classes" if extra else ""))
    return 0 if not missing and not extra else 1


if __name__ == "__main__":
    sys.exit(main())
