#!/usr/bin/env python3
"""Long-running exhaustive classification for the larger odd orders.

Reproduces the classified families for v = 33..49 from scratch and
matches the classes found with the bundled catalog by canonical key,
naming catalog labels not found and classes the catalog does not list.
Order 49 is included as a nonexistence check: its kkss parameter set
admits no family. Where the catalog bundles no classes for a type (e.g.
ksss at 33 and 37), only whether families exist is compared, with the
existence table.

These runs grow steeply with v. The search joins only the X_1 blocks
that are least in their unit orbit, and at every other skew position
only the blocks X < -X, and expands the families found over those
negations and the units (see gsdf.search). On a 2-core x86-64 machine
with OPENBLAS_NUM_THREADS=1, one process, the order-33 kkss
reproduction (--order 33 --type kkss) takes 0.8 s; with --jobs 2
(every type), --order 33 finishes in 1.1-1.3 s, --order 37 in 3.5-4.0 s
(three runs; the joins take most of it) and --order 41 in 43-48 s (four
runs; alone, its kkss set takes 29-30 s, with a peak RSS of 52 MiB in
the parent and 60 MiB in each worker). --order 43 --type ksss --jobs 2
(4 parameter sets, 84 families, the one class of the catalog's
43-ksss-a, the first good matrices of order 43) takes 170-202 s (seven
runs, median 181 s), against 172-197 s (seven runs alternating with
them, median 180 s) before small joins were packed. Its good-matrix set
alone, `gsdf search 43 ksss --param 21,19,19,16 --jobs 2`, takes
45-46 s (49 s before). The other types at 43, and orders 45 and up,
have not been timed. Each
parameter set's line gives its families, classes and small classes.
Restrict the workload with --order/--type (a value given twice runs
once) and parallelise with --jobs (default: the GSDF_JOBS environment
variable, or 1; a value other than a positive integer, given either
way, exits 2 before any search).

    python scripts/large_orders.py --order 37 --type kkss --jobs 4
"""
import argparse
import os
import sys
import time

from gsdf.catalog import catalog_groups, table_verdict
from gsdf.equivalence import canonical_key
from gsdf.family import write_families
from gsdf.matcher import default_jobs
from gsdf.params import TYPE_NAMES, searchable_param_sets, type_applicable
from gsdf.search import SearchOptions, search_param

ORDERS = (33, 37, 41, 43, 45, 49)


def check_class_count(v, type_name, classes):
    """Compare a type's classes at order v with the catalog; (ok, line).

    ``classes`` holds the `FamilyClass`es found, with the canonical keys
    the classification computed. Where the catalog bundles classes for the
    type, they must be exactly the classes found, compared by canonical
    key; for the other types only whether any family exists can be
    checked, against the existence table.
    """
    bundled = catalog_groups().get((v, type_name), ())
    if bundled:
        labels = {canonical_key(e.family): e.label for e in bundled}
        keys = {c.key: c.representative for c in classes}
        missing = sorted(labels[key] for key in labels.keys() - keys.keys())
        unlisted = [str(keys[key]) for key in sorted(keys.keys() - labels.keys())]
        ok = not missing and not unlisted
        detail = f"catalog has {len(bundled)}"
        if missing:
            detail += ", missing " + " ".join(missing)
        if unlisted:
            detail += ", unlisted " + "; ".join(unlisted)
    else:
        sets = [p for p in searchable_param_sets(v) if type_applicable(p, type_name)]
        exists = any(table_verdict(v, p.k, type_name) == "yes" for p in sets)
        ok = bool(classes) == exists
        detail = f"not bundled, table says {'yes' if exists else 'no'}"
    return ok, (f"v={v} {type_name}: {len(classes)} classes, {detail} -> "
                f"{'ok' if ok else 'MISMATCH'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, choices=ORDERS, action="append",
                    help="restrict to one or more orders (default: all)")
    ap.add_argument("--type", choices=TYPE_NAMES, action="append",
                    help="restrict to one or more symmetry types")
    ap.add_argument("--jobs", type=int,
                    help="worker processes (default: GSDF_JOBS, or 1)")
    ap.add_argument("--out-dir", help="write matched families here")
    args = ap.parse_args(argv)

    try:
        options = SearchOptions(
            jobs=default_jobs() if args.jobs is None else args.jobs)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a value given twice is searched once, in the order first given
    orders = dict.fromkeys(args.order or ORDERS)
    types = dict.fromkeys(args.type or TYPE_NAMES)
    t0 = time.time()
    failures = 0
    for v in orders:
        for type_name in types:
            sets = [p for p in searchable_param_sets(v)
                    if type_applicable(p, type_name)]
            if not sets:
                continue
            if all(table_verdict(v, p.k, type_name) == "no" for p in sets):
                print(f"v={v} {type_name}: expected empty")
            classes = []
            for params in sets:
                out = search_param(params, type_name, options)
                classes.extend(out.classes)
                print(f"v={v} {type_name} {params}: {len(out.families)} "
                      f"families, {len(out.classes)} classes, "
                      f"{len(out.smalls)} small classes [{time.time() - t0:.0f}s]")
                if args.out_dir and out.families:
                    path = os.path.join(args.out_dir, out.file_name)
                    write_families(path, out.families)
                    print(f"  wrote {path}")
            ok, line = check_class_count(v, type_name, classes)
            failures += not ok
            print(line)
    print(f"done in {time.time() - t0:.0f}s, {failures} mismatches")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
