"""Command-line front end.

Exit codes: 0 success (or verified), 1 exhaustive search found nothing
(or a recomputed verdict disagrees with the stored table), 2 bad input,
141 the reader of standard output closed it (as SIGPIPE would end the
process; nothing is printed).
The GSDF_JOBS environment variable sets the worker count of `match`,
`search` and `table1` when --jobs is not given; a value other than a
positive integer exits 2.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

from .blockgen import check_width, collect_rows, read_row_file, write_row_file
from .catalog import catalog_entries, catalog_entry, catalog_groups, table_rows_up_to
from .equivalence import classify, small_classes
from .family import (Family, family_patterns, format_families, read_families,
                     write_families)
from .matcher import bins_match, default_jobs
from .params import (TYPE_NAMES, GsParamSet, enumerate_param_sets,
                     searchable_param_sets, type_applicable)
from .search import SearchOptions, order_param_sets, search_order, table_comparison
from .verify import build_gs_array, is_hadamard, verify_families, write_hadamard
from .zmod import CyclicSubset


def cmd_params(args) -> int:
    check_width(args.v)  # the orders `generate` and `search` accept
    sets = (enumerate_param_sets(args.v) if args.all
            else searchable_param_sets(args.v))
    if args.type:
        sets = [p for p in sets if type_applicable(p, args.type)]
    for p in sets:
        types = ",".join(t for t in TYPE_NAMES if type_applicable(p, t))
        print(f"{p} types:{types or '-'}")
    if not sets:
        print("no parameter sets")
    return 0


def cmd_generate(args) -> int:
    rf = collect_rows(args.v, args.k, args.kind, filtered=not args.no_filter)
    write_row_file(args.out, rf)
    print(f"{len(rf)} blocks -> {args.out}")
    return 0


def cmd_match(args) -> int:
    # one file per distinct path, so a repeated path is read, sorted and
    # hashed once
    rows = {path: read_row_file(path) for path in dict.fromkeys(args.files)}
    files = [rows[path] for path in args.files]
    if len({f.v for f in files}) != 1:
        raise ValueError("row files disagree on v")
    params = GsParamSet(files[0].v, tuple(f.k for f in files), args.lam)
    fams = [Family(params, tuple(CyclicSubset(params.v, m) for m in quad))
            for quad in bins_match(files, args.lam, jobs=args.jobs)]
    text = format_families(fams)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not fams:
        print("no solutions: the problem has no matching quadruple")
        return 1
    print(f"# {len(fams)} families")
    return 0


def _family_records(path) -> list:
    """The records of a family file; a file without any is an error."""
    fams = read_families(path)
    if not fams:
        raise ValueError("no family records")
    return fams


def cmd_classify(args) -> int:
    fams = _family_records(args.family_file)
    classes = small_classes(fams) if args.small else classify(fams)
    kind = "small " if args.small else ""
    print(f"{len(fams)} families, {len(classes)} {kind}equivalence classes")
    for i, c in enumerate(classes, 1):
        print(f"class {i} size {c.size}: {c.representative}")
    return 0


def cmd_verify(args) -> int:
    fams = _family_records(args.family_file)
    if args.hadamard and len(fams) != 1:
        print("error: --hadamard needs a single-record file", file=sys.stderr)
        return 2
    all_ok = True
    certs = zip(verify_families(fams), family_patterns(fams))
    for i, (cert, pattern) in enumerate(certs, 1):
        parts = [f"difference-family={'ok' if cert.diff.ok else 'FAIL'}",
                 f"lambda={'ok' if cert.lam_matches else 'FAIL'}",
                 f"gram={'ok' if cert.gs else 'FAIL'}",
                 f"hadamard={'ok' if cert.hadamard else 'FAIL'}"]
        if cert.skew_type is not None:
            parts.append(f"skew-type={'ok' if cert.skew_type else 'FAIL'}")
        if cert.special is not None:
            parts.append(f"{cert.special_name}-matrices={'ok' if cert.special else 'FAIL'}")
        print(f"record {i} {cert.family.params} {pattern}: " + " ".join(parts))
        all_ok &= cert.ok
    if args.hadamard:
        if not cert.hadamard:
            print("error: the record does not give a Hadamard matrix; "
                  f"{args.hadamard} not written", file=sys.stderr)
            return 2
        # the certificate reads no array, so the one written is checked by
        # its own product first
        h = build_gs_array(fams[0])
        if not is_hadamard(h):
            print("error: the assembled array is not a Hadamard matrix; "
                  f"{args.hadamard} not written", file=sys.stderr)
            return 2
        write_hadamard(args.hadamard, h)
        print(f"hadamard matrix of order {4 * fams[0].v} -> {args.hadamard}")
    return 0 if all_ok else 2


def cmd_search(args) -> int:
    options = SearchOptions(jobs=args.jobs, classified=not args.no_classify)
    params_filter = None
    if args.param is not None:
        if not re.fullmatch(r"\s*\d+\s*(,\s*\d+\s*){3}", args.param):
            raise ValueError(f"--param needs four comma-separated sizes "
                             f"k1,k2,k3,k4, got {args.param!r}")
        params_filter = tuple(map(int, args.param.split(",")))
    # bad input fails before the output directory is made, and that
    # before a long search
    order_param_sets(args.v, args.type, params_filter)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    outcomes = search_order(args.v, args.type, options, params_filter)
    found = 0
    for out in outcomes:
        print(f"{out.params} {args.type}: {out.verdict}" +
              (f", {len(out.families)} families" if out.applicable else ""))
        if out.classes:
            print(f"  {len(out.classes)} equivalence classes, "
                  f"{len(out.smalls)} small classes")
        if args.out_dir and out.families:
            path = os.path.join(args.out_dir, out.file_name)
            write_families(path, out.families)
            print(f"  wrote {path}")
        found += len(out.families)
    return 0 if found else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for (v, t), es in sorted(catalog_groups().items()):
            print(f"v={v} {t}: {len(es)} classes "
                  f"({', '.join(e.label for e in es)})")
        return 0
    if args.action == "show":
        if not args.label:
            print("error: show needs --label", file=sys.stderr)
            return 2
        e = catalog_entry(args.label)
        sys.stdout.write(format_families([e.family]))
        return 0
    # verify-all
    bad = []
    entries = catalog_entries()
    for e, cert in zip(entries, verify_families(e.family for e in entries)):
        print(f"{e.label} {e.params} {e.type_name}: "
              f"{'ok' if cert.ok else 'FAIL'}")
        if not cert.ok:
            bad.append(e.label)
    print(f"{len(entries)} entries, {len(bad)} failures")
    return 0 if not bad else 2


def cmd_table1(args) -> int:
    options = SearchOptions(jobs=args.jobs, classified=False)
    if not args.recompute:
        for row in table_rows_up_to(args.max_v):
            print(f"{row.params} " +
                  " ".join(f"{t}={v}" for t, v in zip(TYPE_NAMES, row.verdicts)))
        return 0
    rows = table_comparison(21 if args.max_v is None else args.max_v, options)
    bad = 0
    for params, t, expected, got in rows:
        status = "ok" if expected == got else "MISMATCH"
        bad += status != "ok"
        print(f"{params} {t}: table={expected} computed={got} {status}")
    print(f"{len(rows)} verdicts recomputed, {bad} mismatches")
    return 0 if bad == 0 else 1


JOBS_HELP = "worker processes (default: GSDF_JOBS, or 1)"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsdf",
        description="search, classify and certify four-block difference "
                    "families with skew/symmetric blocks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="list parameter sets of an order")
    p.add_argument("v", type=int)
    p.add_argument("--all", action="store_true",
                   help="include sets with k1 < (v-1)/2")
    p.add_argument("--type", choices=TYPE_NAMES)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("generate", help="write a candidate row file")
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("kind", choices=("skew", "symmetric"))
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("match", help="match four row files into families")
    p.add_argument("files", nargs=4)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--jobs", type=int, help=JOBS_HELP)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("classify", help="group families into equivalence classes")
    p.add_argument("family_file")
    p.add_argument("--small", action="store_true",
                   help="classes under global dilation only")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="certify families from a file")
    p.add_argument("family_file")
    p.add_argument("--hadamard", metavar="OUT",
                   help="also write the order-4v Hadamard matrix as +/- text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive search for one order and type")
    p.add_argument("v", type=int)
    p.add_argument("type", choices=TYPE_NAMES)
    p.add_argument("--param", help="restrict to one size vector k1,k2,k3,k4")
    p.add_argument("--no-classify", action="store_true")
    p.add_argument("--jobs", type=int, help=JOBS_HELP)
    p.add_argument("--out-dir", help="write family files here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="bundled classified families")
    p.add_argument("action", choices=("list", "show", "verify-all"))
    p.add_argument("--label", help="entry label for 'show', e.g. 43-kkks-a")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("table1", help="existence table; optionally recompute")
    p.add_argument("--recompute", action="store_true")
    p.add_argument("--max-v", type=int,
                   help="only the orders v <= MAX_V (default: every row "
                        "listed; with --recompute, 21)")
    p.add_argument("--jobs", type=int, help=JOBS_HELP)
    p.set_defaults(func=cmd_table1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) is None:
            args.jobs = default_jobs()
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # nothing more can be written to stdout, not even at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError) as exc:  # includes the file-format errors
        # str() of a KeyError quotes its message; print the message itself
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
