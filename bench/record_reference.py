"""Record bench/reference.json from the code in this checkout.

    python3 bench/record_reference.py

Runs every search of every workload once and stores, per (parameter set,
type), the outputs a sample is checked against: verdict, family count
and SHA-256 of the sorted mask quadruples, class count, SHA-256 of the
class keys and sizes, and small-class count.  It refuses to record outputs that contradict the
stored existence table or the acceptance family totals.  Re-record only
from code whose outputs are known to be right.
"""
from __future__ import annotations

import json

from sample import (JOBS, REFERENCE, WORKLOADS, check_ops, import_gsdf, planned_ops, records,
                    run_search)


def main() -> None:
    gsdf = import_gsdf()
    import gsdf.search
    reference = {}
    options = gsdf.search.SearchOptions(jobs=JOBS, classified=True)
    for searches in WORKLOADS.values():
        for s in searches:
            got = records(run_search(s, options))
            keys, bad = check_ops(s, planned_ops(s), got, got)
            if bad or keys != set(got):
                raise SystemExit(f"{s.id}: outputs contradict the table or totals: "
                                 f"{sorted(bad or keys ^ set(got))}")
            reference[s.id] = got
            print(s.id, len(got), "ops")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
