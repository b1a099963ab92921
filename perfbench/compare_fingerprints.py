"""Compare behaviour fingerprints written by two benchmark runs.

    python3 perfbench/compare_fingerprints.py BEFORE_DIR AFTER_DIR

Each directory holds ``fingerprint-<workload>-seed<n>.json`` files, as
``run.py`` writes them to ``.bench_out/``. For every file present in both,
the terminal estimates and GP means are compared entry by entry; the exit
code is 0 only when all of them agree to RTOL, relative.
"""

import argparse
import json
import sys
from pathlib import Path

# agreement a behaviour-preserving change must show
RTOL = 1e-9


def flatten(doc: dict) -> dict:
    values = {}
    for i, row in enumerate(doc["estimates"]):
        for j, v in enumerate(row):
            values[f"window {i} k{j + 1}"] = v
    for name, means in doc["gp_means"].items():
        for t, v in zip(doc["gp_times"], means):
            values[f"{name} GP mean at t_s={t:g}"] = v
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    names = sorted({p.name for p in args.before.glob("fingerprint-*.json")}
                   & {p.name for p in args.after.glob("fingerprint-*.json")})
    if not names:
        print("no fingerprint present in both directories")
        return 1
    worst_overall = 0.0
    for name in names:
        a = json.loads((args.before / name).read_text())
        b = json.loads((args.after / name).read_text())
        va, vb = flatten(a["values"]), flatten(b["values"])
        if va.keys() != vb.keys():
            print(f"{name}: different entries")
            return 1
        worst, where = 0.0, ""
        for key in va:
            rel = abs(vb[key] - va[key]) / max(abs(va[key]), 1e-300)
            if rel > worst:
                worst, where = rel, key
        same = "identical" if a["sha256"] == b["sha256"] else f"max rel diff {worst:.3e} ({where})"
        print(f"{name}: {len(va)} values, {same}")
        worst_overall = max(worst_overall, worst)
    print(f"largest relative difference {worst_overall:.3e} (rtol {RTOL:g})")
    return 0 if worst_overall <= RTOL else 1


if __name__ == "__main__":
    sys.exit(main())
