#!/usr/bin/env python3
"""Compare a cpm-bench/v1 result against a checked-in baseline.

Used by the CI bench-smoke job to gate performance regressions:

    tools/bench_compare.py BENCH_p1.json bench/baseline.json --tolerance 0.30

For every case present in BOTH documents it compares
  * median wall_seconds   — regression when candidate > baseline * (1 + tol)
  * median *_per_sec rate — regression when candidate < baseline * (1 - tol)
  * every exact work count in the baseline's `counts` — a mismatch when
    the candidate's differs or is missing. Counts carry no noise, so there
    is no tolerance: a change that moves one updates the baseline. They
    are compared only between documents of the same size (`quick`).

Cases or rates present in only one document are reported as added/removed
but never fail the gate (adding or renaming a case must not need a
two-step dance), and a case with a missing or malformed metric is skipped
with a note rather than crashing the gate. A count only the candidate has
is reported as added.
Exit status: 0 clean, 1 at least one regression or count mismatch, 2
malformed input.

The default tolerance is deliberately loose (30%): shared CI runners
jitter by tens of percent, and the gate exists to catch the 2x-5x cliffs
a bad data structure or an accidental debug build causes, not 5% drift.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != "cpm-bench/v1":
        raise ValueError(f"{path}: unsupported schema {schema!r}")
    return doc


def cases_by_name(doc, path):
    cases = {}
    for c in doc.get("cases", []):
        name = c.get("name")
        if not isinstance(name, str):
            raise ValueError(f"{path}: case without a 'name'")
        cases[name] = c
    return cases


def median_of(case, *keys):
    """case[k0][k1]...["median"], or None when any level is absent."""
    node = case
    for key in (*keys, "median"):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("candidate", help="fresh BENCH_<suite>.json to validate")
    ap.add_argument("baseline", help="checked-in reference document")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown before failing (default 0.30)",
    )
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 10.0:
        ap.error("--tolerance must be in [0, 10)")

    try:
        cand_doc = load(args.candidate)
        base_doc = load(args.baseline)
        cand = cases_by_name(cand_doc, args.candidate)
        base = cases_by_name(base_doc, args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    same_size = cand_doc.get("quick") == base_doc.get("quick")
    if not same_size:
        print("note: the documents differ in 'quick'; work counts not compared")

    regressions = []
    improvements = []
    count_mismatches = []

    def check(case, metric, cand_v, base_v, higher_is_worse):
        if base_v <= 0:
            return  # degenerate baseline sample; nothing meaningful to gate
        ratio = cand_v / base_v
        if higher_is_worse:
            bad = ratio > 1.0 + args.tolerance
            direction = "slower" if ratio > 1 else "faster"
            delta = abs(ratio - 1.0)
        else:
            bad = ratio < 1.0 - args.tolerance
            direction = "slower" if ratio < 1 else "faster"
            delta = abs(1.0 - ratio)
        line = (
            f"  {case}/{metric}: {cand_v:.6g} vs baseline {base_v:.6g} "
            f"({delta:.1%} {direction})"
        )
        if bad:
            regressions.append(line)
        elif delta > args.tolerance:
            improvements.append(line)

    removed = sorted(set(base) - set(cand))
    added = sorted(set(cand) - set(base))
    for name in removed:
        print(f"note: case '{name}' removed (in baseline only, skipped)")
    for name in added:
        print(f"note: case '{name}' added (no baseline yet, skipped)")

    for name in sorted(set(base) & set(cand)):
        c, b = cand[name], base[name]
        cand_wall = median_of(c, "wall_seconds")
        base_wall = median_of(b, "wall_seconds")
        if cand_wall is None or base_wall is None:
            print(f"note: case '{name}' has no wall_seconds median in one "
                  "document (skipped)")
        else:
            check(name, "wall_seconds.median", cand_wall, base_wall,
                  higher_is_worse=True)
        base_rates = b.get("rates", {})
        cand_rates = c.get("rates", {})
        for rate in sorted(base_rates):
            if not rate.endswith("_per_sec"):
                continue
            if rate not in cand_rates:
                print(f"note: rate '{name}/{rate}' missing from candidate (skipped)")
                continue
            cand_r = median_of(cand_rates, rate)
            base_r = median_of(base_rates, rate)
            if cand_r is None or base_r is None:
                print(f"note: rate '{name}/{rate}' has no median in one "
                      "document (skipped)")
                continue
            check(name, rate, cand_r, base_r, higher_is_worse=False)
        if not same_size:
            continue
        base_counts = b.get("counts", {})
        cand_counts = c.get("counts", {})
        for count in sorted(base_counts):
            if count not in cand_counts:
                count_mismatches.append(
                    f"  {name}/{count}: missing vs baseline {base_counts[count]}")
            elif cand_counts[count] != base_counts[count]:
                count_mismatches.append(
                    f"  {name}/{count}: {cand_counts[count]} vs baseline {base_counts[count]}")
        for count in sorted(set(cand_counts) - set(base_counts)):
            print(f"note: count '{name}/{count}' added (no baseline yet, skipped)")

    if added or removed:
        print(f"bench_compare: {len(added)} case(s) added, "
              f"{len(removed)} removed vs baseline")

    if improvements:
        print(f"improvements beyond {args.tolerance:.0%} (consider refreshing baseline):")
        print("\n".join(improvements))
    if count_mismatches:
        print("WORK COUNT MISMATCH (exact counts must equal the baseline's):")
        print("\n".join(count_mismatches))
    if regressions:
        print(f"PERFORMANCE REGRESSION (>{args.tolerance:.0%} vs baseline):")
        print("\n".join(regressions))
    if count_mismatches or regressions:
        return 1
    print(f"bench_compare: all metrics within {args.tolerance:.0%} of baseline, "
          "all work counts equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
