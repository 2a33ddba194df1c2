#!/usr/bin/env python3
"""Bench-trend gate: compare a fresh BENCH_exp_scale_1m.json against the
committed baseline and fail on a collapse, not on noise.

Usage: bench_trend.py BASELINE.json FRESH.json [--tolerance FACTOR]

Three checks; the two on rates are deliberately generous because CI
runners and the baseline host differ in raw speed:

1. *Every arm is there*: each arm of the baseline must appear in the
   fresh file. Decades may differ (smoke and full runs cover different
   ones), but an arm that vanished was not measured at all.
2. *Per-decade medians*: for every (arm, rows) decade present in both
   files, the fresh median insert rate must be at least
   ``baseline / FACTOR`` (default 4x). Absolute throughput varies by
   host; an order-of-magnitude collapse is a regression, a 2-3x swing
   is a different machine.
3. *Paper shape*: the tuned arm's 1e6-vs-1e5 ratio is host-independent
   (it is a ratio of rates measured on the same host), so it gets a
   tighter bound: fresh ratio >= half the baseline ratio.

Exits non-zero with a per-row report on any violation.
"""

import argparse
import json
import sys


def decades(doc):
    """{(arm, rows): median_rows_per_s} from a BENCH_exp_scale_1m 'results'."""
    out = {}
    for arm in doc["results"]["arms"]:
        for d in arm["decades"]:
            out[(arm["arm"], d["rows"])] = d["median_rows_per_s"]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        help="fresh decade medians may be up to this factor below baseline",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    base_decades = decades(baseline)
    fresh_decades = decades(fresh)

    bad = False
    print(f"bench trend vs {args.baseline} (tolerance {args.tolerance}x):")
    fresh_arms = {arm for arm, _ in fresh_decades}
    for arm in sorted({arm for arm, _ in base_decades} - fresh_arms):
        print(f"  {arm:>6}: in the baseline, absent from the fresh file MISSING")
        bad = True
    for key in sorted(base_decades, key=lambda k: (k[0], k[1])):
        if key not in fresh_decades:
            # Smoke and full runs cover different decade sets; only
            # decades measured in both files are comparable.
            continue
        arm, rows = key
        base, cur = base_decades[key], fresh_decades[key]
        floor = base / args.tolerance
        verdict = "ok" if cur >= floor else "REGRESSED"
        print(
            f"  {arm:>6} @ {rows:>9,} rows: {cur:>12,.0f} rows/s "
            f"(baseline {base:,.0f}, floor {floor:,.0f}) {verdict}"
        )
        if cur < floor:
            bad = True

    base_ratio = baseline["results"]["tuned_ratio_1e6_vs_1e5"]
    fresh_ratio = fresh["results"].get("tuned_ratio_1e6_vs_1e5")
    if base_ratio is not None and fresh_ratio is not None:
        floor = base_ratio / 2.0
        verdict = "ok" if fresh_ratio >= floor else "REGRESSED"
        print(
            f"  tuned 1e6/1e5 ratio: {fresh_ratio:.3f} "
            f"(baseline {base_ratio:.3f}, floor {floor:.3f}) {verdict}"
        )
        if fresh_ratio < floor:
            bad = True

    if bad:
        print("bench trend: REGRESSION against committed baseline", file=sys.stderr)
        return 1
    print("bench trend: within tolerance of committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
