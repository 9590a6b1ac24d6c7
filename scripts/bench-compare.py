#!/usr/bin/env python3
"""Diffs two DSG_BENCH_JSON files record by record.

    scripts/bench-compare.py baseline.json current.json
                             [--fail-over field:factor ...]

Each file is a JSON array of bench records (the format DSG_BENCH_JSON
accumulates; a single object is accepted too). Records are matched
between the files on their IDENTITY — the record's "bench" name plus
every string-valued field and every integer config field that exists in
both (mode, target_qps, ranks, ...); floating-point measurement fields
never participate in identity. For every matched pair the numeric fields
are printed side by side with absolute and relative deltas; records
present on only one side are listed as added/removed.

--fail-over field:factor makes the comparison gating: if any matched
record's `field` grew by more than `factor`x over the baseline (for
fields where bigger is worse — latencies, violation counts/rates), exit
non-zero. Repeatable. A field absent from a pair is skipped (schema
growth is not a regression), but a gated comparison that matches no
record at all fails: it would otherwise pass without comparing anything.
Example, as used by scripts/slo-gate.py:

    scripts/bench-compare.py BENCH_9.json bench.json \\
        --fail-over on_arrival_p99_ms:10 --fail-over violation_rate:10

The generous factors absorb CI-runner noise; the gate is for order-of-
magnitude regressions, not single-digit percents.
"""
import argparse
import json
import sys


def load_records(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench-compare: FAIL: {path}: {exc}", file=sys.stderr)
        sys.exit(1)
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not all(
            isinstance(r, dict) for r in doc):
        print(f"bench-compare: FAIL: {path}: expected a JSON array of "
              f"records", file=sys.stderr)
        sys.exit(1)
    return doc


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def identity_of(rec, shared_keys):
    """Identity = bench name + string fields + int-valued config fields
    that are shared across both files. Floats are measurements, never
    identity."""
    parts = []
    for key in sorted(shared_keys):
        v = rec.get(key)
        if isinstance(v, str):
            parts.append((key, v))
        elif isinstance(v, int) and not isinstance(v, bool):
            parts.append((key, v))
        elif isinstance(v, float) and key in CONFIG_FLOATS:
            parts.append((key, v))
    return tuple(parts)


# Integer and string fields that are measurements, not configuration:
# exclude them from record identity so two runs of the same cell still
# match (a gate's verdict and within_gate are outcomes, not cell keys).
MEASUREMENT_INTS = {
    "served", "ok", "shed", "expired", "cache_hits", "slo_violations",
    "snapshots_published", "flight_recorded", "flight_worst_total_ns",
    "arrivals", "issued", "queries", "hits", "misses",
    "scrapes_served", "verdict", "within_gate", "ingest_ops_per_s",
    "violation_rate",
}

# Float-valued fields that ARE configuration (they distinguish cells of
# the same bench, e.g. the two target-QPS cells of bench_slo_serving).
CONFIG_FLOATS = {"target_qps", "slo_ms"}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--fail-over", action="append", default=[],
                    metavar="FIELD:FACTOR",
                    help="fail if FIELD grew by more than FACTOR x")
    args = ap.parse_args()

    gates = []
    for spec in args.fail_over:
        field, _, factor = spec.partition(":")
        try:
            gates.append((field, float(factor)))
        except ValueError:
            print(f"bench-compare: FAIL: bad --fail-over {spec!r}",
                  file=sys.stderr)
            sys.exit(1)

    base = load_records(args.baseline)
    cur = load_records(args.current)

    def keyable(rec):
        return {k for k, v in rec.items()
                if (isinstance(v, str) or
                    (isinstance(v, int) and not isinstance(v, bool)) or
                    (isinstance(v, float) and k in CONFIG_FLOATS)) and
                k not in MEASUREMENT_INTS and
                not k.startswith("slo_violations_")}

    shared = set.union(*(keyable(r) for r in base + cur)) \
        if base + cur else set()

    def index(records, which):
        out = {}
        for rec in records:
            ident = identity_of(rec, shared)
            if ident in out:
                print(f"bench-compare: WARN: duplicate identity in "
                      f"{which}: {dict(ident)}", file=sys.stderr)
            out[ident] = rec
        return out

    base_by_id = index(base, args.baseline)
    cur_by_id = index(cur, args.current)

    failures = []
    matched = 0
    for ident in base_by_id:
        if ident not in cur_by_id:
            print(f"removed: {dict(ident)}")
            continue
        matched += 1
        b, c = base_by_id[ident], cur_by_id[ident]
        print(f"record {dict(ident)}:")
        for key in sorted(set(b) | set(c)):
            bv, cv = b.get(key), c.get(key)
            if not (is_number(bv) and is_number(cv)):
                continue
            delta = cv - bv
            rel = f"{delta / bv:+.1%}" if bv != 0 else "   n/a"
            print(f"  {key:32s} {bv:>14.4g} -> {cv:>14.4g}  "
                  f"({delta:+.4g}, {rel})")
            for field, factor in gates:
                if key == field and bv > 0 and cv > bv * factor:
                    failures.append(
                        f"{key} grew {cv / bv:.1f}x (> {factor}x) for "
                        f"{dict(ident)}")
    for ident in cur_by_id:
        if ident not in base_by_id:
            print(f"added: {dict(ident)}")

    print(f"bench-compare: {matched} matched, "
          f"{len(base_by_id) - matched} removed, "
          f"{len(cur_by_id) - matched} added")
    if gates and matched == 0:
        failures.append("no record matched the baseline, so no gate was "
                        "compared")
    if failures:
        for f in failures:
            print(f"bench-compare: FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print("bench-compare: PASSED")


if __name__ == "__main__":
    main()
