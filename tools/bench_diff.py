#!/usr/bin/env python3
"""Compare counterpart BM_* entries within one BENCH_micro.json snapshot.

Benchmarks on this project's noisy shared-VM boxes are only meaningful as
same-process ratios (see ROADMAP): each optimized benchmark runs next to a
retained baseline implementation on identical inputs, so the ratio inside
one snapshot is machine-drift-free. This script pairs those counterparts
and prints baseline/optimized speedups.

Usage: tools/bench_diff.py [BENCH_micro.json]
"""

import json
import sys

# (optimized prefix, baseline prefix) — matched per argument suffix, so
# BM_Compose/1000 pairs with BM_NaiveCompose/1000, and
# BM_JoinRadixMultiKey/N/S with BM_JoinFlatHashMultiKey/N/S.
PAIRS = [
    ("BM_Compose", "BM_NaiveCompose"),
    ("BM_TransitiveClosureRandom", "BM_NaiveTransitiveClosureRandom"),
    ("BM_SemiJoinSource", "BM_NaiveSemiJoinSource"),
    ("BM_ExecSeededClosure", "BM_NaiveSeededClosure"),
    ("BM_FlatHashJoin", "BM_SeedHashJoin"),
    ("BM_OffsetJoin", "BM_SeedHashJoin"),
    ("BM_JoinRadixMultiKey", "BM_JoinFlatHashMultiKey"),
    ("BM_JoinMergeSorted", "BM_JoinHashSorted"),
    # The fused per-run composition of a path step vs the unfused join,
    # two-column copy and SortDistinct on identical inputs; and the
    # dense one-column distinct vs sort-and-unique of the same column.
    ("BM_ExecCompose", "BM_ExecJoinProjectSort"),
    ("BM_ExecDistinctColumn", "BM_SortUniqueColumn"),
    # Distinct over a nested union of sorted tables: the executor's k-way
    # merge vs concatenating the same tables and SortDistinct.
    ("BM_ExecDistinctNestedUnion", "BM_ConcatSortUnion"),
    # DP planner vs the retained greedy pass, end to end on the
    # interesting-order cluster (same process, same inputs).
    ("BM_JoinOrderQualityDP", "BM_JoinOrderQualityGreedy"),
    # Serving through the facade's plan cache (lookup hit + execute) vs
    # the cold parse -> rewrite -> plan -> execute pipeline per call.
    ("BM_PreparedVsCold", "BM_ColdPrepare"),
    # The same cached-vs-cold payoff end to end through the concurrent
    # serving layer, at {1,2,4} client threads (suffix-matched).
    ("BM_ServingThroughputCached", "BM_ServingThroughputCold"),
    # Bounded-heap top-k vs the retained full-sort-then-truncate baseline
    # on identical inputs; the speedup must grow with input size at
    # fixed k (the O(n log k) vs O(n log n) asymptotic win).
    ("BM_TopKVsSortAll", "BM_SortAllThenTruncate"),
    # Seeded-closure top-k with the frontier prune vs the same query as
    # the unfused Limit(Sort(closure)) plan, which runs the full fixpoint.
    ("BM_ClosureTopKPruned", "BM_ClosureTopKFull"),
]

# Pairs whose clients block on the server's worker pool (UseRealTime):
# cpu_time measures only the client thread's bookkeeping, so the
# meaningful ratio is wall clock.
REAL_TIME_PAIRS = {"BM_ServingThroughputCached"}

# Parallel benchmarks are their own counterparts: BM_Foo/N/dop runs the
# identical kernel as BM_Foo/N/1 in the same process, so the dop=1 entry
# is the drift-free serial baseline for every dop>1 entry of the same
# size. (On a 1-core box the ratio measures morsel overhead, not speedup.)
SELF_PARALLEL = [
    "BM_JoinRadixParallel",
    "BM_ClosureParallel",
    "BM_ClosureParallelSeeded",
]


def load_benchmarks(path):
    """Loads a snapshot, failing loudly (SystemExit 1) when it is missing
    or malformed — a broken snapshot must break the tier-1 run, not be
    silently reported as 'no pairs'."""
    try:
        with open(path) as f:
            snapshot = json.load(f)
    except OSError as e:
        sys.exit(f"bench_diff: cannot read snapshot {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_diff: malformed JSON in {path}: {e}")
    if not isinstance(snapshot, dict) or "benchmarks" not in snapshot:
        sys.exit(f"bench_diff: {path} is not a google-benchmark JSON "
                 "snapshot (no 'benchmarks' key)")
    # Without --benchmark_repetitions every entry is a lone iteration run.
    # With repetitions, the per-rep entries share one name and only the
    # aggregates are trustworthy — use each benchmark's mean and ignore
    # the individual reps rather than silently keeping the last one.
    iterations = {}
    means = {}
    for entry in snapshot["benchmarks"]:
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "mean":
                means[entry.get("run_name", entry["name"])] = entry
            continue
        iterations[entry["name"]] = entry
    return {**iterations, **means}


def split_name(name):
    """'BM_Foo/123/0' -> ('BM_Foo', '/123/0')."""
    head, sep, tail = name.partition("/")
    return head, sep + tail if sep else ""


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_micro.json"
    benchmarks = load_benchmarks(path)
    by_prefix = {}
    for name in benchmarks:
        head, suffix = split_name(name)
        by_prefix.setdefault(head, {})[suffix] = benchmarks[name]

    rows = []
    for optimized, baseline in PAIRS:
        time_key = ("real_time" if optimized in REAL_TIME_PAIRS
                    else "cpu_time")
        for suffix, opt in sorted(by_prefix.get(optimized, {}).items()):
            base = by_prefix.get(baseline, {}).get(suffix)
            opt_time = opt.get(time_key)
            base_time = base.get(time_key) if base is not None else None
            # A missing counterpart (filtered run, renamed benchmark, or a
            # partial snapshot) is reported as "n/a", never a crash: the
            # other ratios in the snapshot are still meaningful.
            if base_time is None or opt_time is None or opt_time <= 0:
                rows.append((optimized + suffix, baseline + suffix,
                             base_time, opt_time, None,
                             opt.get("time_unit", "ns")))
                continue
            rows.append((optimized + suffix, baseline + suffix,
                         base_time, opt_time, base_time / opt_time,
                         opt.get("time_unit", "ns")))

    # Serial-vs-parallel: wall time ratios, so pool workers actually help
    # (cpu_time sums across threads and would hide the speedup).
    for prefix in SELF_PARALLEL:
        entries = by_prefix.get(prefix, {})
        for suffix, opt in sorted(entries.items()):
            parts = suffix.split("/")  # "/N/dop" -> ["", "N", "dop"]
            if len(parts) < 3 or parts[-1] == "1":
                continue
            serial_suffix = "/".join(parts[:-1]) + "/1"
            base = entries.get(serial_suffix)
            if base is None:
                continue
            opt_time = opt.get("real_time", opt["cpu_time"])
            base_time = base.get("real_time", base["cpu_time"])
            if opt_time <= 0:
                continue
            rows.append((prefix + suffix, prefix + serial_suffix,
                         base_time, opt_time, base_time / opt_time,
                         opt.get("time_unit", "ns")))

    if not rows:
        print(f"no counterpart pairs found in {path}", file=sys.stderr)
        return 1

    width = max(len(r[0]) for r in rows)
    print(f"{'optimized':<{width}}  {'baseline cpu':>14}  "
          f"{'optimized cpu':>14}  {'speedup':>8}")
    for name, _, base_time, opt_time, ratio, unit in rows:
        base_str = (f"{base_time:>12.0f}{unit}" if base_time is not None
                    else f"{'n/a':>14}")
        opt_str = (f"{opt_time:>12.0f}{unit}" if opt_time is not None
                   else f"{'n/a':>14}")
        ratio_str = f"{ratio:>7.2f}x" if ratio is not None else f"{'n/a':>8}"
        print(f"{name:<{width}}  {base_str}  {opt_str}  {ratio_str}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
