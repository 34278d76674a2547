"""Turns the runner's raw measurements into the benchmark's named metrics.

Pure functions over the runner's JSON document, so the rules are tested
without a build (see test_perfbench.py):

* A percentile is reported only when at least ten samples lie beyond it;
  otherwise its value is None.
* A span's self time is its duration minus the part of it that its child
  spans cover; a layer's metric is the median self time of its spans.
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(values, q):
    """The q-quantile of `values` (0 < q < 1) and the number of samples.

    The median is statistics.median; other quantiles take the nearest rank
    ceil(q * n). The value is None unless at least MIN_BEYOND samples lie
    beyond that rank.
    """
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None, n
    if q == 0.5:
        return statistics.median(values), n
    return sorted(values)[rank - 1], n


def self_times(spans):
    """Maps span id -> self time in ns.

    `spans` holds [id, parent, request, name, start_ns, end_ns] rows. The
    children of a span may overlap one another; the part of the parent they
    cover is the length of their union, clipped to the parent.
    """
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    result = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[0]] = (end - start) - covered
    return result


def layer_self(spans, selfs, name, scale):
    """Median self time of the spans called `name`, in ns / scale, given
    the self_times() of `spans`."""
    values = [selfs[s[0]] / scale for s in spans if s[3] == name]
    return (statistics.median(values) if values else None), len(values)


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(raw):
    """The user-visible metrics of an untraced run."""
    reads = [r[0] for r in raw["reads"]]
    writes = [w[0] for w in raw["writes"]]
    ops = sum(p[1] for p in raw["passes"])
    seconds = sum(p[2] for p in raw["passes"])
    p50, n_reads = percentile(reads, 0.5)
    p99, _ = percentile(reads, 0.99)
    w50, n_writes = percentile(writes, 0.5)
    w90, _ = percentile(writes, 0.9)
    attempted = max(raw["attempted"], 1)
    return {
        "setup_s": _metric(statistics.median(raw["setup_s"]), "s",
                           len(raw["setup_s"])),
        "ops_per_s": _metric(ops / seconds, "1/s", ops),
        "query_p50_ms": _metric(p50, "ms", n_reads),
        "query_p99_ms": _metric(p99, "ms", n_reads),
        "write_p50_ms": _metric(w50, "ms", n_writes),
        "write_p90_ms": _metric(w90, "ms", n_writes),
        "peak_rss_mb": _metric(raw["peak_rss_kb"] / 1024, "MB", 1),
        "failed_share": _metric(raw["failed"] / attempted, "ratio",
                                raw["attempted"]),
    }


def _half(raw, traced):
    """ops/s and read p50 of the traced or the untraced passes."""
    passes = [p for p in raw["passes"] if bool(p[0]) == traced]
    seconds = sum(p[2] for p in passes)
    ops = sum(p[1] for p in passes)
    reads = [r[0] for r in raw["reads"] if bool(r[1]) == traced]
    p50, _ = percentile(reads, 0.5)
    return (ops / seconds if seconds > 0 else None), p50


def _overhead_pct(untraced, traced, higher_is_better):
    if untraced is None or traced is None or untraced == 0:
        return None
    change = (untraced - traced) if higher_is_better else (traced - untraced)
    return 100.0 * change / untraced


def per_layer(raw):
    """The per-layer metrics of a traced run."""
    spans = raw["spans"]
    selfs = self_times(spans)
    queries = raw["queries"]
    traced_reads = [r for r in raw["reads"] if r[1]]
    cache = raw["plan_cache"]
    lookups = cache["hits"] + cache["misses"]

    def span_metric(name, unit, scale):
        value, n = layer_self(spans, selfs, name, scale)
        return _metric(value, unit, n)

    result_rows = sum(r[3] for r in traced_reads)
    processed = sum(r[4] for r in traced_reads)
    baseline = sum(q["baseline_ms"] for q in queries)
    rewritten = sum(q["rewritten_ms"] for q in queries)
    untraced_ops, untraced_p50 = _half(raw, False)
    traced_ops, traced_p50 = _half(raw, True)
    n_queries = len(queries)
    return {
        "graph.read_text_ms": span_metric("graph.read_text", "ms", 1e6),
        "api.snapshot_build_ms": span_metric("api.snapshot_build", "ms", 1e6),
        "stats.collect_ms": span_metric("stats.collect", "ms", 1e6),
        "query.parse_us": span_metric("query.parse", "us", 1e3),
        "core.rewrite_us": span_metric("core.rewrite", "us", 1e3),
        "core.reverted_share": _metric(
            sum(q["reverted"] for q in queries) / n_queries if queries
            else None, "ratio", n_queries),
        "core.closures_eliminated": _metric(
            sum(q["closures_eliminated"] for q in queries), "count",
            n_queries),
        "core.rewrite_speedup": _metric(
            baseline / rewritten if rewritten > 0 else None, "x", n_queries),
        "ra.translate_us": span_metric("ra.translate", "us", 1e3),
        "ra.optimize_us": span_metric("ra.optimize", "us", 1e3),
        "ra.plan_nodes": _metric(
            sum(q["plan_nodes"] for q in queries) / n_queries if queries
            else None, "count", n_queries),
        "ra.execute_ms": span_metric("ra.execute", "ms", 1e6),
        "ra.rows_per_result": _metric(
            processed / result_rows if result_rows else None, "ratio",
            len(traced_reads)),
        "ra.exec_peak_mb": _metric(
            max((r[5] for r in traced_reads), default=0) / 2**20, "MB",
            len(traced_reads)),
        "api.prepare_miss_us": span_metric("api.prepare_miss", "us", 1e3),
        "api.prepare_hit_us": span_metric("api.prepare_hit", "us", 1e3),
        "api.plan_cache_hit_ratio": _metric(
            cache["hits"] / lookups if lookups else None, "ratio", lookups),
        "api.plan_cache_evictions": _metric(cache["evictions"], "count",
                                            lookups),
        "api.add_edge_us": span_metric("api.add_edge", "us", 1e3),
        "trace.ops_per_s_overhead_pct": _metric(
            _overhead_pct(untraced_ops, traced_ops, True), "%",
            len(raw["passes"])),
        "trace.query_p50_overhead_pct": _metric(
            _overhead_pct(untraced_p50, traced_p50, False), "%",
            len(raw["reads"])),
    }


def paper_view(queries):
    """The per-query table of the traced run, as printable lines."""
    lines = [
        "%-6s %11s %12s %8s %8s %4s %9s %10s %10s %10s" % (
            "query", "baseline_ms", "rewritten_ms", "speedup", "rows",
            "rev", "parse_us", "rewrite_us", "transl_us", "optim_us")]
    for q in queries:
        speedup = (q["baseline_ms"] / q["rewritten_ms"]
                   if q["rewritten_ms"] > 0 else float("nan"))
        lines.append(
            "%-6s %11.3f %12.3f %7.2fx %8d %4s %9.1f %10.1f %10.1f %10.1f" % (
                q["id"], q["baseline_ms"], q["rewritten_ms"], speedup,
                q["rows"], "yes" if q["reverted"] else "", q["parse_us"],
                q["rewrite_us"], q["translate_us"], q["optimize_us"]))
    return lines
