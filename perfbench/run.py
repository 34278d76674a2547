#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload yago_adhoc --seed 1 --seconds 30 \
        --trace 0

Builds the runner (perfbench/CMakeLists.txt, Release) under
.bench_build/perfbench on first use, runs it on the named workload, and
prints every metric by name, unit and sample count. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics, the tracing overhead
and the per-query paper view. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 ok; 2 refused (a GQOPT_* variable is set, or bad arguments);
3 a correctness check failed (the JSON line still prints, with "correct":
false); any other code, without a JSON line, when the build or the runner
failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True  # leave the source tree as checked out
import report  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
WORKLOADS = ("yago_adhoc", "ldbc_repeat", "yago_rw")
RUNNER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner (both no-ops when up to date);
    False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "perfbench_runner"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build failed:", " ".join(step))
            return False
    return True


def revision():
    """The git revision of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources the build compiles."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for pattern in ("*.cc", "*.h"):
        files += (ROOT / "src").rglob(pattern)
        files += (HERE / "runner").rglob(pattern)
    for path in sorted(set(files)):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def print_metrics(metrics):
    print("%-30s %16s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else "%.6g" % m["value"]
        print("%-30s %16s %-6s %d" % (name, value, m["unit"], m["samples"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--break-gate", action="store_true",
                        help="drop a row from one query's results, to show "
                             "that the correctness gate fails the run")
    args = parser.parse_args()
    knobs = sorted(k for k in os.environ if k.startswith("GQOPT_"))
    if knobs:
        log("perfbench: refusing to run with", ", ".join(knobs), "set: the "
            "benchmark measures library defaults")
        return 2
    if args.seconds < 1:
        log("perfbench: --seconds must be at least 1")
        return 2
    if not build():
        return 1

    out = BUILD / ("raw-%s-%d-%d-%d.json" % (args.workload, args.seed,
                                             args.trace, os.getpid()))
    command = [str(RUNNER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
    if args.break_gate:
        command.append("--break-gate")
    try:
        code = subprocess.run(command, timeout=RUNNER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: runner exceeded", RUNNER_TIMEOUT_S, "s")
        return 1
    if code not in (0, 3) or not out.exists():
        log("perfbench: runner failed with exit code", code)
        return code or 1
    raw = json.loads(out.read_text())
    out.unlink()

    prov = raw["provenance"]
    print("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d dop=%d "
          "build=%s revision=%s source=%s nodes=%d edges=%d" % (
              raw["workload"], raw["seed"], raw["seconds"], raw["trace"],
              prov["online_cpus"], prov["dop"], prov["build_type"],
              revision() or "none", source_digest(), prov["nodes"],
              prov["edges"]))
    e2e = report.end_to_end(raw)
    failed_share = e2e.pop("failed_share")
    metrics = report.per_layer(raw) if args.trace else e2e
    print_metrics({**metrics, "failed_share": failed_share})
    if args.trace:
        print("tracing overhead: ops_per_s %s%%, query_p50_ms %s%% (traced "
              "vs untraced passes of this run)" % (
                  metrics["trace.ops_per_s_overhead_pct"]["value"],
                  metrics["trace.query_p50_overhead_pct"]["value"]))
        print("paper view (medians of the stage pass; rewritten_ms is the "
              "execute stage; rewrite_speedup %s):"
              % metrics["core.rewrite_speedup"]["value"])
        for line in report.paper_view(raw["queries"]):
            print(line)
    for message in raw["failures"]:
        print("FAILED", message)
    correct = raw["failed"] == 0 and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
