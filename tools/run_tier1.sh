#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the test suite, and refresh
# the micro-benchmark JSON snapshot (BENCH_micro.json at the repo root).
#
# Usage: tools/run_tier1.sh [--no-bench] [--tsan] [--asan] [--topk]
#
# The query knobs GQOPT_DOP and GQOPT_PLAN_CACHE have one reader,
# api::ExecOptions::FromEnv(). The suites that plan or execute set dop
# and plan-cache use themselves, so the plain ctest run covers serial
# and dop-4 execution and uncached prepares on any core count. The env
# legs below re-run only the suites that build their options with
# FromEnv() (api, end_to_end, serving), once per non-default knob value:
# GQOPT_DOP=4 and GQOPT_PLAN_CACHE=0.
#
# --tsan builds the concurrency suites under ThreadSanitizer (its own
# build-tsan/ tree, benches off) and runs them, then the serving suite
# once more at GQOPT_DOP=4: the serving layer's stress/storm tests must
# come back with zero reported races. It replaces the normal run — do
# both for a full verification.
#
# --asan builds under ASan+UBSan (its own build-asan/ tree, benches off)
# and runs the memory-governance surface — the tracker, budget-enforcement
# and serving suites, so every "resource:" abort path comes back with zero
# heap misuse or arithmetic UB — plus the closure suites, so the closure
# kernel's dedup-set indexing and morsel buffers run under the sanitizers
# too, then the serving suite at GQOPT_DOP=4. Also replaces the normal
# run.
#
# --topk is a fast smoke target: build, then run only the ordering
# suites (differential + randomized property + parser + optimizer), which
# cover the dop / plan-cache matrix themselves. Useful while
# iterating on the Sort/Limit/TopK operators; a full run still covers
# everything.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

run_bench=1
run_tsan=0
run_asan=0
run_topk=0
for arg in "$@"; do
  case "$arg" in
    --no-bench) run_bench=0 ;;
    --tsan) run_tsan=1 ;;
    --asan) run_asan=1 ;;
    --topk) run_topk=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$run_topk" -eq 1 ]]; then
  cmake -B build -S . -DGQOPT_BUILD_EXAMPLES=ON
  cmake --build build -j "$(nproc)"
  ctest --test-dir build --output-on-failure \
    -R '(topk_differential|topk_property|ucqt|optimizer)_test'
  echo "top-k smoke subset passed"
  exit 0
fi

if [[ "$run_tsan" -eq 1 ]]; then
  # The concurrency surface: the serving layer, the differential suites
  # that run executors serial and at dop=4, and the pool itself.
  cmake -B build-tsan -S . -DGQOPT_SANITIZE=thread \
    -DGQOPT_BUILD_BENCHES=OFF -DGQOPT_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure \
    -R '(serving|api|delta_differential|parallel_differential|csr_differential|topk_differential|topk_property|thread_pool)_test'
  # The serving storms build their options with FromEnv(): run them at
  # dop=4 too.
  GQOPT_DOP=4 ctest --test-dir build-tsan --output-on-failure \
    -R 'serving_test'
  echo "TSan tier-1 subset passed (build-tsan/)"
  exit 0
fi

if [[ "$run_asan" -eq 1 ]]; then
  # The memory-governance surface: the tracker itself, the typed
  # budget-breach paths through the executor/facade, and the serving
  # storm that exercises admission + degradation under a tight budget;
  # then the closure suites (serial, parallel, overlay and incremental).
  cmake -B build-asan -S . -DGQOPT_SANITIZE=address \
    -DGQOPT_BUILD_BENCHES=OFF -DGQOPT_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$(nproc)"
  # topk_differential/topk_property cover the bounded-heap operator's
  # index buffers and the closure frontier prune under ASan.
  ctest --test-dir build-asan --output-on-failure \
    -R '(mem_tracker|memory_governance|serving|api|topk_differential|topk_property|csr_differential|parallel_differential|delta_differential|inc)_test'
  GQOPT_DOP=4 ctest --test-dir build-asan --output-on-failure \
    -R 'serving_test'
  echo "ASan+UBSan tier-1 subset passed (build-asan/)"
  exit 0
fi

# Examples are part of tier-1 (ctest runs each one); force them on in
# case a stale CMake cache still has GQOPT_BUILD_EXAMPLES=OFF.
cmake -B build -S . -DGQOPT_BUILD_EXAMPLES=ON
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# The FromEnv() suites once per non-default query knob. api_test reads
# GQOPT_DOP but pins use_plan_cache, so the cache leg leaves it out.
GQOPT_DOP=4 ctest --test-dir build --output-on-failure \
  -R '(api|end_to_end|serving)_test'
GQOPT_PLAN_CACHE=0 ctest --test-dir build --output-on-failure \
  -R '(end_to_end|serving)_test'

# The repo benchmark's own tests (perfbench/): they build the runner
# against the Database facade and run its correctness gate end to end, so
# a facade change that breaks the runner fails tier-1. The runner refuses
# any GQOPT_* variable, so the leg runs with them unset.
(
  for knob in $(compgen -v GQOPT_); do unset "$knob"; done
  python3 perfbench/test_perfbench.py
)

if [[ "$run_bench" -eq 1 ]]; then
  if [[ -x build/bench_micro ]]; then
    # The interesting subset: evaluation-core primitives with their
    # retained naive counterparts for drift-free before/after ratios.
    ./build/bench_micro \
      --benchmark_filter='Compose|Closure|SemiJoinSource|Join|DistinctColumn|SortUniqueColumn|DistinctNestedUnion|ConcatSortUnion|MemoizedUnion|PlanEnumeration|PreparedVsCold|ColdPrepare|ServingThroughput|TopK|SortAll' \
      --benchmark_min_time=0.2 \
      --json=BENCH_micro.json
    # A run that silently produced no snapshot (or a truncated one) must
    # fail the tier-1 run, not leave a stale file pretending to be fresh.
    if [[ ! -s BENCH_micro.json ]]; then
      echo "bench_micro produced no snapshot at BENCH_micro.json" >&2
      exit 1
    fi
    echo "wrote $repo_root/BENCH_micro.json"
    if command -v python3 >/dev/null; then
      # Same-snapshot counterpart ratios (the ROADMAP methodology);
      # bench_diff exits non-zero on a malformed/unpaired snapshot and
      # that failure propagates (set -e) — no '|| true' safety blanket.
      python3 tools/bench_diff.py BENCH_micro.json
    fi
  else
    echo "bench_micro not built (google-benchmark missing?); skipping" >&2
  fi
fi
