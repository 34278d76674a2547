// Micro-benchmarks (google-benchmark): the cost of the rewriting pipeline
// itself (it runs at optimization time, so it must be cheap relative to
// query execution) and of the core evaluation primitives.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>

#include "algebra/path_parser.h"
#include "eval/naive_reference.h"
#include "util/exec_context.h"
#include "util/flat_hash.h"
#include "util/radix.h"
#include "util/thread_pool.h"
#include "api/database.h"
#include "api/server.h"
#include "api/stages.h"  // white-box: stage-isolating micro-benchmarks
#include "core/simplifier.h"
#include "core/type_inference.h"
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "eval/binary_relation.h"
#include "eval/graph_engine.h"
#include "query/query_parser.h"
#include "ra/catalog.h"
#include "util/rng.h"

namespace gqopt {
namespace {

void BM_RewriteYagoWorkload(benchmark::State& state) {
  GraphSchema schema = YagoSchema();
  std::vector<Ucqt> queries;
  for (const WorkloadQuery& wq : YagoWorkload()) {
    queries.push_back(*ParseWorkloadQuery(wq));
  }
  for (auto _ : state) {
    for (const Ucqt& query : queries) {
      benchmark::DoNotOptimize(RewriteQuery(query, schema));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_RewriteYagoWorkload);

void BM_RewriteLdbcWorkload(benchmark::State& state) {
  GraphSchema schema = LdbcSchema();
  std::vector<Ucqt> queries;
  for (const WorkloadQuery& wq : LdbcWorkload()) {
    queries.push_back(*ParseWorkloadQuery(wq));
  }
  for (auto _ : state) {
    for (const Ucqt& query : queries) {
      benchmark::DoNotOptimize(RewriteQuery(query, schema));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_RewriteLdbcWorkload);

void BM_InferenceClosure(benchmark::State& state) {
  GraphSchema schema = YagoSchema();
  PathExprPtr expr = *ParsePathExpr("owns/isLocatedIn+/dealsWith+");
  for (auto _ : state) {
    benchmark::DoNotOptimize(InferTriples(expr, schema));
  }
}
BENCHMARK(BM_InferenceClosure);

void BM_SimplifyFig7(benchmark::State& state) {
  PathExprPtr expr = *ParsePathExpr(
      "(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+");
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimplifyPath(expr));
  }
}
BENCHMARK(BM_SimplifyFig7);

void BM_ParseWorkloadQueries(benchmark::State& state) {
  for (auto _ : state) {
    for (const WorkloadQuery& wq : LdbcWorkload()) {
      benchmark::DoNotOptimize(ParseWorkloadQuery(wq));
    }
  }
}
BENCHMARK(BM_ParseWorkloadQueries);

BinaryRelation RandomRelation(size_t nodes, size_t edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> pairs;
  pairs.reserve(edges);
  for (size_t i = 0; i < edges; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(nodes)),
                       static_cast<NodeId>(rng.Uniform(nodes)));
  }
  return BinaryRelation::FromPairs(std::move(pairs));
}

void BM_Compose(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BinaryRelation a = RandomRelation(n, n * 4, 1);
  BinaryRelation b = RandomRelation(n, n * 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinaryRelation::Compose(a, b));
  }
}
BENCHMARK(BM_Compose)->Arg(1000)->Arg(10000);

void BM_TransitiveClosureChain(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Edge> pairs;
  for (NodeId i = 0; i + 1 < n; ++i) pairs.push_back({i, i + 1});
  BinaryRelation chain = BinaryRelation::FromPairs(std::move(pairs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinaryRelation::TransitiveClosure(chain));
  }
}
BENCHMARK(BM_TransitiveClosureChain)->Arg(64)->Arg(256);

// The BM_Naive* / BM_Seed* benchmarks below run the retained pre-CSR
// algorithms (eval/naive_reference.h, or inlined where noted) on the same
// inputs as their optimized counterparts, so one bench run yields
// machine-drift-free before/after ratios.

void BM_NaiveCompose(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BinaryRelation a = RandomRelation(n, n * 4, 1);
  BinaryRelation b = RandomRelation(n, n * 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Compose(a, b));
  }
}
BENCHMARK(BM_NaiveCompose)->Arg(1000)->Arg(10000);

void BM_TransitiveClosureRandom(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BinaryRelation r = RandomRelation(n, n * 2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinaryRelation::TransitiveClosure(r));
  }
}
BENCHMARK(BM_TransitiveClosureRandom)->Arg(512)->Arg(1024);

void BM_NaiveTransitiveClosureRandom(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BinaryRelation r = RandomRelation(n, n * 2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::TransitiveClosure(r));
  }
}
BENCHMARK(BM_NaiveTransitiveClosureRandom)->Arg(512)->Arg(1024);

void BM_SemiJoinSource(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BinaryRelation r = RandomRelation(n, n * 4, 11);
  Rng rng(13);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n / 4; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.Uniform(n)));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.SemiJoinSource(nodes));
    benchmark::DoNotOptimize(r.SemiJoinTarget(nodes));
  }
}
BENCHMARK(BM_SemiJoinSource)->Arg(10000)->Arg(100000);

void BM_NaiveSemiJoinSource(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BinaryRelation r = RandomRelation(n, n * 4, 11);
  Rng rng(13);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n / 4; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.Uniform(n)));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::SemiJoinSource(r, nodes));
    benchmark::DoNotOptimize(naive::SemiJoinTarget(r, nodes));
  }
}
BENCHMARK(BM_NaiveSemiJoinSource)->Arg(10000)->Arg(100000);

// Random two-edge-label graph for executor-level join benchmarks; a small
// SEED-labelled node population drives the seeded-closure bench.
PropertyGraph RandomJoinGraph(size_t nodes, size_t edges_per_label) {
  Rng rng(17);
  PropertyGraph graph;
  for (size_t i = 0; i < nodes; ++i) {
    graph.AddNode(i % 64 == 0 ? "SEED" : "N");
  }
  for (size_t i = 0; i < edges_per_label; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "e1",
                        static_cast<NodeId>(rng.Uniform(nodes)));
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "e2",
                        static_cast<NodeId>(rng.Uniform(nodes)));
  }
  return graph;
}

void BM_ExecHashJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 4);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                RaExpr::EdgeScan("e2", "y", "z"));
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecHashJoin)->Arg(10000)->Arg(30000);

// The seed executor's hash join verbatim (std::unordered_map from packed
// key to a per-bucket row vector), on the same edge tables as
// BM_ExecHashJoin's plan.
void BM_SeedHashJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 4);
  graph.Finalize();
  const auto& e1 = graph.EdgesByLabel("e1");  // (x, y)
  const auto& e2 = graph.EdgesByLabel("e2");  // (y, z)
  for (auto _ : state) {
    std::unordered_map<uint64_t, std::vector<uint32_t>> index;
    index.reserve(e1.size() * 2);
    for (size_t r = 0; r < e1.size(); ++r) {
      index[e1[r].second].push_back(static_cast<uint32_t>(r));
    }
    std::vector<NodeId> out;
    for (size_t p = 0; p < e2.size(); ++p) {
      auto it = index.find(e2[p].first);
      if (it == index.end()) continue;
      for (uint32_t b : it->second) {
        out.push_back(e1[b].first);
        out.push_back(e1[b].second);
        out.push_back(e2[p].second);
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SeedHashJoin)->Arg(10000)->Arg(30000);

// The current flat-hash join on identical inputs to BM_SeedHashJoin,
// without plan/scan overhead — the like-for-like counterpart.
void BM_FlatHashJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 4);
  graph.Finalize();
  const auto& e1 = graph.EdgesByLabel("e1");
  const auto& e2 = graph.EdgesByLabel("e2");
  for (auto _ : state) {
    std::vector<uint64_t> keys(e1.size());
    for (size_t r = 0; r < e1.size(); ++r) keys[r] = e1[r].second;
    FlatJoinIndex index(keys);
    std::vector<NodeId> out;
    for (size_t p = 0; p < e2.size(); ++p) {
      auto [it, end] = index.Equal(e2[p].first);
      for (; it != end; ++it) {
        out.push_back(e1[*it].first);
        out.push_back(e1[*it].second);
        out.push_back(e2[p].second);
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FlatHashJoin)->Arg(10000)->Arg(30000);

// The executor's dense-offset join fast path on identical inputs: e2 is
// sorted on the join column, so an offset array replaces hashing.
void BM_OffsetJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 4);
  graph.Finalize();
  const auto& e1 = graph.EdgesByLabel("e1");
  const auto& e2 = graph.EdgesByLabel("e2");
  std::shared_ptr<const CsrView> e2_csr = graph.ForwardCsr("e2");
  for (auto _ : state) {
    const CsrView& csr = *e2_csr;
    std::vector<NodeId> out;
    for (size_t p = 0; p < e1.size(); ++p) {
      auto [lo, hi] = csr.Range(e1[p].second);
      for (uint32_t i = lo; i < hi; ++i) {
        out.push_back(e1[p].first);
        out.push_back(e1[p].second);
        out.push_back(e2[i].second);
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OffsetJoin)->Arg(10000)->Arg(30000);

// ---- Join-strategy counterparts -------------------------------------------
// Radix-partitioned vs single-table flat-hash join on identical unsorted
// two-column-key inputs (uniform or probe-skewed), and sort-merge vs hash
// on identical sorted inputs. tools/bench_diff.py pairs these entries
// within one BENCH_micro.json snapshot for machine-drift-free ratios.

struct KeyedRows {
  std::vector<NodeId> data;    // row-major (a, b, payload)
  std::vector<uint64_t> keys;  // packed (a, b) join keys, one per row
};

// `domain` is the per-component key range; domain^2 ~ rows gives ~one
// match per probe. `skew` concentrates keys on the low ids (probe side
// only in the benchmarks, so the output stays ~rows).
KeyedRows MakeKeyedRows(size_t rows, uint32_t domain, bool skew,
                        uint64_t seed) {
  Rng rng(seed);
  KeyedRows t;
  t.data.reserve(rows * 3);
  t.keys.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    uint32_t a = static_cast<uint32_t>(skew ? rng.Skewed(domain)
                                            : rng.Uniform(domain));
    uint32_t b = static_cast<uint32_t>(skew ? rng.Skewed(domain)
                                            : rng.Uniform(domain));
    t.data.push_back(a);
    t.data.push_back(b);
    t.data.push_back(static_cast<NodeId>(rng.Uniform(1u << 30)));
    t.keys.push_back((static_cast<uint64_t>(a) << 32) | b);
  }
  return t;
}

// Sorts the rows by packed key (ties in arbitrary order): merge-join input.
void SortKeyedRows(KeyedRows* t) {
  size_t rows = t->keys.size();
  std::vector<uint32_t> order(rows);
  for (uint32_t i = 0; i < rows; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [t](uint32_t x, uint32_t y) {
    return t->keys[x] < t->keys[y];
  });
  KeyedRows sorted;
  sorted.data.reserve(rows * 3);
  sorted.keys.reserve(rows);
  for (uint32_t r : order) {
    sorted.data.insert(sorted.data.end(), t->data.begin() + r * 3,
                       t->data.begin() + r * 3 + 3);
    sorted.keys.push_back(t->keys[r]);
  }
  *t = std::move(sorted);
}

uint32_t KeyDomainFor(size_t rows) {
  uint32_t domain = 1;
  while (static_cast<uint64_t>(domain) * domain < rows) domain <<= 1;
  return domain;
}

inline void EmitJoinRow(const KeyedRows& build, uint32_t b,
                        const KeyedRows& probe, uint32_t p,
                        std::vector<NodeId>* out) {
  out->push_back(build.data[b * 3]);
  out->push_back(build.data[b * 3 + 1]);
  out->push_back(build.data[b * 3 + 2]);
  out->push_back(probe.data[p * 3 + 2]);
}

void BM_JoinFlatHashMultiKey(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool skew = state.range(1) != 0;
  uint32_t domain = KeyDomainFor(n);
  KeyedRows build = MakeKeyedRows(n, domain, false, 101);
  KeyedRows probe = MakeKeyedRows(n, domain, skew, 102);
  for (auto _ : state) {
    FlatJoinIndex index(build.keys);
    std::vector<NodeId> out;
    out.reserve(n * 4);
    for (uint32_t p = 0; p < n; ++p) {
      auto [it, end] = index.Equal(probe.keys[p]);
      for (; it != end; ++it) EmitJoinRow(build, *it, probe, p, &out);
    }
    benchmark::DoNotOptimize(out);
    state.counters["out_rows"] = static_cast<double>(out.size() / 4);
  }
}
BENCHMARK(BM_JoinFlatHashMultiKey)
    ->Args({1 << 18, 0})
    ->Args({1 << 20, 0})
    ->Args({1 << 23, 0})
    ->Args({1 << 23, 1});

void BM_JoinRadixMultiKey(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool skew = state.range(1) != 0;
  uint32_t domain = KeyDomainFor(n);
  KeyedRows build = MakeKeyedRows(n, domain, false, 101);
  KeyedRows probe = MakeKeyedRows(n, domain, skew, 102);
  for (auto _ : state) {
    int bits = RadixBitsFor(n);
    RadixPartitions bparts, pparts;
    BuildRadixPartitions(build.keys, bits, Deadline(), &bparts,
                         build.data.data(), 3);
    BuildRadixPartitions(probe.keys, bits, Deadline(), &pparts,
                         probe.data.data(), 3);
    std::vector<NodeId> out;
    out.reserve(n * 4);
    std::vector<uint64_t> part_keys;
    for (size_t part = 0; part < bparts.partitions(); ++part) {
      uint32_t bb = bparts.offsets[part], be = bparts.offsets[part + 1];
      uint32_t pb = pparts.offsets[part], pe = pparts.offsets[part + 1];
      if (bb == be || pb == pe) continue;
      part_keys.resize(be - bb);
      for (uint32_t i = bb; i < be; ++i) {
        const NodeId* brow = bparts.Row(i);
        part_keys[i - bb] = (static_cast<uint64_t>(brow[0]) << 32) | brow[1];
      }
      FlatJoinIndex index(part_keys.data(), part_keys.size());
      for (uint32_t p = pb; p < pe; ++p) {
        const NodeId* prow = pparts.Row(p);
        uint64_t key = (static_cast<uint64_t>(prow[0]) << 32) | prow[1];
        auto [it, end] = index.Equal(key);
        for (; it != end; ++it) {
          const NodeId* brow = bparts.Row(bb + *it);
          out.push_back(brow[0]);
          out.push_back(brow[1]);
          out.push_back(brow[2]);
          out.push_back(prow[2]);
        }
      }
    }
    benchmark::DoNotOptimize(out);
    state.counters["out_rows"] = static_cast<double>(out.size() / 4);
  }
}
BENCHMARK(BM_JoinRadixMultiKey)
    ->Args({1 << 18, 0})
    ->Args({1 << 20, 0})
    ->Args({1 << 23, 0})
    ->Args({1 << 23, 1});

// ---- Parallel counterparts ------------------------------------------------
// The radix join kernel driven through the parallel primitives (chunked
// scatter + per-partition ParallelFor) and the parallel closure rounds, at
// dop ∈ {1, 2, 4} on identical inputs. tools/bench_diff.py reports each
// dop > 1 entry against its dop = 1 sibling in the same snapshot. Note
// the CI box is a 1-core VM: there the dop > 1 entries measure morsel
// overhead, not speedup — see ROADMAP.

void BM_JoinRadixParallel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int dop = static_cast<int>(state.range(1));
  uint32_t domain = KeyDomainFor(n);
  KeyedRows build = MakeKeyedRows(n, domain, false, 101);
  KeyedRows probe = MakeKeyedRows(n, domain, false, 102);
  ThreadPool pool(3);
  ExecContext ctx;
  ctx.dop = dop;
  ctx.pool = &pool;
  for (auto _ : state) {
    int bits = RadixBitsFor(n);
    RadixPartitions bparts, pparts;
    BuildRadixPartitionsParallel(build.keys, bits, ctx, &bparts,
                                 build.data.data(), 3);
    BuildRadixPartitionsParallel(probe.keys, bits, ctx, &pparts,
                                 probe.data.data(), 3);
    size_t parts = bparts.partitions();
    int par = ctx.EffectiveDop(n);
    size_t grain = ParallelGrain(parts, par, 1);
    std::vector<std::vector<NodeId>> outs((parts + grain - 1) / grain);
    ParallelFor(
        ctx.TaskPool(), par, parts, grain, Deadline(),
        [&](size_t part_begin, size_t part_end) {
          std::vector<NodeId>& out = outs[part_begin / grain];
          std::vector<uint64_t> part_keys;
          for (size_t part = part_begin; part < part_end; ++part) {
            uint32_t bb = bparts.offsets[part], be = bparts.offsets[part + 1];
            uint32_t pb = pparts.offsets[part], pe = pparts.offsets[part + 1];
            if (bb == be || pb == pe) continue;
            part_keys.resize(be - bb);
            for (uint32_t i = bb; i < be; ++i) {
              const NodeId* brow = bparts.Row(i);
              part_keys[i - bb] =
                  (static_cast<uint64_t>(brow[0]) << 32) | brow[1];
            }
            FlatJoinIndex index(part_keys.data(), part_keys.size());
            for (uint32_t p = pb; p < pe; ++p) {
              const NodeId* prow = pparts.Row(p);
              uint64_t key = (static_cast<uint64_t>(prow[0]) << 32) | prow[1];
              auto [it, end] = index.Equal(key);
              for (; it != end; ++it) {
                const NodeId* brow = bparts.Row(bb + *it);
                out.push_back(brow[0]);
                out.push_back(brow[1]);
                out.push_back(brow[2]);
                out.push_back(prow[2]);
              }
            }
          }
          return true;
        });
    size_t total = 0;
    for (const std::vector<NodeId>& o : outs) total += o.size();
    benchmark::DoNotOptimize(outs);
    state.counters["out_rows"] = static_cast<double>(total / 4);
  }
}
BENCHMARK(BM_JoinRadixParallel)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 2})
    ->Args({1 << 22, 4})
    ->Args({1 << 23, 1})
    ->Args({1 << 23, 4});

void BM_ClosureParallel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int dop = static_cast<int>(state.range(1));
  BinaryRelation r = RandomRelation(n, n * 2, 7);
  ThreadPool pool(3);
  ExecContext ctx;
  ctx.dop = dop;
  ctx.pool = &pool;
  // Early rounds have small deltas; lower the degrade threshold so the
  // bulk of the expansion runs parallel.
  ctx.parallel_min_rows = size_t{1} << 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinaryRelation::TransitiveClosure(r, ctx));
  }
}
BENCHMARK(BM_ClosureParallel)
    ->Args({2048, 1})
    ->Args({2048, 2})
    ->Args({2048, 4});

void BM_JoinHashSorted(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t domain = KeyDomainFor(n);
  KeyedRows build = MakeKeyedRows(n, domain, false, 103);
  KeyedRows probe = MakeKeyedRows(n, domain, false, 104);
  SortKeyedRows(&build);
  SortKeyedRows(&probe);
  for (auto _ : state) {
    FlatJoinIndex index(build.keys);
    std::vector<NodeId> out;
    for (uint32_t p = 0; p < n; ++p) {
      auto [it, end] = index.Equal(probe.keys[p]);
      for (; it != end; ++it) EmitJoinRow(build, *it, probe, p, &out);
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JoinHashSorted)->Arg(1 << 18)->Arg(1 << 20);

void BM_JoinMergeSorted(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t domain = KeyDomainFor(n);
  KeyedRows build = MakeKeyedRows(n, domain, false, 103);
  KeyedRows probe = MakeKeyedRows(n, domain, false, 104);
  SortKeyedRows(&build);
  SortKeyedRows(&probe);
  for (auto _ : state) {
    std::vector<NodeId> out;
    uint32_t l = 0, r = 0;
    while (l < n && r < n) {
      uint64_t lk = probe.keys[l], rk = build.keys[r];
      if (lk < rk) {
        ++l;
      } else if (lk > rk) {
        ++r;
      } else {
        uint32_t le = l + 1;
        while (le < n && probe.keys[le] == lk) ++le;
        uint32_t re = r + 1;
        while (re < n && build.keys[re] == rk) ++re;
        for (uint32_t li = l; li < le; ++li) {
          for (uint32_t ri = r; ri < re; ++ri) {
            EmitJoinRow(build, ri, probe, li, &out);
          }
        }
        l = le;
        r = re;
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JoinMergeSorted)->Arg(1 << 18)->Arg(1 << 20);

void BM_ExecSemiJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 4);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::SemiJoin(RaExpr::EdgeScan("e1", "x", "y"),
                                    RaExpr::EdgeScan("e2", "y", "z"));
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecSemiJoin)->Arg(10000)->Arg(30000);

void BM_ExecSeededClosure(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 2);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::TransitiveClosure(
      RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
      RaExpr::NodeScan({"SEED"}, "s"), SeedSide::kSource);
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecSeededClosure)->Arg(1024)->Arg(4096);

void BM_NaiveSeededClosure(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 2);
  graph.Finalize();
  BinaryRelation base = BinaryRelation::FromSortedUnique(
      graph.EdgesByLabel("e1"), graph.ForwardCsr("e1"));
  std::vector<NodeId> seeds = graph.NodesWithLabel("SEED");
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::SeededClosure(base, seeds, true));
  }
}
BENCHMARK(BM_NaiveSeededClosure)->Arg(1024)->Arg(4096);

void BM_ExecMemoizedUnion(benchmark::State& state) {
  // Two disjuncts identical up to column renaming: the second is a memo
  // hit whose cost is the relabel (a full data copy before zero-copy
  // sharing, a constant-time relabel after).
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 4);
  Catalog catalog(graph);
  RaExprPtr left = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                RaExpr::EdgeScan("e2", "y", "z"));
  RaExprPtr right = RaExpr::Join(RaExpr::EdgeScan("e1", "a", "b"),
                                 RaExpr::EdgeScan("e2", "b", "c"));
  RaExprPtr plan = RaExpr::Union(
      RaExpr::Project(left, {{"x", "u"}, {"z", "v"}}),
      RaExpr::Project(right, {{"a", "u"}, {"c", "v"}}));
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecMemoizedUnion)->Arg(10000);

void BM_RelationalY6(benchmark::State& state) {
  YagoConfig config;
  config.persons = 1000;
  PropertyGraph graph = GenerateYago(config);
  Catalog catalog(graph);
  Ucqt query = *ParseUcqt("x1, x2 <- (x1, owns/isLocatedIn+, x2)");
  RaExprPtr plan = OptimizePlan(*UcqtToRa(query), catalog);
  Executor executor(catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(plan));
  }
}
BENCHMARK(BM_RelationalY6);

void BM_GraphEngineY6(benchmark::State& state) {
  YagoConfig config;
  config.persons = 1000;
  PropertyGraph graph = GenerateYago(config);
  GraphEngine engine(graph);
  Ucqt query = *ParseUcqt("x1, x2 <- (x1, owns/isLocatedIn+, x2)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(query));
  }
}
BENCHMARK(BM_GraphEngineY6);

void BM_LdbcGeneration(benchmark::State& state) {
  for (auto _ : state) {
    LdbcConfig config;
    config.persons = static_cast<size_t>(state.range(0));
    benchmark::DoNotOptimize(GenerateLdbc(config));
  }
}
BENCHMARK(BM_LdbcGeneration)->Arg(100)->Arg(500);

// ---- Cost-based DP planner (src/ra/planner) -------------------------------

// Planning wall time of the DP join enumerator on an N-relation chain
// cluster (the acceptance budget: a 10-relation cluster under 50 ms).
// The catalog statistics are warmed outside the loop so the measurement
// isolates enumeration, not stat collection.
void BM_PlanEnumeration(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(13);
  PropertyGraph graph;
  for (size_t i = 0; i < 2000; ++i) graph.AddNode("N");
  for (int rel = 0; rel < n; ++rel) {
    std::string label = "e" + std::to_string(rel);
    for (size_t i = 0; i < 4000; ++i) {
      (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(2000)), label,
                          static_cast<NodeId>(rng.Uniform(2000)));
    }
  }
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::EdgeScan("e0", "c0", "c1");
  for (int rel = 1; rel < n; ++rel) {
    plan = RaExpr::Join(plan,
                        RaExpr::EdgeScan("e" + std::to_string(rel),
                                         "c" + std::to_string(rel),
                                         "c" + std::to_string(rel + 1)));
  }
  OptimizerOptions options;
  options.planner = PlannerKind::kDp;
  benchmark::DoNotOptimize(OptimizePlan(plan, catalog, options));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizePlan(plan, catalog, options));
  }
}
BENCHMARK(BM_PlanEnumeration)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

// End-to-end join-order quality, DP vs greedy, on the interesting-order
// cluster (two merge-joinable "big" relations plus a small connector):
// greedy starts from the small relation, buries the sorted prefix and
// hashes; DP keeps big1 |><| big2 sorted and merges. Same process, same
// inputs — the pair is a drift-free counterpart in bench_diff.py.
PropertyGraph OrderQualityGraph() {
  Rng rng(7);
  PropertyGraph graph;
  constexpr size_t kNodes = 50000;
  for (size_t i = 0; i < kNodes; ++i) graph.AddNode("N");
  for (size_t i = 0; i < 300000; ++i) {
    NodeId a = static_cast<NodeId>(rng.Uniform(kNodes));
    NodeId b = static_cast<NodeId>(rng.Uniform(kNodes));
    (void)graph.AddEdge(a, "big1", b);
    (void)graph.AddEdge(a, "big2", b);
  }
  for (size_t i = 0; i < 60000; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(kNodes)), "small",
                        static_cast<NodeId>(rng.Uniform(kNodes)));
  }
  graph.Finalize();
  return graph;
}

void RunOrderQuality(benchmark::State& state, PlannerKind planner) {
  PropertyGraph graph = OrderQualityGraph();
  Catalog catalog(graph);
  RaExprPtr cluster = RaExpr::Join(
      RaExpr::Join(RaExpr::EdgeScan("small", "b", "c"),
                   RaExpr::EdgeScan("big1", "a", "b")),
      RaExpr::EdgeScan("big2", "a", "b"));
  OptimizerOptions options;
  options.planner = planner;
  RaExprPtr plan = OptimizePlan(cluster, catalog, options);
  Executor executor(catalog);
  size_t rows = 0;
  for (auto _ : state) {
    auto result = executor.Run(plan);
    if (result.ok()) rows = result->rows();
    benchmark::DoNotOptimize(result);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}

void BM_JoinOrderQualityDP(benchmark::State& state) {
  RunOrderQuality(state, PlannerKind::kDp);
}
BENCHMARK(BM_JoinOrderQualityDP);

void BM_JoinOrderQualityGreedy(benchmark::State& state) {
  RunOrderQuality(state, PlannerKind::kGreedy);
}
BENCHMARK(BM_JoinOrderQualityGreedy);

// ---- Plan-cache payoff (api::Database facade) ------------------------------
//
// BM_PreparedVsCold serves a query through the facade's plan cache (one
// cache lookup + execution); BM_ColdPrepare runs the full cold pipeline
// (parse + schema rewrite + UCQT2RRA + optimize + execute) on the same
// query in the same process. Small-result workload queries keep execution
// cheap so the prepare overhead is visible; the bench_diff.py pair prints
// the drift-free speedup ratio.

struct PreparedBenchCase {
  const char* name;
  bool ldbc;  // which of the two databases below the query runs on
  const char* query;
};

constexpr PreparedBenchCase kPreparedBenchCases[] = {
    {"yago-owns-located", false, "x1, x2 <- (x1, owns/isLocatedIn, x2)"},
    {"yago-lives-closure", false,
     "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"},
    {"ldbc-work-located", true, "x1, x2 <- (x1, workAt/isLocatedIn, x2)"},
    {"ldbc-reply-closure", true, "x1, x2 <- (x1, replyOf+, x2)"},
};

api::Database& PreparedBenchDatabase(bool ldbc) {
  // Leaked singletons: google-benchmark runs each benchmark many times
  // and the graphs must not be regenerated per run.
  static api::Database* yago =
      new api::Database(YagoSchema(), GenerateYago({.persons = 300}));
  static api::Database* ldbc_db =
      new api::Database(LdbcSchema(), GenerateLdbc({.persons = 150}));
  return ldbc ? *ldbc_db : *yago;
}

void BM_PreparedVsCold(benchmark::State& state) {
  const PreparedBenchCase& bench_case =
      kPreparedBenchCases[state.range(0)];
  api::Database& db = PreparedBenchDatabase(bench_case.ldbc);
  api::ExecOptions options;  // explicit defaults; cache on
  db.set_plan_cache_enabled(true);
  api::Session session(db, options);
  // Warm the cache once; every iteration below is the serving fast path
  // (normalized-text lookup hit + execute).
  auto warm = db.Prepare(bench_case.query, options);
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  size_t rows = 0;
  for (auto _ : state) {
    auto result = session.Query(bench_case.query);
    if (result.ok()) rows = result->rows();
    benchmark::DoNotOptimize(result);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
  state.SetLabel(bench_case.name);
}
BENCHMARK(BM_PreparedVsCold)->DenseRange(0, 3);

void BM_ColdPrepare(benchmark::State& state) {
  const PreparedBenchCase& bench_case =
      kPreparedBenchCases[state.range(0)];
  api::Database& db = PreparedBenchDatabase(bench_case.ldbc);
  api::ExecOptions options;
  options.use_plan_cache = false;  // cold: parse/rewrite/plan every time
  api::Session session(db, options);
  size_t rows = 0;
  for (auto _ : state) {
    auto result = session.Query(bench_case.query);
    if (result.ok()) rows = result->rows();
    benchmark::DoNotOptimize(result);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
  state.SetLabel(bench_case.name);
}
BENCHMARK(BM_ColdPrepare)->DenseRange(0, 3);

// ---- Serving-layer throughput (api::Server) --------------------------------
//
// End-to-end requests through the concurrent serving layer: admission,
// deadline bookkeeping, worker hand-off, prepare (cache hit or full cold
// pipeline) and execution. google-benchmark's own thread fan-out supplies
// the concurrent clients, so the Cached/Cold pair at {1,2,4} client
// threads shows both the serving overhead over a bare Session::Query and
// how the snapshot-swapped caches behave under contention. UseRealTime:
// clients block on the server's worker pool, so wall clock — not the
// client thread's own CPU — is the meaningful axis.

api::Server& ServingBenchServer() {
  // Leaked singleton (see PreparedBenchDatabase): one server, its worker
  // pool and its database survive across all benchmark runs and threads.
  static api::Server* server = [] {
    api::ServerOptions options;
    options.workers = 4;
    options.queue_capacity = 64;  // never shed: this measures throughput
    return new api::Server(PreparedBenchDatabase(false), options);
  }();
  return *server;
}

void RunServingThroughput(benchmark::State& state, bool use_cache) {
  api::Server& server = ServingBenchServer();
  api::ExecOptions options;
  options.use_plan_cache = use_cache;
  if (state.thread_index() == 0 && use_cache) {
    // Warm once so every timed iteration is the cached serving path.
    auto warm = server.database().Prepare(kPreparedBenchCases[0].query,
                                          options);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }
  uint64_t failures = 0;
  for (auto _ : state) {
    auto response = server.Query(kPreparedBenchCases[0].query, options);
    if (!response.result.ok()) ++failures;
    benchmark::DoNotOptimize(response);
  }
  state.counters["failures"] = static_cast<double>(failures);
  state.SetLabel(kPreparedBenchCases[0].name);
}

void BM_ServingThroughputCached(benchmark::State& state) {
  RunServingThroughput(state, /*use_cache=*/true);
}
BENCHMARK(BM_ServingThroughputCached)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_ServingThroughputCold(benchmark::State& state) {
  RunServingThroughput(state, /*use_cache=*/false);
}
BENCHMARK(BM_ServingThroughputCold)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// ---- memory governance ----------------------------------------------------
// Charge/Release through a child tracker with a bounded root: the hot-path
// cost every tracked container doubling pays. Multi-threaded runs measure
// contention on the shared root through the chunked refill.

void BM_MemTrackerCharge(benchmark::State& state) {
  static MemoryTracker root(int64_t{4} << 30, "bench-root");
  MemoryTracker query(0, "bench-query", &root);
  const int64_t bytes = state.range(0);
  for (auto _ : state) {
    bool ok = query.Charge(bytes);
    benchmark::DoNotOptimize(ok);
    query.Release(bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTrackerCharge)
    ->Arg(1024)
    ->Arg(1 << 20)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// ---- top-k / ORDER BY / LIMIT ---------------------------------------------
// The asymptotic-win family: a bounded heap is O(n log k) against the
// baseline's O(n log n) full sort, so at fixed k the speedup must GROW
// with the input size. Args are {rows, skewed}: uniform edge targets and
// a skew toward low node ids (dense duplicate groups stress the heap's
// tie handling). The baseline executes the unfused Limit(Sort(x)) plan —
// a full sort followed by truncation — on identical inputs in the same
// process, so tools/bench_diff.py ratios are machine-drift-free.

constexpr size_t kTopKBenchK = 64;

PropertyGraph TopKBenchGraph(size_t edges, bool skewed) {
  Rng rng(29);
  size_t nodes = edges / 4 + 64;
  PropertyGraph graph;
  for (size_t i = 0; i < nodes; ++i) {
    graph.AddNode(i % 64 == 0 ? "SEED" : "N");
  }
  for (size_t i = 0; i < edges; ++i) {
    NodeId src = static_cast<NodeId>(rng.Uniform(nodes));
    NodeId tgt = skewed
                     ? static_cast<NodeId>(rng.Uniform(rng.Uniform(nodes) + 1))
                     : static_cast<NodeId>(rng.Uniform(nodes));
    (void)graph.AddEdge(src, "e1", tgt);
  }
  return graph;
}

// Projection-swapped scan: columns (x, y) with x the edge target, so the
// input reaches the ordered operator unsorted on its key.
RaExprPtr UnsortedScan() {
  return RaExpr::Project(RaExpr::EdgeScan("e1", "y", "x"),
                         {{"x", "x"}, {"y", "y"}});
}

void BM_TopKVsSortAll(benchmark::State& state) {
  PropertyGraph graph = TopKBenchGraph(
      static_cast<size_t>(state.range(0)), state.range(1) != 0);
  Catalog catalog(graph);
  RaExprPtr plan =
      RaExpr::TopK(UnsortedScan(), {{"x", false}}, kTopKBenchK);
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopKVsSortAll)
    ->Args({1 << 18, 0})
    ->Args({1 << 20, 0})
    ->Args({1 << 23, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 20, 1})
    ->Args({1 << 23, 1});

void BM_SortAllThenTruncate(benchmark::State& state) {
  PropertyGraph graph = TopKBenchGraph(
      static_cast<size_t>(state.range(0)), state.range(1) != 0);
  Catalog catalog(graph);
  // Unfused: full sort, then truncate (what Limit(Sort(x)) executes
  // when the optimizer's TopK fusion is bypassed).
  RaExprPtr plan = RaExpr::Limit(
      RaExpr::Sort(UnsortedScan(), {{"x", false}}), kTopKBenchK);
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortAllThenTruncate)
    ->Args({1 << 18, 0})
    ->Args({1 << 20, 0})
    ->Args({1 << 23, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 20, 1})
    ->Args({1 << 23, 1});

// Seeded-closure top-k: the frontier prune must skip real work (the
// "pruned" counter is the number of frontier entries + candidate pairs
// dropped — asserted non-zero, so the pair never silently degrades into
// measuring two identical executions).

void BM_ClosureTopKPruned(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 2);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::TopK(
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
                                RaExpr::NodeScan({"SEED"}, "s"),
                                SeedSide::kSource),
      {{"s", false}}, 8);
  Executor executor(catalog);
  for (auto _ : state) {
    auto result = executor.Run(plan);
    benchmark::DoNotOptimize(result);
  }
  if (executor.topk_pruned_frontier() == 0) {
    state.SkipWithError("closure top-k prune skipped no frontier entries");
    return;
  }
  state.counters["pruned"] =
      static_cast<double>(executor.topk_pruned_frontier());
}
BENCHMARK(BM_ClosureTopKPruned)->Arg(1024)->Arg(4096);

void BM_ClosureTopKFull(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph graph = RandomJoinGraph(n, n * 2);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::TopK(
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
                                RaExpr::NodeScan({"SEED"}, "s"),
                                SeedSide::kSource),
      {{"s", false}}, 8);
  Executor executor(catalog);
  ExecContext ctx;
  ctx.topk_pruning = false;  // full fixpoint feeding the bounded heap
  for (auto _ : state) {
    auto result = executor.Run(plan, ctx);
    benchmark::DoNotOptimize(result);
  }
  if (executor.topk_pruned_frontier() != 0) {
    state.SkipWithError("pruning fired with the knob off");
  }
}
BENCHMARK(BM_ClosureTopKFull)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace gqopt
