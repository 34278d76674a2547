// Shared fixtures reproducing the paper's running example: the Fig 1 YAGO
// schema (5 node labels, 7 edges) and the Fig 2 YAGO database instance
// (7 nodes, 9 edges). Node ids follow the paper's n1..n7 as 0..6. Plus
// ScopedEnv, for the suites that test environment knobs, and the closure
// range-split case shared by the differential suites.

#ifndef GQOPT_TESTS_TEST_FIXTURES_H_
#define GQOPT_TESTS_TEST_FIXTURES_H_

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "eval/binary_relation.h"
#include "graph/property_graph.h"
#include "schema/graph_schema.h"
#include "util/rng.h"

namespace gqopt {
namespace testing {

/// Sets an environment variable and restores its previous value (or
/// unsets it) on scope exit, so a test of an environment knob cannot leak
/// the knob into later tests or override the value a tier-1 leg set.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// The Fig 1 schema: PERSON, CITY, PROPERTY, REGION, COUNTRY with
/// isMarriedTo, livesIn, owns, isLocatedIn (x3) and dealsWith.
inline GraphSchema Fig1Schema() {
  GraphSchema schema;
  (void)schema.AddProperty("PERSON", "name", PropertyType::kString);
  (void)schema.AddProperty("PERSON", "age", PropertyType::kInt);
  (void)schema.AddProperty("CITY", "name", PropertyType::kString);
  (void)schema.AddProperty("PROPERTY", "address", PropertyType::kString);
  (void)schema.AddProperty("REGION", "name", PropertyType::kString);
  (void)schema.AddProperty("COUNTRY", "name", PropertyType::kString);
  schema.AddEdge("PERSON", "isMarriedTo", "PERSON");
  schema.AddEdge("PERSON", "livesIn", "CITY");
  schema.AddEdge("PERSON", "owns", "PROPERTY");
  schema.AddEdge("PROPERTY", "isLocatedIn", "CITY");
  schema.AddEdge("CITY", "isLocatedIn", "REGION");
  schema.AddEdge("REGION", "isLocatedIn", "COUNTRY");
  schema.AddEdge("COUNTRY", "dealsWith", "COUNTRY");
  return schema;
}

// The Fig 2 node ids (paper n1..n7 -> 0..6).
inline constexpr NodeId kN1 = 0;  // PROPERTY "7 Queen Street"
inline constexpr NodeId kN2 = 1;  // PERSON John
inline constexpr NodeId kN3 = 2;  // PERSON Shradha
inline constexpr NodeId kN4 = 3;  // CITY Elerslie
inline constexpr NodeId kN5 = 4;  // REGION Grenoble
inline constexpr NodeId kN6 = 5;  // CITY Montbonnot
inline constexpr NodeId kN7 = 6;  // COUNTRY France

/// The Fig 2 database: consistent with Fig1Schema() (paper Example 3).
inline PropertyGraph Fig2Graph() {
  PropertyGraph graph;
  graph.AddNode("PROPERTY",
                {{"address", Value::String("7 Queen Street")}});
  graph.AddNode("PERSON",
                {{"name", Value::String("John")}, {"age", Value::Int(28)}});
  graph.AddNode("PERSON", {{"name", Value::String("Shradha")},
                           {"age", Value::Int(25)}});
  graph.AddNode("CITY", {{"name", Value::String("Elerslie")}});
  graph.AddNode("REGION", {{"name", Value::String("Grenoble")}});
  graph.AddNode("CITY", {{"name", Value::String("Montbonnot")}});
  graph.AddNode("COUNTRY", {{"name", Value::String("France")}});
  (void)graph.AddEdge(kN2, "isMarriedTo", kN3);
  (void)graph.AddEdge(kN3, "isMarriedTo", kN2);
  (void)graph.AddEdge(kN2, "livesIn", kN4);
  (void)graph.AddEdge(kN3, "livesIn", kN6);
  (void)graph.AddEdge(kN2, "owns", kN1);
  (void)graph.AddEdge(kN1, "isLocatedIn", kN6);
  (void)graph.AddEdge(kN6, "isLocatedIn", kN5);
  (void)graph.AddEdge(kN4, "isLocatedIn", kN5);
  (void)graph.AddEdge(kN5, "isLocatedIn", kN7);
  graph.Finalize();
  return graph;
}

/// A relation and seed sets that drive the closure kernel's split into
/// fixed-value ranges through its edge cases at dop 4: start pairs with
/// 1, 2 and 3 distinct fixed values (one range, fewer ranges than
/// workers), and start pairs that are mostly one hub's, so that cuts
/// must move past the hub's run. Every seed has in- and out-edges, so
/// each set works for source and target seeds alike.
struct RangeSplitCase {
  BinaryRelation base;
  std::vector<std::vector<NodeId>> seed_sets;
};

inline RangeSplitCase MakeRangeSplitCase() {
  constexpr NodeId kNodes = 300;
  constexpr NodeId kHub = 150;
  Rng rng(29);
  auto node = [&rng] { return static_cast<NodeId>(rng.Uniform(kNodes)); };
  std::vector<Edge> pairs;
  for (int i = 0; i < 600; ++i) pairs.emplace_back(node(), node());
  for (int i = 0; i < 120; ++i) {
    pairs.emplace_back(kHub, node());
    pairs.emplace_back(node(), kHub);
  }
  RangeSplitCase c{BinaryRelation::FromPairs(std::move(pairs)), {}};
  std::vector<NodeId> sources = c.base.Sources();
  std::vector<NodeId> targets = c.base.Targets();
  std::vector<NodeId> low, high;  // seeds below and above the hub
  std::set_intersection(sources.begin(), sources.end(), targets.begin(),
                        targets.end(), std::back_inserter(low));
  auto hub = std::lower_bound(low.begin(), low.end(), kHub);
  high.assign(hub + 1, low.end());
  low.erase(hub, low.end());
  c.seed_sets = {{low[0]},
                 {low[0], high[0]},
                 {low[0], low[1], high[0]},
                 {low[0], low[1], low[2], kHub, high[0], high[1], high[2]}};
  return c;
}

}  // namespace testing
}  // namespace gqopt

#endif  // GQOPT_TESTS_TEST_FIXTURES_H_
