// Shared fixtures reproducing the paper's running example: the Fig 1 YAGO
// schema (5 node labels, 7 edges) and the Fig 2 YAGO database instance
// (7 nodes, 9 edges). Node ids follow the paper's n1..n7 as 0..6. Plus
// ScopedEnv, for the suites that test environment knobs.

#ifndef GQOPT_TESTS_TEST_FIXTURES_H_
#define GQOPT_TESTS_TEST_FIXTURES_H_

#include <cstdlib>
#include <optional>
#include <string>

#include "graph/property_graph.h"
#include "schema/graph_schema.h"

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

}  // namespace testing
}  // namespace gqopt

#endif  // GQOPT_TESTS_TEST_FIXTURES_H_
