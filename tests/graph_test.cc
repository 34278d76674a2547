#include <gtest/gtest.h>

#include "graph/consistency.h"
#include "graph/graph_io.h"
#include "graph/property_graph.h"
#include "graph/schema_guard.h"
#include "test_fixtures.h"

namespace gqopt {
namespace {

using testing::Fig1Schema;
using testing::Fig2Graph;
using testing::kN1;
using testing::kN2;
using testing::kN3;
using testing::kN4;
using testing::kN5;
using testing::kN6;
using testing::kN7;

TEST(PropertyGraphTest, Fig2Shape) {
  PropertyGraph graph = Fig2Graph();
  // Example 2: seven nodes, nine edges.
  EXPECT_EQ(graph.num_nodes(), 7u);
  EXPECT_EQ(graph.num_edges(), 9u);
  EXPECT_EQ(graph.NodeLabel(kN2), "PERSON");
  EXPECT_EQ(graph.NodeLabel(kN7), "COUNTRY");
}

TEST(PropertyGraphTest, Properties) {
  PropertyGraph graph = Fig2Graph();
  auto name = graph.GetProperty(kN2, "name");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->AsString(), "John");
  auto age = graph.GetProperty(kN2, "age");
  ASSERT_TRUE(age.has_value());
  EXPECT_EQ(age->AsInt(), 28);
  EXPECT_FALSE(graph.GetProperty(kN2, "missing").has_value());
}

TEST(PropertyGraphTest, EdgesByLabelSorted) {
  PropertyGraph graph = Fig2Graph();
  const auto& located = graph.EdgesByLabel("isLocatedIn");
  ASSERT_EQ(located.size(), 4u);
  EXPECT_TRUE(std::is_sorted(located.begin(), located.end()));
  EXPECT_EQ(located[0], (Edge{kN1, kN6}));
  EXPECT_TRUE(graph.EdgesByLabel("unknown").empty());
}

TEST(PropertyGraphTest, ReverseEdges) {
  PropertyGraph graph = Fig2Graph();
  const auto& rev = graph.ReverseEdgesByLabel("owns");
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev[0], (Edge{kN1, kN2}));  // (target, source)
}

TEST(PropertyGraphTest, NodesWithLabel) {
  PropertyGraph graph = Fig2Graph();
  EXPECT_EQ(graph.NodesWithLabel("PERSON"),
            (std::vector<NodeId>{kN2, kN3}));
  EXPECT_EQ(graph.NodesWithLabel("CITY"), (std::vector<NodeId>{kN4, kN6}));
  EXPECT_TRUE(graph.NodesWithLabel("nope").empty());
  EXPECT_TRUE(graph.NodeHasLabel(kN5, "REGION"));
  EXPECT_FALSE(graph.NodeHasLabel(kN5, "CITY"));
}

TEST(PropertyGraphTest, DuplicateEdgesDeduplicated) {
  PropertyGraph graph;
  NodeId a = graph.AddNode("A");
  NodeId b = graph.AddNode("B");
  ASSERT_TRUE(graph.AddEdge(a, "e", b).ok());
  ASSERT_TRUE(graph.AddEdge(a, "e", b).ok());
  EXPECT_EQ(graph.EdgesByLabel("e").size(), 1u);
}

// num_edges() counts stored edges: a duplicate (source, label, target)
// counts once, whether it arrives through AddEdge or as a repeated line
// of the text format.
TEST(PropertyGraphTest, NumEdgesCountsDuplicatesOnce) {
  PropertyGraph graph;
  NodeId a = graph.AddNode("A");
  NodeId b = graph.AddNode("B");
  ASSERT_TRUE(graph.AddEdge(a, "e", b).ok());
  ASSERT_TRUE(graph.AddEdge(a, "e", b).ok());
  ASSERT_TRUE(graph.AddEdge(b, "e", a).ok());
  ASSERT_TRUE(graph.AddEdge(a, "f", b).ok());  // same pair, other label
  EXPECT_EQ(graph.num_edges(), 3u);
  // After a count, a duplicate still adds nothing and a new edge one.
  ASSERT_TRUE(graph.AddEdge(b, "e", a).ok());
  EXPECT_EQ(graph.num_edges(), 3u);
  ASSERT_TRUE(graph.AddEdge(b, "f", a).ok());
  EXPECT_EQ(graph.num_edges(), 4u);

  auto read = ReadGraphText("N|A|\nN|B|\nE|0|e|1\nE|0|e|1\nE|1|e|0\n");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->num_edges(), 2u);
  EXPECT_EQ(read->EdgesByLabel("e").size(), 2u);
}

TEST(PropertyGraphTest, EdgeEndpointValidation) {
  PropertyGraph graph;
  graph.AddNode("A");
  Status st = graph.AddEdge(0, "e", 5);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(ConsistencyTest, Fig2ConformsToFig1) {
  // Paper Example 3.
  ConsistencyReport report = CheckConsistency(Fig2Graph(), Fig1Schema());
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

TEST(ConsistencyTest, DetectsUnknownNodeLabel) {
  PropertyGraph graph;
  graph.AddNode("ALIEN");
  ConsistencyReport report = CheckConsistency(graph, Fig1Schema());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind,
            ConsistencyViolation::Kind::kUnknownNodeLabel);
}

TEST(ConsistencyTest, DetectsUnknownEdgeLabel) {
  PropertyGraph graph;
  NodeId a = graph.AddNode("PERSON");
  ASSERT_TRUE(graph.AddEdge(a, "teleportsTo", a).ok());
  ConsistencyReport report = CheckConsistency(graph, Fig1Schema());
  ASSERT_FALSE(report.consistent());
  EXPECT_EQ(report.violations[0].kind,
            ConsistencyViolation::Kind::kUnknownEdgeLabel);
}

TEST(ConsistencyTest, DetectsInadmissibleEdge) {
  PropertyGraph graph;
  NodeId person = graph.AddNode("PERSON");
  NodeId country = graph.AddNode("COUNTRY");
  ASSERT_TRUE(graph.AddEdge(person, "livesIn", country).ok());  // needs CITY
  ConsistencyReport report = CheckConsistency(graph, Fig1Schema());
  ASSERT_FALSE(report.consistent());
  EXPECT_EQ(report.violations[0].kind,
            ConsistencyViolation::Kind::kEdgeNotAdmitted);
}

TEST(ConsistencyTest, DetectsUndeclaredProperty) {
  PropertyGraph graph;
  graph.AddNode("PERSON", {{"height", Value::Int(180)}});
  ConsistencyReport report = CheckConsistency(graph, Fig1Schema());
  ASSERT_FALSE(report.consistent());
  EXPECT_EQ(report.violations[0].kind,
            ConsistencyViolation::Kind::kUnknownProperty);
}

TEST(ConsistencyTest, DetectsPropertyTypeMismatch) {
  PropertyGraph graph;
  graph.AddNode("PERSON", {{"age", Value::String("old")}});
  ConsistencyReport report = CheckConsistency(graph, Fig1Schema());
  ASSERT_FALSE(report.consistent());
  EXPECT_EQ(report.violations[0].kind,
            ConsistencyViolation::Kind::kPropertyTypeMismatch);
}

TEST(ConsistencyTest, RespectsMaxViolations) {
  PropertyGraph graph;
  for (int i = 0; i < 10; ++i) graph.AddNode("ALIEN");
  ConsistencyReport report = CheckConsistency(graph, Fig1Schema(), 3);
  EXPECT_EQ(report.violations.size(), 3u);
}

TEST(GraphIoTest, RoundTrip) {
  PropertyGraph graph = Fig2Graph();
  std::string text = WriteGraphText(graph);
  auto reparsed = ReadGraphText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->num_nodes(), graph.num_nodes());
  EXPECT_EQ(reparsed->num_edges(), graph.num_edges());
  EXPECT_EQ(WriteGraphText(*reparsed), text);
  // Typed properties survive.
  auto age = reparsed->GetProperty(kN2, "age");
  ASSERT_TRUE(age.has_value());
  EXPECT_EQ(age->type(), PropertyType::kInt);
  EXPECT_EQ(age->AsInt(), 28);
}

TEST(GraphIoTest, RejectsMalformed) {
  EXPECT_FALSE(ReadGraphText("X|weird\n").ok());
  EXPECT_FALSE(ReadGraphText("E|0|e\n").ok());
  EXPECT_FALSE(ReadGraphText("E|0|e|1\n").ok());  // nodes don't exist
  EXPECT_FALSE(ReadGraphText("N|A|oops\n").ok());
}

TEST(SchemaGuardTest, AcceptsConformingInsertions) {
  GraphSchema schema = Fig1Schema();
  PropertyGraph graph;
  SchemaGuard guard(schema, &graph);
  auto person = guard.AddNode(
      "PERSON", {{"name", Value::String("Ada")}, {"age", Value::Int(36)}});
  ASSERT_TRUE(person.ok()) << person.status().ToString();
  auto city = guard.AddNode("CITY", {{"name", Value::String("London")}});
  ASSERT_TRUE(city.ok());
  EXPECT_TRUE(guard.AddEdge(*person, "livesIn", *city).ok());
  EXPECT_TRUE(CheckConsistency(graph, schema).consistent());
}

TEST(SchemaGuardTest, RejectsUnknownNodeLabel) {
  GraphSchema schema = Fig1Schema();
  PropertyGraph graph;
  SchemaGuard guard(schema, &graph);
  auto result = guard.AddNode("ALIEN");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.num_nodes(), 0u);  // nothing half-inserted
}

TEST(SchemaGuardTest, RejectsUndeclaredProperty) {
  GraphSchema schema = Fig1Schema();
  PropertyGraph graph;
  SchemaGuard guard(schema, &graph);
  auto result = guard.AddNode("PERSON", {{"height", Value::Int(180)}});
  EXPECT_FALSE(result.ok());
}

TEST(SchemaGuardTest, RejectsPropertyTypeMismatch) {
  GraphSchema schema = Fig1Schema();
  PropertyGraph graph;
  SchemaGuard guard(schema, &graph);
  auto result = guard.AddNode("PERSON", {{"age", Value::String("old")}});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("age"), std::string::npos);
}

TEST(SchemaGuardTest, RejectsInadmissibleEdge) {
  GraphSchema schema = Fig1Schema();
  PropertyGraph graph;
  SchemaGuard guard(schema, &graph);
  NodeId person = *guard.AddNode("PERSON");
  NodeId country = *guard.AddNode("COUNTRY");
  Status st = guard.AddEdge(person, "livesIn", country);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("livesIn"), std::string::npos);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(SchemaGuardTest, RejectsUnknownEdgeLabelAndBadIds) {
  GraphSchema schema = Fig1Schema();
  PropertyGraph graph;
  SchemaGuard guard(schema, &graph);
  NodeId person = *guard.AddNode("PERSON");
  EXPECT_EQ(guard.AddEdge(person, "teleportsTo", person).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(guard.AddEdge(person, "livesIn", 99).code(),
            StatusCode::kOutOfRange);
}

TEST(ValueTest, TypingFunction) {
  EXPECT_EQ(Value::String("x").type(), PropertyType::kString);
  EXPECT_EQ(Value::Int(1).type(), PropertyType::kInt);
  EXPECT_EQ(Value::Double(1.5).type(), PropertyType::kDouble);
  EXPECT_EQ(Value::Bool(true).type(), PropertyType::kBool);
  EXPECT_EQ(Value::Date(1000).type(), PropertyType::kDate);
}

TEST(ValueTest, DateIsNotPlainInt) {
  EXPECT_FALSE(Value::Date(5) == Value::Int(5));
  EXPECT_TRUE(Value::Int(5) == Value::Int(5));
}

}  // namespace
}  // namespace gqopt
