// Randomized property suite for Theorem 1 (soundness and completeness of
// the schema-based rewriting): on randomly generated schemas, conforming
// databases and path expressions, the rewritten query must return exactly
// the same result set as the original — on both engines. Also checks that
// the simplification rules R1-R5 are semantics-preserving on arbitrary
// (not necessarily conforming) graphs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/path_parser.h"
#include "api/stages.h"  // white-box stage access
#include "core/simplifier.h"
#include "eval/graph_engine.h"
#include "eval/path_eval.h"
#include "graph/consistency.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "util/rng.h"

namespace gqopt {
namespace {

// ---- Random generators -----------------------------------------------------

GraphSchema RandomSchema(Rng* rng) {
  GraphSchema schema;
  size_t num_labels = 3 + rng->Uniform(3);
  std::vector<std::string> labels;
  for (size_t i = 0; i < num_labels; ++i) {
    labels.push_back("L" + std::to_string(i));
    schema.AddNodeLabel(labels.back());
  }
  size_t num_edges = 4 + rng->Uniform(4);
  for (size_t i = 0; i < num_edges; ++i) {
    std::string edge = "e" + std::to_string(i);
    size_t triples = 1 + rng->Uniform(3);
    for (size_t t = 0; t < triples; ++t) {
      schema.AddEdge(rng->Pick(labels), edge, rng->Pick(labels));
    }
  }
  return schema;
}

PropertyGraph RandomConformingGraph(const GraphSchema& schema, Rng* rng) {
  PropertyGraph graph;
  std::vector<std::vector<NodeId>> extents(schema.node_labels().size());
  for (size_t l = 0; l < schema.node_labels().size(); ++l) {
    size_t count = 2 + rng->Uniform(6);
    for (size_t i = 0; i < count; ++i) {
      extents[l].push_back(graph.AddNode(schema.node_labels()[l]));
    }
  }
  auto label_index = [&](const std::string& label) {
    for (size_t l = 0; l < schema.node_labels().size(); ++l) {
      if (schema.node_labels()[l] == label) return l;
    }
    return size_t{0};
  };
  for (const BasicTriple& triple : schema.triples()) {
    const auto& sources = extents[label_index(triple.source_label)];
    const auto& targets = extents[label_index(triple.target_label)];
    size_t count = rng->Uniform(12);
    for (size_t i = 0; i < count; ++i) {
      (void)graph.AddEdge(rng->Pick(sources), triple.edge_label,
                          rng->Pick(targets));
    }
  }
  graph.Finalize();
  return graph;
}

PathExprPtr RandomExpr(const GraphSchema& schema, Rng* rng, int depth) {
  const std::vector<std::string>& edges = schema.edge_labels();
  if (depth <= 0 || rng->Chance(0.35)) {
    const std::string& label = rng->Pick(edges);
    return rng->Chance(0.2) ? PathExpr::Reverse(label)
                            : PathExpr::Edge(label);
  }
  switch (rng->Uniform(7)) {
    case 0:
      return PathExpr::Concat(RandomExpr(schema, rng, depth - 1),
                              RandomExpr(schema, rng, depth - 1));
    case 1:
      return PathExpr::Union(RandomExpr(schema, rng, depth - 1),
                             RandomExpr(schema, rng, depth - 1));
    case 2:
      return PathExpr::Conjunction(RandomExpr(schema, rng, depth - 1),
                                   RandomExpr(schema, rng, depth - 1));
    case 3:
      return PathExpr::BranchRight(RandomExpr(schema, rng, depth - 1),
                                   RandomExpr(schema, rng, depth - 1));
    case 4:
      return PathExpr::BranchLeft(RandomExpr(schema, rng, depth - 1),
                                  RandomExpr(schema, rng, depth - 1));
    case 5:
      return PathExpr::Closure(RandomExpr(schema, rng, depth - 1));
    default:
      return PathExpr::Repeat(RandomExpr(schema, rng, depth - 1), 1,
                              1 + static_cast<int>(rng->Uniform(2)));
  }
}

std::vector<Edge> ResultPairs(const ResultSet& result) {
  std::vector<Edge> out;
  for (const auto& row : result.rows) {
    out.emplace_back(row[0], row[1]);
  }
  return out;
}

// ---- Theorem 1 end-to-end ----------------------------------------------------

class RewritePropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The rewrite's two forms: the engine form (the default, served by the
// facade) and the paper's annotated form.
std::vector<RewriteOptions> BothForms() {
  RewriteOptions paper;
  paper.enable_annotations = true;
  return {RewriteOptions{}, paper};
}

TEST_P(RewritePropertyTest, RewritePreservesSemantics) {
  Rng rng(GetParam());
  GraphSchema schema = RandomSchema(&rng);
  PropertyGraph graph = RandomConformingGraph(schema, &rng);
  ASSERT_TRUE(CheckConsistency(graph, schema).consistent());

  GraphEngine engine(graph);
  for (int i = 0; i < 8; ++i) {
    PathExprPtr expr = RandomExpr(schema, &rng, 3);
    Ucqt baseline = Ucqt::FromPath("x1", expr, "x2");
    auto expected = EvalPath(graph, expr);
    ASSERT_TRUE(expected.ok()) << expr->ToString();

    for (const RewriteOptions& form : BothForms()) {
      auto rewritten = RewriteQuery(baseline, schema, form);
      ASSERT_TRUE(rewritten.ok())
          << expr->ToString() << ": " << rewritten.status().ToString();

      auto actual = engine.Run(rewritten->query);
      ASSERT_TRUE(actual.ok()) << rewritten->query.ToString();
      EXPECT_EQ(ResultPairs(*actual), expected->pairs())
          << "expr: " << expr->ToString() << "\nrewritten: "
          << rewritten->query.ToString()
          << (rewritten->reverted ? " (reverted)" : "");

      if (rewritten->unsatisfiable) {
        EXPECT_TRUE(expected->empty()) << expr->ToString();
      }
    }
  }
}

TEST_P(RewritePropertyTest, EnginesAgreeOnRewrittenQueries) {
  Rng rng(GetParam() * 7919 + 13);
  GraphSchema schema = RandomSchema(&rng);
  PropertyGraph graph = RandomConformingGraph(schema, &rng);
  Catalog catalog(graph);
  GraphEngine engine(graph);
  Executor executor(catalog);

  for (int i = 0; i < 5; ++i) {
    PathExprPtr expr = RandomExpr(schema, &rng, 3);
    Ucqt baseline = Ucqt::FromPath("x1", expr, "x2");
    std::vector<Ucqt> queries = {baseline};
    for (const RewriteOptions& form : BothForms()) {
      auto rewritten = RewriteQuery(baseline, schema, form);
      ASSERT_TRUE(rewritten.ok());
      queries.push_back(rewritten->query);
    }

    for (const Ucqt& query : queries) {
      auto graph_result = engine.Run(query);
      ASSERT_TRUE(graph_result.ok()) << query.ToString();
      auto plan = UcqtToRa(query);
      ASSERT_TRUE(plan.ok()) << query.ToString();
      auto table = executor.Run(OptimizePlan(*plan, catalog));
      ASSERT_TRUE(table.ok()) << query.ToString();
      Table sorted = *table;
      sorted.SortDistinct();
      ASSERT_EQ(sorted.rows(), graph_result->rows.size())
          << query.ToString();
      for (size_t r = 0; r < sorted.rows(); ++r) {
        EXPECT_EQ(sorted.At(r, 0), graph_result->rows[r][0]);
        EXPECT_EQ(sorted.At(r, 1), graph_result->rows[r][1]);
      }
    }
  }
}

TEST_P(RewritePropertyTest, SimplifierPreservesSemantics) {
  Rng rng(GetParam() * 104729 + 1);
  GraphSchema schema = RandomSchema(&rng);
  // Deliberately NOT schema-conforming: R1-R5 are schema-independent.
  PropertyGraph graph;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < 8; ++i) {
    nodes.push_back(graph.AddNode("N" + std::to_string(i % 3)));
  }
  for (const std::string& edge : schema.edge_labels()) {
    size_t count = rng.Uniform(10);
    for (size_t i = 0; i < count; ++i) {
      (void)graph.AddEdge(rng.Pick(nodes), edge, rng.Pick(nodes));
    }
  }
  graph.Finalize();

  for (int i = 0; i < 10; ++i) {
    PathExprPtr expr = RandomExpr(schema, &rng, 4);
    PathExprPtr simplified = SimplifyPath(DesugarRepeat(expr));
    auto lhs = EvalPath(graph, expr);
    auto rhs = EvalPath(graph, simplified);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(lhs->pairs(), rhs->pairs())
        << expr->ToString() << " vs " << simplified->ToString();
  }
}

TEST_P(RewritePropertyTest, AblationsPreserveSemantics) {
  Rng rng(GetParam() * 31 + 5);
  GraphSchema schema = RandomSchema(&rng);
  PropertyGraph graph = RandomConformingGraph(schema, &rng);
  GraphEngine engine(graph);

  // Closure elimination off, in the paper form and in the engine form
  // (RewritePreservesSemantics runs both forms with it on).
  RewriteOptions paper_form;
  paper_form.enable_annotations = true;
  RewriteOptions no_tc = paper_form;
  no_tc.enable_tc_elimination = false;
  RewriteOptions engine_no_tc;
  engine_no_tc.enable_tc_elimination = false;

  for (int i = 0; i < 5; ++i) {
    PathExprPtr expr = RandomExpr(schema, &rng, 3);
    auto expected = EvalPath(graph, expr);
    ASSERT_TRUE(expected.ok());
    for (const RewriteOptions* options : {&no_tc, &engine_no_tc}) {
      auto rewritten =
          RewriteQuery(Ucqt::FromPath("x1", expr, "x2"), schema, *options);
      ASSERT_TRUE(rewritten.ok());
      auto actual = engine.Run(rewritten->query);
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(ResultPairs(*actual), expected->pairs())
          << expr->ToString();
    }
  }
}

TEST_P(RewritePropertyTest, PrinterParserRoundTrip) {
  Rng rng(GetParam() * 613 + 7);
  GraphSchema schema = RandomSchema(&rng);
  for (int i = 0; i < 20; ++i) {
    PathExprPtr expr = RandomExpr(schema, &rng, 4);
    auto reparsed = ParsePathExpr(expr->ToString());
    ASSERT_TRUE(reparsed.ok())
        << expr->ToString() << ": " << reparsed.status().ToString();
    EXPECT_TRUE(PathExpr::Equals(expr, *reparsed))
        << expr->ToString() << " reparsed as " << (*reparsed)->ToString();
  }
}

TEST_P(RewritePropertyTest, CanonicalKeyMatchesStructuralEquality) {
  Rng rng(GetParam() * 127 + 3);
  GraphSchema schema = RandomSchema(&rng);
  std::vector<PathExprPtr> exprs;
  for (int i = 0; i < 12; ++i) {
    exprs.push_back(RandomExpr(schema, &rng, 3));
  }
  for (const PathExprPtr& a : exprs) {
    for (const PathExprPtr& b : exprs) {
      EXPECT_EQ(PathExpr::Equals(a, b),
                a->CanonicalKey() == b->CanonicalKey())
          << a->ToString() << " vs " << b->ToString();
    }
  }
}

TEST_P(RewritePropertyTest, RewrittenQueryStaysSatisfiableWhenResultsExist) {
  // Completeness from the other side: whenever the original query returns
  // rows, the rewriter must not have declared it unsatisfiable.
  Rng rng(GetParam() * 911 + 2);
  GraphSchema schema = RandomSchema(&rng);
  PropertyGraph graph = RandomConformingGraph(schema, &rng);
  for (int i = 0; i < 6; ++i) {
    PathExprPtr expr = RandomExpr(schema, &rng, 3);
    auto expected = EvalPath(graph, expr);
    ASSERT_TRUE(expected.ok());
    auto rewritten = RewriteQuery(Ucqt::FromPath("x1", expr, "x2"), schema);
    ASSERT_TRUE(rewritten.ok());
    if (!expected->empty()) {
      EXPECT_FALSE(rewritten->unsatisfiable) << expr->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritePropertyTest,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace gqopt
