// Dataset generators and workload sanity: schema conformance (Def 3),
// paper Tab 3 shape (label/relation counts), workload parseability and the
// expected rewrite outcomes per workload query.

#include <gtest/gtest.h>

#include <set>

#include "api/stages.h"  // white-box stage access
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "graph/consistency.h"
#include "translate/cypher_emitter.h"

namespace gqopt {
namespace {

TEST(YagoSchemaTest, Tab3Shape) {
  GraphSchema schema = YagoSchema();
  // Tab 3: 7 node relations, 88 edge relations.
  EXPECT_EQ(schema.num_node_labels(), 7u);
  EXPECT_EQ(schema.edge_labels().size(), 88u);
}

TEST(YagoSchemaTest, CoreTopology) {
  GraphSchema schema = YagoSchema();
  // The acyclic isLocatedIn chain of Fig 1 plus ORG/EVENT entry points.
  EXPECT_TRUE(schema.Admits("PROPERTY", "isLocatedIn", "CITY"));
  EXPECT_TRUE(schema.Admits("CITY", "isLocatedIn", "REGION"));
  EXPECT_TRUE(schema.Admits("REGION", "isLocatedIn", "COUNTRY"));
  EXPECT_FALSE(schema.Admits("COUNTRY", "isLocatedIn", "PROPERTY"));
  EXPECT_TRUE(schema.Admits("COUNTRY", "dealsWith", "COUNTRY"));
}

TEST(YagoGeneratorTest, ConformsToSchema) {
  YagoConfig config;
  config.persons = 300;
  PropertyGraph graph = GenerateYago(config);
  ConsistencyReport report = CheckConsistency(graph, YagoSchema(), 5);
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

TEST(YagoGeneratorTest, DeterministicAndScaled) {
  YagoConfig config;
  config.persons = 200;
  PropertyGraph a = GenerateYago(config);
  PropertyGraph b = GenerateYago(config);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  config.persons = 400;
  PropertyGraph big = GenerateYago(config);
  EXPECT_GT(big.num_nodes(), a.num_nodes());
  EXPECT_GT(big.num_edges(), a.num_edges());
}

TEST(YagoGeneratorTest, AllEdgeRelationsPopulated) {
  YagoConfig config;
  config.persons = 300;
  PropertyGraph graph = GenerateYago(config);
  GraphSchema schema = YagoSchema();
  for (const std::string& label : schema.edge_labels()) {
    EXPECT_FALSE(graph.EdgesByLabel(label).empty())
        << "edge relation " << label << " is empty";
  }
}

TEST(LdbcSchemaTest, Tab3Shape) {
  GraphSchema schema = LdbcSchema();
  // Tab 3: 8 node relations, 16 edge relations.
  EXPECT_EQ(schema.num_node_labels(), 8u);
  EXPECT_EQ(schema.edge_labels().size(), 16u);
}

TEST(LdbcSchemaTest, RecursionTopology) {
  GraphSchema schema = LdbcSchema();
  // Cyclic at schema level: knows, isSubclassOf, isPartOf, replyOf.
  EXPECT_TRUE(schema.Admits("Person", "knows", "Person"));
  EXPECT_TRUE(schema.Admits("TagClass", "isSubclassOf", "TagClass"));
  EXPECT_TRUE(schema.Admits("Place", "isPartOf", "Place"));
  EXPECT_TRUE(schema.Admits("Comment", "replyOf", "Comment"));
  // Acyclic: isLocatedIn never leaves Place.
  EXPECT_TRUE(schema.Admits("Person", "isLocatedIn", "Place"));
  EXPECT_FALSE(schema.Admits("Place", "isLocatedIn", "Place"));
}

TEST(LdbcGeneratorTest, ConformsToSchema) {
  LdbcConfig config;
  config.persons = 120;
  PropertyGraph graph = GenerateLdbc(config);
  ConsistencyReport report = CheckConsistency(graph, LdbcSchema(), 5);
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

TEST(LdbcGeneratorTest, ReplyTreesAreAcyclicInstances) {
  LdbcConfig config;
  config.persons = 80;
  PropertyGraph graph = GenerateLdbc(config);
  // replyOf must be acyclic on the instance (comments reply to earlier
  // messages), even though the schema admits Comment->Comment loops.
  const auto& edges = graph.EdgesByLabel("replyOf");
  for (const Edge& e : edges) {
    EXPECT_GT(e.first, e.second) << "reply cycle suspect";
  }
}

TEST(LdbcGeneratorTest, ScaleFactorsGrow) {
  const auto& factors = LdbcScaleFactors();
  ASSERT_EQ(factors.size(), 6u);  // paper Tab 3: SF 0.1 .. 30
  EXPECT_STREQ(factors.front().name, "0.1");
  EXPECT_STREQ(factors.back().name, "30");
  for (size_t i = 1; i < factors.size(); ++i) {
    EXPECT_GT(factors[i].persons, factors[i - 1].persons);
  }
}

TEST(WorkloadTest, LdbcCountsMatchTab4) {
  const auto& queries = LdbcWorkload();
  EXPECT_EQ(queries.size(), 30u);
  size_t recursive = 0;
  for (const WorkloadQuery& q : queries) {
    if (q.recursive) ++recursive;
  }
  // Tab 4: 18 recursive, 12 non-recursive.
  EXPECT_EQ(recursive, 18u);
}

TEST(WorkloadTest, YagoCounts) {
  const auto& queries = YagoWorkload();
  EXPECT_EQ(queries.size(), 18u);
  for (const WorkloadQuery& q : queries) {
    EXPECT_TRUE(q.recursive) << q.id;  // §5.3: all YAGO queries are RQ
  }
}

TEST(WorkloadTest, AllQueriesParseAndClassify) {
  for (const auto* workload : {&LdbcWorkload(), &YagoWorkload()}) {
    for (const WorkloadQuery& q : *workload) {
      auto parsed = ParseWorkloadQuery(q);
      ASSERT_TRUE(parsed.ok()) << q.id << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed->IsRecursive(), q.recursive) << q.id;
      EXPECT_EQ(parsed->head_vars,
                (std::vector<std::string>{"x1", "x2"}))
          << q.id;
    }
  }
}

TEST(WorkloadTest, LdbcQueriesUseDeclaredLabelsOnly) {
  GraphSchema schema = LdbcSchema();
  for (const WorkloadQuery& q : LdbcWorkload()) {
    auto parsed = ParseWorkloadQuery(q);
    ASSERT_TRUE(parsed.ok());
    for (const Cqt& cqt : parsed->disjuncts) {
      for (const Relation& rel : cqt.relations) {
        for (const std::string& label : CollectEdgeLabels(rel.path)) {
          EXPECT_TRUE(schema.HasEdgeLabel(label)) << q.id << ": " << label;
        }
      }
    }
  }
}

TEST(WorkloadTest, YagoQueriesUseDeclaredLabelsOnly) {
  GraphSchema schema = YagoSchema();
  for (const WorkloadQuery& q : YagoWorkload()) {
    auto parsed = ParseWorkloadQuery(q);
    ASSERT_TRUE(parsed.ok());
    for (const Cqt& cqt : parsed->disjuncts) {
      for (const Relation& rel : cqt.relations) {
        for (const std::string& label : CollectEdgeLabels(rel.path)) {
          EXPECT_TRUE(schema.HasEdgeLabel(label)) << q.id << ": " << label;
        }
      }
    }
  }
}

TEST(WorkloadTest, YagoRewriteOutcomes) {
  // §5.2: exactly one YAGO query (Y7) reverts; 16 queries get their
  // isLocatedIn+ eliminated (Tab 6); Y13 is enriched without elimination.
  // These are facts of the paper's annotated form.
  GraphSchema schema = YagoSchema();
  RewriteOptions paper_form;
  paper_form.enable_annotations = true;
  std::set<std::string> reverted, eliminated;
  for (const WorkloadQuery& q : YagoWorkload()) {
    auto parsed = ParseWorkloadQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto result = RewriteQuery(*parsed, schema, paper_form);
    ASSERT_TRUE(result.ok()) << q.id << ": " << result.status().ToString();
    if (result->reverted) reverted.insert(q.id);
    if (result->stats.eliminated_closures() > 0) eliminated.insert(q.id);
  }
  EXPECT_EQ(reverted, (std::set<std::string>{"Y7"}));
  EXPECT_EQ(eliminated.size(), 16u) << [&] {
    std::string all;
    for (const auto& id : eliminated) all += id + " ";
    return all;
  }();
  EXPECT_FALSE(eliminated.count("Y7"));
  EXPECT_FALSE(eliminated.count("Y13"));
}

TEST(WorkloadTest, LdbcTcEliminationMatchesPaper) {
  // §5.4: the transitive closure can be removed in exactly 5 of the 30
  // LDBC queries (the isLocatedIn+ ones: Y1, Y2, Y3, Y4, Y6).
  GraphSchema schema = LdbcSchema();
  std::set<std::string> eliminated;
  for (const WorkloadQuery& q : LdbcWorkload()) {
    auto parsed = ParseWorkloadQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto result = RewriteQuery(*parsed, schema);
    ASSERT_TRUE(result.ok()) << q.id << ": " << result.status().ToString();
    if (result->stats.eliminated_closures() > 0) eliminated.insert(q.id);
  }
  EXPECT_EQ(eliminated,
            (std::set<std::string>{"Y1", "Y2", "Y3", "Y4", "Y6"}));
}

TEST(WorkloadTest, LdbcCypherExpressibleSubset) {
  // §5.5 reports 15 of 30 LDBC queries expressible in Cypher; our
  // GP2Cypher accepts 18 because it also handles closures of reversed
  // edges and bounded repeats as variable-length patterns. All queries
  // with branching/conjunction/compound closures are rejected either way.
  size_t expressible = 0;
  for (const WorkloadQuery& q : LdbcWorkload()) {
    auto parsed = ParseWorkloadQuery(q);
    ASSERT_TRUE(parsed.ok());
    if (IsCypherExpressible(*parsed)) ++expressible;
  }
  EXPECT_EQ(expressible, 18u);
}

}  // namespace
}  // namespace gqopt
