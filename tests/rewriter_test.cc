// End-to-end rewriter tests: the paper's Example 13, opportunistic reverts
// (§5.2), unsatisfiability detection, ablations and Tab 6 stats.

#include <gtest/gtest.h>

#include "algebra/path_parser.h"
#include "api/stages.h"  // white-box stage access
#include "datasets/ldbc.h"
#include "datasets/yago.h"
#include "query/query_parser.h"
#include "test_fixtures.h"

namespace gqopt {
namespace {

using testing::Fig1Schema;

Ucqt Parse(const std::string& text) {
  auto result = ParseUcqt(text);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  return result.ok() ? *result : Ucqt{};
}

RewriteResult Rewrite(const std::string& text, const GraphSchema& schema,
                      const RewriteOptions& options = {}) {
  auto result = RewriteQuery(Parse(text), schema, options);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  return result.ok() ? *result : RewriteResult{};
}

// The paper's annotated output (Example 13); the default is the engine
// form, which adds no inferred label atoms.
RewriteOptions PaperForm() {
  RewriteOptions options;
  options.enable_annotations = true;
  return options;
}

TEST(RewriterTest, Example13EndToEnd) {
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)",
              Fig1Schema(), PaperForm());
  EXPECT_FALSE(result.reverted);
  EXPECT_FALSE(result.unsatisfiable);
  ASSERT_EQ(result.query.disjuncts.size(), 1u);
  const Cqt& cqt = result.query.disjuncts[0];
  // Paper Example 13:
  //   {a, b | exists g. (a, lvIn/isL, g) and (g, isL/dw+, b) and
  //    label(g) in {REGION}}
  ASSERT_EQ(cqt.relations.size(), 2u);
  EXPECT_EQ(cqt.relations[0].source_var, "x1");
  EXPECT_EQ(cqt.relations[0].path->ToString(), "livesIn/isLocatedIn");
  EXPECT_EQ(cqt.relations[0].target_var, cqt.relations[1].source_var);
  EXPECT_EQ(cqt.relations[1].path->ToString(), "isLocatedIn/dealsWith+");
  EXPECT_EQ(cqt.relations[1].target_var, "x2");
  ASSERT_EQ(cqt.atoms.size(), 1u);
  EXPECT_EQ(cqt.atoms[0].var, cqt.relations[0].target_var);
  EXPECT_EQ(cqt.atoms[0].labels, (std::vector<std::string>{"REGION"}));
}

TEST(RewriterTest, Example13Stats) {
  RewriteResult result = Rewrite(
      "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)", Fig1Schema());
  // isLocatedIn+ eliminated (replaced by one path of length 2);
  // dealsWith+ kept.
  ASSERT_EQ(result.stats.closures.size(), 2u);
  size_t eliminated = result.stats.eliminated_closures();
  EXPECT_EQ(eliminated, 1u);
  EXPECT_EQ(result.stats.all_path_lengths(), (std::vector<int>{2}));
}

TEST(RewriterTest, PureClosureExpandsToUnionOfPaths) {
  // isLocatedIn+ alone: 6 merged triples -> 6 disjuncts, no closure left.
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, isLocatedIn+, x2)", Fig1Schema());
  EXPECT_FALSE(result.reverted);
  EXPECT_EQ(result.query.disjuncts.size(), 3u)
      << result.query.ToString();  // lengths 1, 2, 3 after merging
  EXPECT_FALSE(result.query.IsRecursive());
  ASSERT_EQ(result.stats.closures.size(), 1u);
  EXPECT_TRUE(result.stats.closures[0].eliminated);
}

TEST(RewriterTest, CyclicClosureReverts) {
  // dealsWith+ is cyclic and all annotations are schema-implied: the
  // query reverts (paper §5.2).
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, dealsWith+, x2)", Fig1Schema());
  EXPECT_TRUE(result.reverted);
  EXPECT_EQ(result.query.ToString(),
            Parse("x1, x2 <- (x1, dealsWith+, x2)").ToString());
}

TEST(RewriterTest, MarriageChainReverts) {
  // The YAGO workload's Y7 shape: isMarriedTo+/livesIn.
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, isMarriedTo+/livesIn, x2)", Fig1Schema());
  EXPECT_TRUE(result.reverted);
}

TEST(RewriterTest, UnsatisfiableQueryDetected) {
  // livesIn/owns has no compatible junction under Fig 1.
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, livesIn/owns, x2)", Fig1Schema());
  EXPECT_TRUE(result.unsatisfiable);
  EXPECT_TRUE(result.query.IsEmpty());
}

TEST(RewriterTest, UnknownEdgeLabelIsError) {
  auto result =
      RewriteQuery(Parse("x1, x2 <- (x1, flysTo, x2)"), Fig1Schema());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RewriterTest, UnionWithoutSchemaGainReverts) {
  // Splitting owns | livesIn into two disjuncts adds no schema information
  // (no annotations, no closure removed), so the rewriter keeps the input
  // untouched — mirroring the paper's IC7/IC9 reverts.
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, owns | livesIn, x2)", Fig1Schema());
  EXPECT_TRUE(result.reverted);
  EXPECT_EQ(result.query.disjuncts.size(), 1u);
}

TEST(RewriterTest, UnionWithConstraintSplits) {
  // Here one union branch ends at PROPERTY and the other continues to a
  // region: endpoints differ, the target atoms survive pruning, and the
  // query genuinely splits.
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, owns | livesIn/isLocatedIn, x2)", Fig1Schema(),
              PaperForm());
  EXPECT_FALSE(result.reverted);
  EXPECT_EQ(result.query.disjuncts.size(), 2u);
}

TEST(RewriterTest, MultiRelationCqtKeepsSharedVariables) {
  // The paper's C1 (Fig 4): both relations constrain Y.
  RewriteResult result = Rewrite(
      "y <- (y, livesIn/isLocatedIn+, m), (y, owns, z)", Fig1Schema());
  EXPECT_FALSE(result.reverted);
  for (const Cqt& cqt : result.query.disjuncts) {
    bool saw_owns = false;
    for (const Relation& rel : cqt.relations) {
      if (rel.path->ToString() == "owns") {
        saw_owns = true;
        EXPECT_EQ(rel.source_var, "y");
      }
    }
    EXPECT_TRUE(saw_owns);
  }
}

TEST(RewriterTest, PreservesExistingAtoms) {
  RewriteResult result = Rewrite(
      "x1, x2 <- (x1, owns/isLocatedIn, x2), label(x1) = PERSON",
      Fig1Schema());
  bool found = false;
  for (const Cqt& cqt : result.query.disjuncts.empty()
                            ? Parse("x <- (x, owns, y)").disjuncts
                            : result.query.disjuncts) {
    for (const LabelAtom& atom : cqt.atoms) {
      if (atom.var == "x1" &&
          atom.labels == std::vector<std::string>{"PERSON"}) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(RewriterTest, AblationNoTcElimination) {
  RewriteOptions options = PaperForm();
  options.enable_tc_elimination = false;
  RewriteResult result = Rewrite(
      "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)", Fig1Schema(),
      options);
  // The closure survives; only annotations may be added.
  EXPECT_TRUE(result.query.IsRecursive());
  for (const ClosureStats& c : result.stats.closures) {
    EXPECT_FALSE(c.eliminated);
  }
}

TEST(RewriterTest, AblationNoAnnotations) {
  RewriteOptions options;
  options.enable_annotations = false;
  RewriteResult result = Rewrite(
      "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)", Fig1Schema(),
      options);
  EXPECT_FALSE(result.reverted);
  for (const Cqt& cqt : result.query.disjuncts) {
    EXPECT_TRUE(cqt.atoms.empty());
    for (const Relation& rel : cqt.relations) {
      EXPECT_FALSE(rel.path->HasAnnotations());
    }
  }
  // TC elimination still happened for isLocatedIn+ (dealsWith+ is cyclic
  // and must stay).
  bool isl_eliminated = false;
  for (const ClosureStats& c : result.stats.closures) {
    if (c.closure == "isLocatedIn+") isl_eliminated = c.eliminated;
  }
  EXPECT_TRUE(isl_eliminated);
}

TEST(RewriterTest, RepeatDesugarsBeforeInference) {
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, isMarriedTo{1,2}/owns/isLocatedIn, x2)",
              Fig1Schema(), PaperForm());
  ASSERT_FALSE(result.reverted);  // the CITY target atom survives
  // No repeat nodes survive anywhere.
  for (const Cqt& cqt : result.query.disjuncts) {
    for (const Relation& rel : cqt.relations) {
      std::function<bool(const PathExprPtr&)> has_repeat =
          [&](const PathExprPtr& e) -> bool {
        if (!e) return false;
        if (e->op() == PathOp::kRepeat) return true;
        return has_repeat(e->left()) || has_repeat(e->right());
      };
      EXPECT_FALSE(has_repeat(rel.path));
    }
  }
}

TEST(RewriterTest, LdbcRevertSet) {
  // The paper reports IC2, IC6, IC7, IC9, IC13, BI11, BI9, BI20, LSQB6
  // (plus YAGO-style Y7) reverting on LDBC. Verify the structurally
  // obvious ones revert under our (slightly stronger) pruning.
  GraphSchema schema = LdbcSchema();
  for (const char* text : {
           "x1, x2 <- (x1, knows/-hasCreator, x2)",              // IC2
           "x1, x2 <- (x1, knows+, x2)",                         // IC13
           "x1, x2 <- (x1, replyOf+/hasCreator, x2)",            // BI9
           "x1, x2 <- (x1, knows/knows/hasInterest, x2)",        // LSQB6
           "x1, x2 <- (x1, (knows & (studyAt/-studyAt))+, x2)",  // BI20
       }) {
    RewriteResult result = Rewrite(text, schema);
    EXPECT_TRUE(result.reverted) << text << " -> "
                                 << result.query.ToString();
  }
}

TEST(RewriterTest, LdbcIsLocatedInEliminated) {
  // Y2-style query: isLocatedIn+ collapses to a single step on LDBC
  // (Place has no outgoing isLocatedIn). One of the paper's 5 removable
  // LDBC closures.
  GraphSchema schema = LdbcSchema();
  RewriteResult result = Rewrite(
      "x1, x2 <- (x1, likes/hasCreator/knows+/isLocatedIn+, x2)", schema);
  EXPECT_FALSE(result.reverted);
  bool isl_eliminated = false;
  for (const ClosureStats& c : result.stats.closures) {
    if (c.closure == "isLocatedIn+") isl_eliminated = c.eliminated;
  }
  EXPECT_TRUE(isl_eliminated);
}

TEST(RewriterTest, YagoQuery6PathLengths) {
  // owns/isLocatedIn+ on the full YAGO schema: replacement paths of
  // lengths 1, 2, 3 (Tab 6's min 1 / avg 2 / max 3 rows).
  RewriteResult result =
      Rewrite("x1, x2 <- (x1, owns/isLocatedIn+, x2)", YagoSchema());
  EXPECT_FALSE(result.reverted);
  EXPECT_EQ(result.stats.all_path_lengths(), (std::vector<int>{1, 2, 3}));
}

TEST(RewriterTest, OrderLimitOffsetSuffixRidesThrough) {
  // The rewrite touches only disjunct bodies: the ordering window —
  // including the offset — must survive both an applied rewrite and an
  // opportunistic revert verbatim.
  RewriteResult applied = Rewrite(
      "x1, x2 <- (x1, owns/isLocatedIn+, x2) order by x2, x1 desc "
      "limit 6 offset 3",
      YagoSchema());
  EXPECT_FALSE(applied.reverted);
  ASSERT_EQ(applied.query.order_by.size(), 2u);
  EXPECT_EQ(applied.query.order_by[0].var, "x2");
  EXPECT_TRUE(applied.query.order_by[1].descending);
  EXPECT_EQ(applied.query.limit, 6);
  EXPECT_EQ(applied.query.offset, 3);

  RewriteResult reverted = Rewrite(
      "x1, x2 <- (x1, knows+, x2) order by x1 limit 4 offset 2",
      LdbcSchema());
  EXPECT_TRUE(reverted.reverted);
  EXPECT_EQ(reverted.query.limit, 4);
  EXPECT_EQ(reverted.query.offset, 2);
}

TEST(RewriterTest, RewriteIsDeterministic) {
  RewriteResult a = Rewrite(
      "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)", Fig1Schema());
  RewriteResult b = Rewrite(
      "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)", Fig1Schema());
  EXPECT_EQ(a.query.ToString(), b.query.ToString());
}

}  // namespace
}  // namespace gqopt
