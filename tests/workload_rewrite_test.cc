// Snapshot regression test: the rewrite outcome of every workload query
// (revert flag, disjunct count, eliminated/total closures) is pinned so
// that changes to the simplifier / inference / merging / pruning pipeline
// surface as reviewable diffs. The pinned values reproduce the paper's
// aggregate claims in its annotated form: on YAGO exactly one query
// reverts and the closure is eliminated in 16 of 18 (§5.2, Tab 6); on
// LDBC exactly the five isLocatedIn+ queries lose their closure (§5.4) —
// our revert set is a superset of the paper's ten (DESIGN.md §5.3). The
// served engine form is pinned beside it.

#include <gtest/gtest.h>

#include <map>

#include "api/stages.h"  // white-box stage access
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"

namespace gqopt {
namespace {

struct Expected {
  const char* id;
  bool reverted;
  size_t disjuncts;
  size_t eliminated_closures;
  size_t total_closures;
};

void CheckWorkload(const std::vector<WorkloadQuery>& workload,
                   const GraphSchema& schema,
                   const std::vector<Expected>& expectations,
                   const RewriteOptions& options = {}) {
  ASSERT_EQ(workload.size(), expectations.size());
  std::map<std::string, const WorkloadQuery*> by_id;
  for (const WorkloadQuery& wq : workload) by_id[wq.id] = &wq;
  for (const Expected& expected : expectations) {
    auto it = by_id.find(expected.id);
    ASSERT_NE(it, by_id.end()) << expected.id;
    auto query = ParseWorkloadQuery(*it->second);
    ASSERT_TRUE(query.ok()) << expected.id;
    auto result = RewriteQuery(*query, schema, options);
    ASSERT_TRUE(result.ok()) << expected.id << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->reverted, expected.reverted) << expected.id;
    EXPECT_EQ(result->query.disjuncts.size(), expected.disjuncts)
        << expected.id << ": " << result->query.ToString();
    EXPECT_EQ(result->stats.eliminated_closures(),
              expected.eliminated_closures)
        << expected.id;
    EXPECT_EQ(result->stats.closures.size(), expected.total_closures)
        << expected.id;
    EXPECT_FALSE(result->unsatisfiable) << expected.id;
  }
}

// The paper's annotated output; the default is the engine form.
RewriteOptions PaperForm() {
  RewriteOptions options;
  options.enable_annotations = true;
  return options;
}

TEST(WorkloadRewriteSnapshot, Yago) {
  // {id, reverted, disjuncts, eliminated closures, total closures}
  CheckWorkload(YagoWorkload(), YagoSchema(),
                {
                    {"Y1", false, 1, 1, 2},
                    {"Y2", false, 1, 1, 2},
                    {"Y3", false, 1, 1, 2},
                    {"Y4", false, 1, 1, 2},
                    {"Y5", false, 1, 1, 2},
                    {"Y6", false, 3, 1, 1},
                    {"Y7", true, 1, 0, 1},
                    {"Y8", false, 3, 1, 1},
                    {"Y9", false, 3, 1, 1},
                    {"Y10", false, 3, 1, 1},
                    {"Y11", false, 3, 1, 1},
                    {"Y12", false, 1, 1, 2},
                    {"Y13", false, 1, 0, 1},
                    {"Y14", false, 1, 1, 2},
                    {"Y15", false, 3, 1, 1},
                    {"Y16", false, 3, 1, 1},
                    {"Y17", false, 3, 1, 2},
                    {"Y18", false, 3, 1, 1},
                },
                PaperForm());
}

TEST(WorkloadRewriteSnapshot, YagoEngineForm) {
  // The served form eliminates the same 16 closures. Y13's paper-form
  // rewrite adds only label atoms, so without them it reverts as well.
  CheckWorkload(YagoWorkload(), YagoSchema(),
                {
                    {"Y1", false, 1, 1, 2},
                    {"Y2", false, 1, 1, 2},
                    {"Y3", false, 1, 1, 2},
                    {"Y4", false, 1, 1, 2},
                    {"Y5", false, 1, 1, 2},
                    {"Y6", false, 3, 1, 1},
                    {"Y7", true, 1, 0, 1},
                    {"Y8", false, 3, 1, 1},
                    {"Y9", false, 3, 1, 1},
                    {"Y10", false, 3, 1, 1},
                    {"Y11", false, 3, 1, 1},
                    {"Y12", false, 1, 1, 2},
                    {"Y13", true, 1, 0, 1},
                    {"Y14", false, 1, 1, 2},
                    {"Y15", false, 3, 1, 1},
                    {"Y16", false, 3, 1, 1},
                    {"Y17", false, 3, 1, 2},
                    {"Y18", false, 3, 1, 1},
                });
}

TEST(WorkloadRewriteSnapshot, Ldbc) {
  // The LDBC rewrites add no label atoms: both forms are the same.
  for (const RewriteOptions& form : {RewriteOptions{}, PaperForm()}) {
    CheckWorkload(LdbcWorkload(), LdbcSchema(),
                  {
                      {"IC1", true, 1, 0, 0},
                      {"IC2", true, 1, 0, 0},
                      {"IC6", true, 1, 0, 0},
                      {"IC7", true, 1, 0, 0},
                      {"IC8", true, 1, 0, 0},
                      {"IC9", true, 1, 0, 0},
                      {"IC11", true, 1, 0, 0},
                      {"IC12", true, 1, 0, 1},
                      {"IC13", true, 1, 0, 1},
                      {"IC14", true, 1, 0, 1},
                      {"Y1", false, 1, 1, 3},
                      {"Y2", false, 1, 1, 2},
                      {"Y3", false, 1, 1, 3},
                      {"Y4", false, 2, 1, 2},
                      {"Y5", true, 1, 0, 1},
                      {"Y6", false, 1, 1, 3},
                      {"Y7", true, 1, 0, 1},
                      {"Y8", true, 1, 0, 1},
                      {"IS2", true, 1, 0, 1},
                      {"IS6", true, 1, 0, 1},
                      {"IS7", true, 1, 0, 0},
                      {"BI11", true, 1, 0, 0},
                      {"BI10", true, 1, 0, 1},
                      {"BI3", true, 1, 0, 1},
                      {"BI9", true, 1, 0, 1},
                      {"BI20", true, 1, 0, 1},
                      {"LSQB1", true, 1, 0, 1},
                      {"LSQB4", true, 1, 0, 0},
                      {"LSQB5", true, 1, 0, 0},
                      {"LSQB6", true, 1, 0, 0},
                  },
                  form);
  }
}

}  // namespace
}  // namespace gqopt
