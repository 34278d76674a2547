// Schema-based query rewriting pipeline (paper Fig 10):
//   PPS (Fig 6)  ->  SQ-Rewriter (Fig 8 inference)  ->  SQ-Merge (Def 9 +
//   annotation pruning)  ->  translation to UCQT (Fig 9, Def 11).
//
// The pipeline is opportunistic (paper §5.2): when the schema adds no
// information the result reverts to the input query, so enrichment can
// never regress a query.

#ifndef GQOPT_CORE_REWRITER_H_
#define GQOPT_CORE_REWRITER_H_

#include <string>
#include <vector>

#include "core/type_inference.h"
#include "query/ucqt.h"
#include "schema/graph_schema.h"
#include "util/status.h"

namespace gqopt {

/// Tuning and ablation knobs for RewriteQuery.
struct RewriteOptions {
  /// Apply the preliminary path simplification rules R1-R5.
  bool enable_simplification = true;
  /// Allow PlC to replace transitive closures by fixed-length paths.
  bool enable_tc_elimination = true;
  /// Which of the rewrite's two forms to produce. Both eliminate the same
  /// transitive closures; they differ in the node-label atoms the
  /// inference adds.
  ///
  /// false (the engine form, served by Database::Prepare): no inferred
  /// label atoms and no split at annotated junctions. On a graph that
  /// conforms to the schema every inferred annotation is implied by the
  /// path, and this engine stores edges per edge label, so a node label
  /// is never an access path here, only a filter that removes nothing.
  ///
  /// true (the paper form, Example 13): annotations and endpoint
  /// constraints are kept, and a path splits into separate relations at
  /// each annotated junction. In a SQL or Cypher backend a label filter
  /// can shrink a table scan (Fig 15-17), so the emitters and the paper's
  /// tables request this form.
  ///
  /// Label atoms the query itself writes are kept in either form.
  bool enable_annotations = false;
  /// Cap on the number of disjuncts the rewritten query may have; beyond
  /// this the rewriter reverts (guards the per-CQT alternative product).
  size_t max_disjuncts = 64;
  InferenceOptions inference;
};

/// Per-transitive-closure outcome, aggregated for the paper's Tab 6.
struct ClosureStats {
  /// Plain closure expression, rendered.
  std::string closure;
  /// True when no occurrence of the closure survives in the final query.
  bool eliminated = false;
  /// Lengths of the fixed-length replacement paths present in the final
  /// query (one entry per surviving replacement).
  std::vector<int> path_lengths;
};

/// Observability output of one rewrite.
struct RewriteStats {
  std::vector<ClosureStats> closures;
  size_t disjuncts_before = 0;
  size_t disjuncts_after = 0;
  size_t atoms_added = 0;
  bool inference_overflowed = false;

  /// Number of closures fully eliminated from the query.
  size_t eliminated_closures() const;
  /// All replacement path lengths across closures (Tab 6 rows).
  std::vector<int> all_path_lengths() const;
};

/// Result of RewriteQuery.
struct RewriteResult {
  /// The schema-enriched query, or the unmodified input when `reverted`.
  Ucqt query;
  /// True when the schema offered no optimization (paper §5.2); callers
  /// should then execute the baseline plan.
  bool reverted = false;
  /// True when inference proved the query empty on all conforming
  /// databases; `query` is then the empty UCQT.
  bool unsatisfiable = false;
  RewriteStats stats;
};

/// \brief Runs the full schema-based rewriting pipeline on `input`.
///
/// Fails with InvalidArgument when the query references edge labels the
/// schema does not declare. Internal blow-up protections make the pipeline
/// revert rather than fail on pathological queries.
Result<RewriteResult> RewriteQuery(const Ucqt& input,
                                   const GraphSchema& schema,
                                   const RewriteOptions& options = {});

}  // namespace gqopt

#endif  // GQOPT_CORE_REWRITER_H_
