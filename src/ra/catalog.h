// Relational catalog over a property graph: one binary table per edge
// label and one unary table per node label (the layout of paper Fig 11),
// plus the statistics the optimizer and EXPLAIN use.
//
// Two forms share this class. The *base* catalog wraps one finalized
// PropertyGraph. The *overlay* catalog wraps a base catalog plus a
// SealedDelta (src/inc): scans read the union of the base adjacency and
// the pending delta runs through MergedEdgeRun views, and node extents
// and statistics account for the pending rows. Nothing derived from the
// edges is cached across executions: every closure is computed from the
// scanned pairs (eval/closure.h).

#ifndef GQOPT_RA_CATALOG_H_
#define GQOPT_RA_CATALOG_H_

#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/property_graph.h"
#include "inc/delta_store.h"
#include "inc/merged_view.h"
#include "stats/graph_stats.h"

namespace gqopt {

/// \brief Read-only relational view of a PropertyGraph (base form) or of
/// a PropertyGraph plus pending delta (overlay form).
///
/// Safe for concurrent const access over a finalized graph: the lazy
/// per-label node-extent cache (overlay only) builds behind a
/// reader/writer lock (cache hits take the shared side), and the embedded
/// GraphStatistics guards its own caches the same way. References
/// returned by NodeExtent/stats stay valid for the Catalog's lifetime
/// (node-based map, never erased). An overlay's `base` and `delta` must
/// outlive it (the api::Snapshot owns all three).
class Catalog {
 public:
  explicit Catalog(const PropertyGraph& graph);

  /// Overlay form: `base`'s graph plus `delta`'s pending rows.
  Catalog(const Catalog* base, inc::SealedDeltaPtr delta);

  const PropertyGraph& graph() const { return graph_; }

  /// Zero-copy scan view of `label`'s edges: the base run plus (overlay
  /// only) the pending delta run, iterated as one sorted union. Probes
  /// the catalog-build fault point.
  inc::MergedEdgeRun EdgeView(const std::string& label) const;

  /// Node extent, sorted ascending (empty for unknown labels). Overlay:
  /// base extent plus pending delta ids (delta ids are all greater, so
  /// the concatenation is the sorted union), cached per label.
  const std::vector<NodeId>& NodeExtent(const std::string& label) const;

  /// Sorted union of several node extents.
  std::vector<NodeId> NodeExtentUnion(
      const std::vector<std::string>& labels) const;

  size_t node_count(const std::string& label) const {
    size_t n = graph_.NodesWithLabel(label).size();
    if (delta_ != nullptr) n += delta_->NodesWithLabel(label).size();
    return n;
  }
  size_t total_nodes() const {
    return graph_.num_nodes() +
           (delta_ != nullptr ? delta_->nodes().size() : 0);
  }

  /// The statistics catalog (src/stats): per-label cardinality and
  /// degree statistics plus schema-derived bounds, collected lazily and
  /// cached for the lifetime of this Catalog. The Estimator and the DP
  /// join planner read these. Overlay statistics are delta-maintained
  /// from the base's cached numbers.
  const GraphStatistics& stats() const { return stats_; }

 private:
  const PropertyGraph& graph_;
  inc::SealedDeltaPtr delta_;  // overlay form only
  GraphStatistics stats_;
  // Overlay node extents materialized on demand (touched labels only).
  mutable std::shared_mutex extent_mu_;
  mutable std::unordered_map<std::string, std::vector<NodeId>> extent_cache_;
};

}  // namespace gqopt

#endif  // GQOPT_RA_CATALOG_H_
