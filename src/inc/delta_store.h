// Incremental-maintenance side buffer (docs/ARCHITECTURE.md): pending
// node/edge inserts accumulated next to a frozen base PropertyGraph,
// kept as sorted per-label runs so the rest of the stack can overlay
// them onto the base adjacency without re-sorting anything.
//
// The flow: while published snapshots share a frozen copy of the master
// (the base), every Database write appends here and goes through to the
// master graph; with no base frozen, writes go to the master alone.
// Each publication seals the current pending state into an immutable
// SealedDelta, and readers execute against base + seal through the
// overlay Catalog (ra/catalog.h). When the delta exceeds the merge
// threshold (Database::set_delta_merge_rows), or on an explicit
// Compact(), the buffer clears and the next publication re-freezes the
// master, which already holds every row. A reader always sees either a
// seal or a re-frozen base — never a partially merged state.
//
// Ids: pending nodes take ids base_nodes + i in append order, so every
// delta id is greater than every base id (merged node extents stay
// sorted by construction) and equals the id the master assigns the same
// node.

#ifndef GQOPT_INC_DELTA_STORE_H_
#define GQOPT_INC_DELTA_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/property_graph.h"
#include "util/status.h"

namespace gqopt {
namespace inc {

/// A node waiting in the delta: its label (by name — the base symbol
/// table is frozen, and the label may be new to it) and properties.
struct PendingNode {
  std::string label;
  std::vector<Property> properties;
};

/// Pending edges of one label: the forward run sorted-unique by
/// (source, target) and the parallel reverse run sorted-unique by
/// (target, source) — the same invariants as the base adjacency, and
/// disjoint from it (duplicates are dropped at append time), so a
/// two-cursor union of base and run is itself sorted and unique.
struct EdgeRun {
  std::vector<Edge> forward;
  std::vector<Edge> reverse;
};

/// Counters the CLI `stats` command and the tests observe. A consistent
/// snapshot under the Database state mutex. They count only rows written
/// while a snapshot shares the base: writes made while no base is frozen
/// (a fresh Database, or after a compaction) go to the master graph
/// alone and never reach the delta.
struct DeltaStats {
  size_t pending_nodes = 0;
  size_t pending_edges = 0;
  uint64_t appended_nodes = 0;
  uint64_t appended_edges = 0;
  /// Edge appends dropped because the pair already existed (base or
  /// delta) — set semantics, same as a base Finalize() would enforce.
  uint64_t dropped_duplicates = 0;
  uint64_t seals = 0;
  uint64_t compactions = 0;
  uint64_t compacted_rows = 0;
  /// Compactions aborted by an injected kDeltaMerge fault: the pending
  /// rows stay buffered and the next merge retries.
  uint64_t failed_compactions = 0;
};

/// \brief One immutable publication of the pending state.
///
/// Deeply immutable after construction, shared by any number of reader
/// threads (the overlay Catalog and statistics hold one per snapshot).
class SealedDelta {
 public:
  SealedDelta(size_t base_nodes, std::vector<PendingNode> nodes,
              std::unordered_map<std::string, std::vector<NodeId>> by_label,
              std::unordered_map<std::string, EdgeRun> edges,
              size_t edge_count)
      : base_nodes_(base_nodes),
        nodes_(std::move(nodes)),
        nodes_by_label_(std::move(by_label)),
        edges_(std::move(edges)),
        edge_count_(edge_count) {}

  bool empty() const { return nodes_.empty() && edge_count_ == 0; }
  /// Node count of the base this delta was buffered against; pending
  /// node i has id base_nodes() + i.
  size_t base_nodes() const { return base_nodes_; }
  const std::vector<PendingNode>& nodes() const { return nodes_; }
  size_t edge_count() const { return edge_count_; }

  /// Pending node ids carrying `label`, sorted ascending (append order
  /// is id order). Empty for untouched labels.
  const std::vector<NodeId>& NodesWithLabel(const std::string& label) const {
    auto it = nodes_by_label_.find(label);
    return it == nodes_by_label_.end() ? kNoNodes : it->second;
  }

  /// Pending (source, target) run of `label`, sorted-unique and disjoint
  /// from the base run. Empty for untouched labels.
  const std::vector<Edge>& ForwardRun(const std::string& label) const {
    auto it = edges_.find(label);
    return it == edges_.end() ? kNoEdges : it->second.forward;
  }

  /// Pending (target, source) run of `label`, sorted-unique.
  const std::vector<Edge>& ReverseRun(const std::string& label) const {
    auto it = edges_.find(label);
    return it == edges_.end() ? kNoEdges : it->second.reverse;
  }

  bool TouchesNodeLabel(const std::string& label) const {
    return nodes_by_label_.find(label) != nodes_by_label_.end();
  }

  const std::unordered_map<std::string, EdgeRun>& edges() const {
    return edges_;
  }
  const std::unordered_map<std::string, std::vector<NodeId>>&
  nodes_by_label() const {
    return nodes_by_label_;
  }

  /// Label name of `id`, resolving base ids through `base` and delta ids
  /// through the pending nodes.
  const std::string& NodeLabelName(const PropertyGraph& base,
                                   NodeId id) const {
    return id < base_nodes_ ? base.NodeLabel(id)
                            : nodes_[id - base_nodes_].label;
  }

  static const std::vector<Edge> kNoEdges;
  static const std::vector<NodeId> kNoNodes;

 private:
  size_t base_nodes_;
  std::vector<PendingNode> nodes_;
  std::unordered_map<std::string, std::vector<NodeId>> nodes_by_label_;
  std::unordered_map<std::string, EdgeRun> edges_;
  size_t edge_count_;
};

using SealedDeltaPtr = std::shared_ptr<const SealedDelta>;

/// \brief The mutable pending buffer owned by a Database.
///
/// All methods require external synchronization (the Database holds its
/// state mutex across every call); publication happens only through the
/// immutable seals.
class DeltaStore {
 public:
  /// Buffers a node insert against `base` and returns its id
  /// (base.num_nodes() + pending position, the id the master assigns).
  NodeId AddNode(const PropertyGraph& base, std::string_view label,
                 std::vector<Property> properties = {});

  /// Buffers an edge insert. Endpoints may be base or pending ids;
  /// duplicates of base or pending edges are dropped (counted, OK).
  Status AddEdge(const PropertyGraph& base, NodeId source,
                 std::string_view label, NodeId target);

  bool empty() const { return nodes_.empty() && edge_count_ == 0; }
  /// Pending rows (nodes + edges) — what the merge threshold bounds.
  size_t pending_rows() const { return nodes_.size() + edge_count_; }
  size_t pending_nodes() const { return nodes_.size(); }
  size_t pending_edges() const { return edge_count_; }
  /// Pending runs of one label (empty for untouched labels) — the same
  /// shape a seal exposes, without forcing a publication.
  const std::vector<Edge>& ForwardRun(const std::string& label) const {
    auto it = edges_.find(label);
    return it == edges_.end() ? SealedDelta::kNoEdges : it->second.forward;
  }
  const std::vector<Edge>& ReverseRun(const std::string& label) const {
    auto it = edges_.find(label);
    return it == edges_.end() ? SealedDelta::kNoEdges : it->second.reverse;
  }

  /// The current pending state as an immutable publication. Cached:
  /// repeated seals between appends share one SealedDelta.
  SealedDeltaPtr Seal() const;

  /// Drops the pending state after a successful compaction.
  void ClearAfterCompaction();

  /// Drops pending rows without a compaction (the dataset they described
  /// is being replaced): counters survive, the buffer re-anchors on the
  /// next append.
  void DiscardPending();

  void CountFailedCompaction() { ++failed_compactions_; }

  DeltaStats stats() const;

 private:
  size_t base_nodes_ = 0;
  size_t edge_count_ = 0;
  std::vector<PendingNode> nodes_;
  std::unordered_map<std::string, std::vector<NodeId>> nodes_by_label_;
  std::unordered_map<std::string, EdgeRun> edges_;
  mutable SealedDeltaPtr seal_;  // invalidated by every append

  uint64_t appended_nodes_ = 0;
  uint64_t appended_edges_ = 0;
  uint64_t dropped_duplicates_ = 0;
  mutable uint64_t seals_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compacted_rows_ = 0;
  uint64_t failed_compactions_ = 0;
};

}  // namespace inc
}  // namespace gqopt

#endif  // GQOPT_INC_DELTA_STORE_H_
