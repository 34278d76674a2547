#include "inc/delta_store.h"

#include <algorithm>

namespace gqopt {
namespace inc {

const std::vector<Edge> SealedDelta::kNoEdges;
const std::vector<NodeId> SealedDelta::kNoNodes;

NodeId DeltaStore::AddNode(const PropertyGraph& base, std::string_view label,
                           std::vector<Property> properties) {
  // The base is frozen only while pending rows exist; an empty delta
  // re-anchors to whatever the base has grown to (a compaction or Use()
  // may have moved it).
  if (empty()) base_nodes_ = base.num_nodes();
  NodeId id = static_cast<NodeId>(base_nodes_ + nodes_.size());
  PendingNode node;
  node.label.assign(label);
  node.properties = std::move(properties);
  nodes_by_label_[node.label].push_back(id);
  nodes_.push_back(std::move(node));
  ++appended_nodes_;
  seal_.reset();
  return id;
}

Status DeltaStore::AddEdge(const PropertyGraph& base, NodeId source,
                           std::string_view label, NodeId target) {
  if (empty()) base_nodes_ = base.num_nodes();
  size_t total_nodes = base_nodes_ + nodes_.size();
  if (source >= total_nodes || target >= total_nodes) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  std::string key(label);
  Edge fwd{source, target};
  // Set semantics at append time (the base enforces them at Finalize):
  // a pair already present in the base run or the pending run is a
  // counted no-op, which keeps base and delta disjoint — the invariant
  // every merged view and every incremental statistic relies on.
  const std::vector<Edge>& base_run = base.EdgesByLabel(key);
  if (std::binary_search(base_run.begin(), base_run.end(), fwd)) {
    ++dropped_duplicates_;
    return Status::OK();
  }
  EdgeRun& run = edges_[key];
  auto pos = std::lower_bound(run.forward.begin(), run.forward.end(), fwd);
  if (pos != run.forward.end() && *pos == fwd) {
    ++dropped_duplicates_;
    return Status::OK();
  }
  run.forward.insert(pos, fwd);
  Edge rev{target, source};
  run.reverse.insert(
      std::lower_bound(run.reverse.begin(), run.reverse.end(), rev), rev);
  ++edge_count_;
  ++appended_edges_;
  seal_.reset();
  return Status::OK();
}

SealedDeltaPtr DeltaStore::Seal() const {
  if (!seal_) {
    seal_ = std::make_shared<const SealedDelta>(base_nodes_, nodes_,
                                                nodes_by_label_, edges_,
                                                edge_count_);
    ++seals_;
  }
  return seal_;
}

void DeltaStore::ClearAfterCompaction() {
  ++compactions_;
  compacted_rows_ += pending_rows();
  nodes_.clear();
  nodes_by_label_.clear();
  edges_.clear();
  edge_count_ = 0;
  seal_.reset();
}

void DeltaStore::DiscardPending() {
  nodes_.clear();
  nodes_by_label_.clear();
  edges_.clear();
  edge_count_ = 0;
  base_nodes_ = 0;
  seal_.reset();
}

DeltaStats DeltaStore::stats() const {
  DeltaStats s;
  s.pending_nodes = nodes_.size();
  s.pending_edges = edge_count_;
  s.appended_nodes = appended_nodes_;
  s.appended_edges = appended_edges_;
  s.dropped_duplicates = dropped_duplicates_;
  s.seals = seals_;
  s.compactions = compactions_;
  s.compacted_rows = compacted_rows_;
  s.failed_compactions = failed_compactions_;
  return s;
}

}  // namespace inc
}  // namespace gqopt
