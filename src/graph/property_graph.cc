#include "graph/property_graph.h"

#include <algorithm>
#include <mutex>
#include <new>

#include "util/fault_injection.h"

namespace gqopt {
namespace {

// Serializes the lazy per-label CSR cache builds across all graphs: a
// finalized graph shared by N reader threads (the snapshot layer in
// src/api) must populate forward_csr_/reverse_csr_ race-free. One global
// mutex, not per-graph state, so the graph stays freely copyable; builds
// happen once per label and the indexes are tiny to look up.
std::mutex& CsrCacheMutex() {
  static std::mutex mu;
  return mu;
}

// Sorts and dedups one adjacency vector. Edges added since the last
// Finalize() follow a sorted prefix, so only that tail is sorted and then
// merged in: re-finalizing after a few writes costs linear time, not a
// full re-sort.
void SortUnique(std::vector<Edge>* edges) {
  auto tail = std::is_sorted_until(edges->begin(), edges->end());
  std::sort(tail, edges->end());
  std::inplace_merge(edges->begin(), tail, edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
}

}  // namespace

const std::vector<Edge> PropertyGraph::kNoEdges;
const std::vector<NodeId> PropertyGraph::kNoNodes;
const std::vector<Property> PropertyGraph::kNoProps;

// The lock makes copying a published (finalized) graph safe against
// concurrent lazy CSR builds on the source; the built CsrViews are
// immutable, so sharing them keeps the copy's cache warm for free.
PropertyGraph::PropertyGraph(const PropertyGraph& other)
    : node_label_names_(other.node_label_names_),
      edge_label_names_(other.edge_label_names_),
      node_labels_(other.node_labels_),
      node_properties_(other.node_properties_),
      num_edges_(other.num_edges_) {
  std::lock_guard<std::mutex> lock(CsrCacheMutex());
  forward_ = other.forward_;
  reverse_ = other.reverse_;
  forward_csr_ = other.forward_csr_;
  reverse_csr_ = other.reverse_csr_;
  label_index_ = other.label_index_;
  finalized_ = other.finalized_;
}

PropertyGraph& PropertyGraph::operator=(const PropertyGraph& other) {
  if (this != &other) {
    node_label_names_ = other.node_label_names_;
    edge_label_names_ = other.edge_label_names_;
    node_labels_ = other.node_labels_;
    node_properties_ = other.node_properties_;
    num_edges_ = other.num_edges_;
    std::lock_guard<std::mutex> lock(CsrCacheMutex());
    forward_ = other.forward_;
    reverse_ = other.reverse_;
    forward_csr_ = other.forward_csr_;
    reverse_csr_ = other.reverse_csr_;
    label_index_ = other.label_index_;
    finalized_ = other.finalized_;
  }
  return *this;
}

NodeId PropertyGraph::AddNode(std::string_view label) {
  return AddNode(label, {});
}

NodeId PropertyGraph::AddNode(std::string_view label,
                              std::vector<Property> properties) {
  SymbolId label_id = node_label_names_.Intern(label);
  NodeId id = static_cast<NodeId>(node_labels_.size());
  node_labels_.push_back(label_id);
  if (!properties.empty()) {
    node_properties_.resize(node_labels_.size());
    node_properties_[id] = std::move(properties);
  }
  if (label_id >= label_index_.size()) label_index_.resize(label_id + 1);
  finalized_ = false;
  return id;
}

Status PropertyGraph::AddEdge(NodeId source, std::string_view label,
                              NodeId target) {
  if (source >= num_nodes() || target >= num_nodes()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  SymbolId label_id = edge_label_names_.Intern(label);
  if (label_id >= forward_.size()) {
    forward_.resize(label_id + 1);
    reverse_.resize(label_id + 1);
  }
  forward_[label_id].emplace_back(source, target);
  reverse_[label_id].emplace_back(target, source);
  finalized_ = false;
  return Status::OK();
}

const std::vector<Property>& PropertyGraph::NodeProperties(
    NodeId node) const {
  if (node >= node_properties_.size()) return kNoProps;
  return node_properties_[node];
}

std::optional<Value> PropertyGraph::GetProperty(NodeId node,
                                                std::string_view key) const {
  for (const Property& p : NodeProperties(node)) {
    if (p.key == key) return p.value;
  }
  return std::nullopt;
}

const std::vector<Edge>& PropertyGraph::EdgesByLabel(
    std::string_view label) const {
  Finalize();
  auto id = edge_label_names_.Find(label);
  if (!id.has_value() || *id >= forward_.size()) return kNoEdges;
  return forward_[*id];
}

const std::vector<Edge>& PropertyGraph::ReverseEdgesByLabel(
    std::string_view label) const {
  Finalize();
  auto id = edge_label_names_.Find(label);
  if (!id.has_value() || *id >= reverse_.size()) return kNoEdges;
  return reverse_[*id];
}

std::shared_ptr<const CsrView> PropertyGraph::ForwardCsr(
    std::string_view label) const {
  Finalize();
  auto id = edge_label_names_.Find(label);
  if (!id.has_value() || *id >= forward_.size()) return nullptr;
  std::lock_guard<std::mutex> lock(CsrCacheMutex());
  if (forward_csr_.size() < forward_.size()) {
    forward_csr_.resize(forward_.size());
  }
  if (!forward_csr_[*id]) {
    if (FaultHit(FaultPoint::kCsrBuild) == FaultKind::kAlloc) {
      throw std::bad_alloc();
    }
    forward_csr_[*id] =
        std::make_shared<const CsrView>(CsrView::Build(forward_[*id]));
  }
  return forward_csr_[*id];
}

std::shared_ptr<const CsrView> PropertyGraph::ReverseCsr(
    std::string_view label) const {
  Finalize();
  auto id = edge_label_names_.Find(label);
  if (!id.has_value() || *id >= reverse_.size()) return nullptr;
  std::lock_guard<std::mutex> lock(CsrCacheMutex());
  if (reverse_csr_.size() < reverse_.size()) {
    reverse_csr_.resize(reverse_.size());
  }
  if (!reverse_csr_[*id]) {
    if (FaultHit(FaultPoint::kCsrBuild) == FaultKind::kAlloc) {
      throw std::bad_alloc();
    }
    reverse_csr_[*id] =
        std::make_shared<const CsrView>(CsrView::Build(reverse_[*id]));
  }
  return reverse_csr_[*id];
}

const std::vector<NodeId>& PropertyGraph::NodesWithLabel(
    std::string_view label) const {
  Finalize();
  auto id = node_label_names_.Find(label);
  if (!id.has_value() || *id >= label_index_.size()) return kNoNodes;
  return label_index_[*id];
}

bool PropertyGraph::NodeHasLabel(NodeId node, std::string_view label) const {
  auto id = node_label_names_.Find(label);
  return id.has_value() && node < node_labels_.size() &&
         node_labels_[node] == *id;
}

void PropertyGraph::Finalize() const {
  if (finalized_) return;
  forward_csr_.clear();  // stale once the vectors re-sort
  reverse_csr_.clear();
  num_edges_ = 0;
  for (auto& edges : forward_) {
    SortUnique(&edges);
    num_edges_ += edges.size();
  }
  for (auto& edges : reverse_) SortUnique(&edges);
  label_index_.assign(node_label_names_.size(), {});
  for (NodeId n = 0; n < node_labels_.size(); ++n) {
    label_index_[node_labels_[n]].push_back(n);
  }
  finalized_ = true;
}

}  // namespace gqopt
