// Property graph database (paper Def 2) with per-edge-label adjacency
// indexes tuned for path-expression evaluation.

#ifndef GQOPT_GRAPH_PROPERTY_GRAPH_H_
#define GQOPT_GRAPH_PROPERTY_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/csr_view.h"
#include "graph/value.h"
#include "schema/graph_schema.h"
#include "schema/symbol_table.h"
#include "util/status.h"

namespace gqopt {

/// Dense node identifier within one PropertyGraph.
using NodeId = uint32_t;

/// A directed labelled edge as a (source, target) pair.
using Edge = std::pair<NodeId, NodeId>;

/// \brief In-memory property graph: labelled nodes with typed properties and
/// labelled directed edges (edges carry no properties, §2.3).
///
/// Nodes carry exactly one label. Edges are grouped per edge label and kept
/// sorted by (source, target) with a parallel reverse index sorted by
/// (target, source); both are built on demand and cached.
///
/// Threading: a *finalized* graph is safe for concurrent const access —
/// the lazy per-label CSR caches build behind a process-global mutex, and
/// every other accessor only reads. Finalize() itself and the mutators
/// (AddNode/AddEdge) require exclusive access; the snapshot layer in
/// src/api finalizes before publishing a graph to reader threads.
class PropertyGraph {
 public:
  PropertyGraph() = default;
  // Copying locks the CSR-cache mutex so a finalized graph can be copied
  // (e.g. into an api::Snapshot) while other threads build its lazy CSR
  // indexes; the copy shares the immutable CsrViews already built.
  PropertyGraph(const PropertyGraph& other);
  PropertyGraph& operator=(const PropertyGraph& other);
  PropertyGraph(PropertyGraph&&) = default;
  PropertyGraph& operator=(PropertyGraph&&) = default;

  /// Adds a node with `label` (interned) and returns its id.
  NodeId AddNode(std::string_view label);
  NodeId AddNode(std::string_view label, std::vector<Property> properties);

  /// Adds edge `source -[label]-> target`. Ids must refer to existing nodes.
  Status AddEdge(NodeId source, std::string_view label, NodeId target);

  size_t num_nodes() const { return node_labels_.size(); }
  /// Distinct edges stored: duplicate (source, label, target) adds count
  /// once, as Finalize() keeps them.
  size_t num_edges() const {
    Finalize();
    return num_edges_;
  }
  size_t num_node_labels() const { return node_label_names_.size(); }
  size_t num_edge_labels() const { return edge_label_names_.size(); }

  /// Label string of `node`.
  const std::string& NodeLabel(NodeId node) const {
    return node_label_names_.Name(node_labels_[node]);
  }
  /// Interned label id of `node`.
  SymbolId NodeLabelId(NodeId node) const { return node_labels_[node]; }

  /// Properties of `node` (possibly empty).
  const std::vector<Property>& NodeProperties(NodeId node) const;

  /// Value of property `key` on `node`, if present.
  std::optional<Value> GetProperty(NodeId node, std::string_view key) const;

  /// Interned id of a node label, if any node uses it.
  std::optional<SymbolId> FindNodeLabel(std::string_view label) const {
    return node_label_names_.Find(label);
  }
  /// Interned id of an edge label, if any edge uses it.
  std::optional<SymbolId> FindEdgeLabel(std::string_view label) const {
    return edge_label_names_.Find(label);
  }

  /// All node-label names in id order.
  const std::vector<std::string>& node_label_names() const {
    return node_label_names_.names();
  }
  /// All edge-label names in id order.
  const std::vector<std::string>& edge_label_names() const {
    return edge_label_names_.names();
  }

  /// Edges with `label`, sorted by (source, target). Empty for unknown label.
  const std::vector<Edge>& EdgesByLabel(std::string_view label) const;

  /// Edges with `label` as (target, source) pairs sorted by (target, source).
  const std::vector<Edge>& ReverseEdgesByLabel(std::string_view label) const;

  /// CSR offset index over EdgesByLabel(label), built once per label from
  /// the already-sorted edge vector (no re-sort) and cached. The returned
  /// pointer stays valid until edges are added. Null for unknown labels.
  std::shared_ptr<const CsrView> ForwardCsr(std::string_view label) const;

  /// CSR offset index over ReverseEdgesByLabel(label).
  std::shared_ptr<const CsrView> ReverseCsr(std::string_view label) const;

  /// Node ids carrying `label`, sorted ascending. Empty for unknown label.
  const std::vector<NodeId>& NodesWithLabel(std::string_view label) const;

  /// True when `node` carries node label `label`.
  bool NodeHasLabel(NodeId node, std::string_view label) const;

  /// Sorts/dedups all adjacency indexes and recounts num_edges(). Called
  /// lazily by accessors; cheap when already finalized, and after
  /// appends it sorts only the appended tail and merges it in.
  void Finalize() const;

 private:
  SymbolTable node_label_names_;
  SymbolTable edge_label_names_;
  std::vector<SymbolId> node_labels_;
  std::vector<std::vector<Property>> node_properties_;

  // Per edge-label-id adjacency: forward (src,tgt) and reverse (tgt,src).
  mutable std::vector<std::vector<Edge>> forward_;
  mutable std::vector<std::vector<Edge>> reverse_;
  // Lazily built per-label CSR indexes over the vectors above; cleared
  // whenever Finalize() re-sorts.
  mutable std::vector<std::shared_ptr<const CsrView>> forward_csr_;
  mutable std::vector<std::shared_ptr<const CsrView>> reverse_csr_;
  // Per node-label-id node lists.
  mutable std::vector<std::vector<NodeId>> label_index_;
  mutable bool finalized_ = true;
  mutable size_t num_edges_ = 0;  // recounted by Finalize()

  static const std::vector<Edge> kNoEdges;
  static const std::vector<NodeId> kNoNodes;
  static const std::vector<Property> kNoProps;
};

}  // namespace gqopt

#endif  // GQOPT_GRAPH_PROPERTY_GRAPH_H_
