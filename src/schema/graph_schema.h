// Graph schema (paper Def 1) and basic graph schema triples (Def 5).

#ifndef GQOPT_SCHEMA_GRAPH_SCHEMA_H_
#define GQOPT_SCHEMA_GRAPH_SCHEMA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "schema/symbol_table.h"
#include "util/status.h"

namespace gqopt {

/// Property value types admitted by the schema (paper set T).
enum class PropertyType : uint8_t {
  kString,
  kInt,
  kDouble,
  kBool,
  kDate,
};

/// Returns the lowercase keyword for a property type ("string", "int", ...).
std::string_view PropertyTypeName(PropertyType type);

/// Parses a property type keyword; case-insensitive.
Result<PropertyType> ParsePropertyType(std::string_view name);

/// Key:type pair restricting a node property (paper set PS).
struct PropertyDef {
  std::string key;
  PropertyType type;

  bool operator==(const PropertyDef&) const = default;
  auto operator<=>(const PropertyDef&) const = default;
};

/// Basic graph schema triple (source label, edge label, target label),
/// paper Def 5 — the unit of the type-inference base case.
struct BasicTriple {
  std::string source_label;
  std::string edge_label;
  std::string target_label;

  bool operator==(const BasicTriple&) const = default;
  auto operator<=>(const BasicTriple&) const = default;
};

/// \brief Graph schema: a directed pseudo multigraph over node/edge labels
/// with per-node-label property definitions (paper Def 1).
///
/// In the paper each schema node carries exactly one label and (under the
/// strict-schema assumption of Def 3) each node label appears on at most one
/// schema node; we therefore key schema nodes directly by their label.
class GraphSchema {
 public:
  /// Declares a node label (idempotent). Returns its dense id.
  SymbolId AddNodeLabel(std::string_view label);

  /// Declares a property on a node label; the label is created if absent.
  Status AddProperty(std::string_view node_label, std::string_view key,
                     PropertyType type);

  /// Declares an edge `source -[edge_label]-> target`; labels are created
  /// if absent. Duplicate triples are ignored (idempotent).
  void AddEdge(std::string_view source_label, std::string_view edge_label,
               std::string_view target_label);

  bool HasNodeLabel(std::string_view label) const;
  bool HasEdgeLabel(std::string_view label) const;

  /// All node labels in declaration order.
  const std::vector<std::string>& node_labels() const {
    return node_labels_.names();
  }
  /// All edge labels in declaration order.
  const std::vector<std::string>& edge_labels() const {
    return edge_labels_.names();
  }

  /// Property definitions of `node_label` (empty when unknown label).
  const std::vector<PropertyDef>& Properties(std::string_view node_label) const;

  /// All basic triples Tb(S), in deterministic order.
  const std::vector<BasicTriple>& triples() const { return triples_; }

  /// Basic triples whose edge label is `edge_label`.
  std::vector<BasicTriple> TriplesForEdge(std::string_view edge_label) const;

  /// Distinct source labels admissible for `edge_label`.
  std::set<std::string> SourceLabelsOf(std::string_view edge_label) const;
  /// Distinct target labels admissible for `edge_label`.
  std::set<std::string> TargetLabelsOf(std::string_view edge_label) const;

  /// True when the schema admits `source -[edge]-> target`. Builds no
  /// string: the labels are looked up by id.
  bool Admits(std::string_view source_label, std::string_view edge_label,
              std::string_view target_label) const;

  /// OK when `source -[edge]-> target` is one of the basic triples (Def
  /// 5); otherwise InvalidArgument naming the undeclared edge label or
  /// the inadmissible triple.
  Status CheckEdge(std::string_view source_label, std::string_view edge_label,
                   std::string_view target_label) const;

  size_t num_node_labels() const { return node_labels_.size(); }
  size_t num_edge_labels() const { return edge_labels_.size(); }
  size_t num_triples() const { return triples_.size(); }

  /// Renders the schema in the text format accepted by ParseSchema().
  std::string ToString() const;

 private:
  SymbolTable node_labels_;
  SymbolTable edge_labels_;
  // Property defs indexed by node-label id.
  std::vector<std::vector<PropertyDef>> properties_;
  std::vector<BasicTriple> triples_;
  // Per edge-label id: the sorted (source, target) node-label id pairs it
  // admits. Answers Admits and keeps AddEdge idempotent.
  std::vector<std::vector<std::pair<SymbolId, SymbolId>>> endpoints_;
};

}  // namespace gqopt

#endif  // GQOPT_SCHEMA_GRAPH_SCHEMA_H_
