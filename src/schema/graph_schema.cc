#include "schema/graph_schema.h"

#include <algorithm>
#include <cctype>

namespace gqopt {
namespace {

const std::vector<PropertyDef> kNoProperties;

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

std::string_view PropertyTypeName(PropertyType type) {
  switch (type) {
    case PropertyType::kString:
      return "string";
    case PropertyType::kInt:
      return "int";
    case PropertyType::kDouble:
      return "double";
    case PropertyType::kBool:
      return "bool";
    case PropertyType::kDate:
      return "date";
  }
  return "string";
}

Result<PropertyType> ParsePropertyType(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "string") return PropertyType::kString;
  if (lower == "int" || lower == "integer") return PropertyType::kInt;
  if (lower == "double" || lower == "float") return PropertyType::kDouble;
  if (lower == "bool" || lower == "boolean") return PropertyType::kBool;
  if (lower == "date") return PropertyType::kDate;
  return Status::InvalidArgument("unknown property type: " +
                                 std::string(name));
}

SymbolId GraphSchema::AddNodeLabel(std::string_view label) {
  SymbolId id = node_labels_.Intern(label);
  if (id >= properties_.size()) properties_.resize(id + 1);
  return id;
}

Status GraphSchema::AddProperty(std::string_view node_label,
                                std::string_view key, PropertyType type) {
  SymbolId id = AddNodeLabel(node_label);
  for (const PropertyDef& def : properties_[id]) {
    if (def.key == key) {
      if (def.type == type) return Status::OK();
      return Status::AlreadyExists("property '" + std::string(key) +
                                   "' re-declared with different type on " +
                                   std::string(node_label));
    }
  }
  properties_[id].push_back(PropertyDef{std::string(key), type});
  return Status::OK();
}

void GraphSchema::AddEdge(std::string_view source_label,
                          std::string_view edge_label,
                          std::string_view target_label) {
  std::pair<SymbolId, SymbolId> ends{AddNodeLabel(source_label),
                                     AddNodeLabel(target_label)};
  SymbolId edge = edge_labels_.Intern(edge_label);
  if (edge >= endpoints_.size()) endpoints_.resize(edge + 1);
  std::vector<std::pair<SymbolId, SymbolId>>& admitted = endpoints_[edge];
  auto it = std::lower_bound(admitted.begin(), admitted.end(), ends);
  if (it != admitted.end() && *it == ends) return;
  admitted.insert(it, ends);
  triples_.push_back(BasicTriple{std::string(source_label),
                                 std::string(edge_label),
                                 std::string(target_label)});
}

bool GraphSchema::HasNodeLabel(std::string_view label) const {
  return node_labels_.Find(label).has_value();
}

bool GraphSchema::HasEdgeLabel(std::string_view label) const {
  return edge_labels_.Find(label).has_value();
}

const std::vector<PropertyDef>& GraphSchema::Properties(
    std::string_view node_label) const {
  auto id = node_labels_.Find(node_label);
  if (!id.has_value()) return kNoProperties;
  return properties_[*id];
}

std::vector<BasicTriple> GraphSchema::TriplesForEdge(
    std::string_view edge_label) const {
  std::vector<BasicTriple> out;
  for (const BasicTriple& t : triples_) {
    if (t.edge_label == edge_label) out.push_back(t);
  }
  return out;
}

std::set<std::string> GraphSchema::SourceLabelsOf(
    std::string_view edge_label) const {
  std::set<std::string> out;
  for (const BasicTriple& t : triples_) {
    if (t.edge_label == edge_label) out.insert(t.source_label);
  }
  return out;
}

std::set<std::string> GraphSchema::TargetLabelsOf(
    std::string_view edge_label) const {
  std::set<std::string> out;
  for (const BasicTriple& t : triples_) {
    if (t.edge_label == edge_label) out.insert(t.target_label);
  }
  return out;
}

bool GraphSchema::Admits(std::string_view source_label,
                         std::string_view edge_label,
                         std::string_view target_label) const {
  std::optional<SymbolId> edge = edge_labels_.Find(edge_label);
  std::optional<SymbolId> source = node_labels_.Find(source_label);
  std::optional<SymbolId> target = node_labels_.Find(target_label);
  if (!edge || !source || !target) return false;
  return std::binary_search(endpoints_[*edge].begin(),
                            endpoints_[*edge].end(),
                            std::pair<SymbolId, SymbolId>{*source, *target});
}

Status GraphSchema::CheckEdge(std::string_view source_label,
                              std::string_view edge_label,
                              std::string_view target_label) const {
  if (Admits(source_label, edge_label, target_label)) return Status::OK();
  if (!HasEdgeLabel(edge_label)) {
    return Status::InvalidArgument("edge label '" + std::string(edge_label) +
                                   "' is not declared by the schema");
  }
  return Status::InvalidArgument(
      "schema does not admit " + std::string(source_label) + " -" +
      std::string(edge_label) + "-> " + std::string(target_label));
}

std::string GraphSchema::ToString() const {
  std::string out;
  for (const std::string& label : node_labels_.names()) {
    out += "node " + label;
    const auto& props = Properties(label);
    if (!props.empty()) {
      out += " {";
      for (size_t i = 0; i < props.size(); ++i) {
        if (i > 0) out += ", ";
        out += props[i].key + ":" + std::string(PropertyTypeName(props[i].type));
      }
      out += "}";
    }
    out += "\n";
  }
  for (const BasicTriple& t : triples_) {
    out += "edge " + t.source_label + " -" + t.edge_label + "-> " +
           t.target_label + "\n";
  }
  return out;
}

}  // namespace gqopt
