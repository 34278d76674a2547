#include "graph/schema_guard.h"

namespace gqopt {

Result<NodeId> SchemaGuard::AddNode(std::string_view label,
                                    std::vector<Property> properties) {
  if (!schema_.HasNodeLabel(label)) {
    return Status::InvalidArgument("node label '" + std::string(label) +
                                   "' is not declared by the schema");
  }
  const std::vector<PropertyDef>& defs = schema_.Properties(label);
  for (const Property& property : properties) {
    bool found = false;
    for (const PropertyDef& def : defs) {
      if (def.key != property.key) continue;
      found = true;
      if (def.type != property.value.type()) {
        return Status::InvalidArgument(
            "property '" + property.key + "' on " + std::string(label) +
            " must have type " + std::string(PropertyTypeName(def.type)) +
            ", got " + std::string(PropertyTypeName(property.value.type())));
      }
      break;
    }
    if (!found) {
      return Status::InvalidArgument("property '" + property.key +
                                     "' is not declared for label " +
                                     std::string(label));
    }
  }
  return graph_->AddNode(label, std::move(properties));
}

Status SchemaGuard::AddEdge(NodeId source, std::string_view edge_label,
                            NodeId target) {
  if (source >= graph_->num_nodes() || target >= graph_->num_nodes()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  GQOPT_RETURN_NOT_OK(schema_.CheckEdge(graph_->NodeLabel(source),
                                        edge_label,
                                        graph_->NodeLabel(target)));
  return graph_->AddEdge(source, edge_label, target);
}

}  // namespace gqopt
