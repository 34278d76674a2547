#include "schema/symbol_table.h"

namespace gqopt {

SymbolId SymbolTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<SymbolId> SymbolTable::Find(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

}  // namespace gqopt
