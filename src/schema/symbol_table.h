// Interning table mapping label strings to dense uint32 ids.

#ifndef GQOPT_SCHEMA_SYMBOL_TABLE_H_
#define GQOPT_SCHEMA_SYMBOL_TABLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gqopt {

/// Dense identifier for an interned symbol (node label, edge label, ...).
using SymbolId = uint32_t;

/// Sentinel for "no symbol".
inline constexpr SymbolId kInvalidSymbol = UINT32_MAX;

/// \brief Bidirectional string <-> dense-id interning table.
///
/// Ids are assigned in insertion order starting at 0, so they can index
/// per-symbol side vectors directly. Lookups hash the string_view itself
/// and build no std::string.
class SymbolTable {
 public:
  /// Returns the id of `name`, interning it on first use.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name` if already interned.
  std::optional<SymbolId> Find(std::string_view name) const;

  /// Returns the string for `id`. `id` must be valid.
  const std::string& Name(SymbolId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  /// All interned names in id order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, SymbolId, Hash, std::equal_to<>> ids_;
};

}  // namespace gqopt

#endif  // GQOPT_SCHEMA_SYMBOL_TABLE_H_
