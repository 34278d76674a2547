#include "ra/table.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace gqopt {

int Table::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == column) return static_cast<int>(i);
  }
  return -1;
}

void Table::AddRow(const NodeId* values) {
  std::vector<NodeId>& data = Mutable();
  data.insert(data.end(), values, values + arity());
  sort_prefix_ = 0;
  sort_desc_.clear();
}

void Table::MarkSortPrefixFrom(const Table& src, size_t prefix) {
  prefix = std::min(prefix, src.sort_prefix_);
  std::vector<bool> desc;
  if (!src.sort_desc_.empty()) {
    desc.assign(src.sort_desc_.begin(),
                src.sort_desc_.begin() +
                    static_cast<long>(std::min(prefix, src.sort_desc_.size())));
  }
  MarkSortPrefix(prefix, std::move(desc));
}

void Table::SortDistinct() {
  size_t n = rows();
  size_t k = arity();
  if (n <= 1 || k == 0) {
    MarkSorted();
    return;
  }
  if (sorted()) {
    // Already sorted: scan for adjacent duplicates on the const block
    // first, so distinct-on-distinct (edge scans, closure results) never
    // clones shared copy-on-write storage.
    const NodeId* base = block_->data();
    bool has_dup = false;
    for (size_t r = 1; r < n && !has_dup; ++r) {
      has_dup = std::equal(base + (r - 1) * k, base + r * k, base + r * k);
    }
    if (!has_dup) return;
  }
  bool was_sorted = sorted();
  if (k == 1 && !was_sorted) {
    const std::vector<NodeId>& in = *block_;
    auto [lo, hi] = std::minmax_element(in.begin(), in.end());
    NodeId min = *lo;
    uint64_t span = uint64_t{*hi} - min + 1;
    if (span <= 8 * uint64_t{n} + 1024) {
      // Dense span: one bit per id over [min, max], read back in order
      // instead of sorting. The bitmap takes at most n + 128 bytes.
      std::vector<uint64_t> bits((span + 63) / 64, 0);
      for (NodeId v : in) {
        bits[(v - min) >> 6] |= uint64_t{1} << ((v - min) & 63);
      }
      std::vector<NodeId> out;
      for (size_t w = 0; w < bits.size(); ++w) {
        for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
          out.push_back(min + static_cast<NodeId>(w * 64 +
                                                  std::countr_zero(word)));
        }
      }
      // Fresh storage: a shared input block is read, never cloned.
      block_ = std::make_shared<std::vector<NodeId>>(std::move(out));
      MarkSorted();
      return;
    }
  }
  std::vector<NodeId>& data = Mutable();
  if (k == 1) {
    if (!was_sorted) std::sort(data.begin(), data.end());
    data.erase(std::unique(data.begin(), data.end()), data.end());
    MarkSorted();
    return;
  }
  if (k == 2) {
    // Pack pairs into 64-bit keys: one flat sort instead of an index sort
    // with a lexicographic comparator.
    std::vector<uint64_t> keys(n);
    for (size_t r = 0; r < n; ++r) {
      keys[r] = (static_cast<uint64_t>(data[2 * r]) << 32) |
                data[2 * r + 1];
    }
    if (!was_sorted) std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    data.resize(keys.size() * 2);
    for (size_t r = 0; r < keys.size(); ++r) {
      data[2 * r] = static_cast<NodeId>(keys[r] >> 32);
      data[2 * r + 1] = static_cast<NodeId>(keys[r]);
    }
    MarkSorted();
    return;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const NodeId* base = data.data();
  auto cmp = [base, k](size_t a, size_t b) {
    return std::lexicographical_compare(base + a * k, base + (a + 1) * k,
                                        base + b * k, base + (b + 1) * k);
  };
  auto eq = [base, k](size_t a, size_t b) {
    return std::equal(base + a * k, base + (a + 1) * k, base + b * k);
  };
  if (!was_sorted) std::sort(order.begin(), order.end(), cmp);
  order.erase(std::unique(order.begin(), order.end(), eq), order.end());
  std::vector<NodeId> out;
  out.reserve(order.size() * k);
  for (size_t row : order) {
    out.insert(out.end(), base + row * k, base + (row + 1) * k);
  }
  data = std::move(out);
  MarkSorted();
}

Table Table::RenamedTo(std::vector<std::string> columns) const {
  Table out(std::move(columns));
  out.block_ = block_;  // shared copy-on-write: no data copy
  out.sort_prefix_ = sort_prefix_;  // renaming is positional: order is kept
  out.sort_desc_ = sort_desc_;
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns_[i];
  }
  out += "\n";
  size_t shown = std::min(rows(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < arity(); ++c) {
      if (c > 0) out += " | ";
      out += std::to_string(At(r, c));
    }
    out += "\n";
  }
  if (shown < rows()) {
    out += "... (" + std::to_string(rows()) + " rows total)\n";
  }
  return out;
}

}  // namespace gqopt
