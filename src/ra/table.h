// Row-major in-memory tables over node ids: the value domain of RRA plan
// execution (the relational representation of Fig 11).

#ifndef GQOPT_RA_TABLE_H_
#define GQOPT_RA_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/property_graph.h"

namespace gqopt {

/// \brief Named-column table of NodeId values, row-major.
///
/// Row storage is a shared copy-on-write block: copying a Table (memo
/// hits, relabeling) shares the data and only mutation clones it. This
/// makes structural-memoization hits O(columns) instead of O(rows).
class Table {
 public:
  Table() : block_(std::make_shared<std::vector<NodeId>>()) {}
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)),
        block_(std::make_shared<std::vector<NodeId>>()) {}

  /// Wraps pre-built row-major storage without copying. `data.size()`
  /// must be a multiple of `columns.size()`. The hot executor paths build
  /// rows into a plain vector and adopt it here, skipping the per-row
  /// copy-on-write bookkeeping of AddRow.
  static Table FromData(std::vector<std::string> columns,
                        std::vector<NodeId> data) {
    Table t(std::move(columns));
    *t.block_ = std::move(data);
    return t;
  }

  const std::vector<std::string>& columns() const { return columns_; }
  size_t arity() const { return columns_.size(); }
  size_t rows() const {
    return columns_.empty() ? 0 : block_->size() / columns_.size();
  }
  bool empty() const { return block_->empty(); }

  /// Index of `column`, or -1.
  int ColumnIndex(const std::string& column) const;

  NodeId At(size_t row, size_t col) const {
    return (*block_)[row * arity() + col];
  }

  /// Appends a row; `values` must have arity() entries.
  void AddRow(const NodeId* values);
  void AddRow(const std::vector<NodeId>& values) { AddRow(values.data()); }

  /// Pointer to the start of `row`.
  const NodeId* Row(size_t row) const {
    return block_->data() + row * arity();
  }

  /// Sorts rows lexicographically and drops duplicates. A sorted table
  /// is only scanned for adjacent duplicates; an unsorted one-column
  /// table whose id span is below 8 × rows + 1024 is deduplicated through
  /// a bitmap over [min, max], written to fresh storage, instead of a
  /// sort.
  void SortDistinct();

  /// Physical ordering property: the number of leading columns the rows
  /// are known to be (non-strictly) lexicographically sorted on, each in
  /// the per-column direction reported by sort_descending(). 0 means no
  /// known ordering; arity() means fully sorted. Every executor operator
  /// derives its output prefix from its inputs (filters keep it,
  /// projections keep the identity-mapped leading run, merge/offset joins
  /// keep the probe side's), so the planner's ordering-based join
  /// strategies stay valid at runtime. Cleared by row mutation.
  size_t sort_prefix() const { return sort_prefix_; }

  /// Direction of sorted-prefix column `col`: true = descending. Columns
  /// past the declared direction vector (and every column of a prefix
  /// declared without directions) are ascending — the historical default,
  /// which left the direction unspecified and let a descending producer
  /// masquerade as merge-join input.
  bool sort_descending(size_t col) const {
    return col < sort_desc_.size() && sort_desc_[col];
  }

  /// The leading run of the sorted prefix that is ascending. This — not
  /// sort_prefix() — is the property the merge/offset join and the
  /// sorted-offset/bitmap fast paths require: they binary-search and
  /// max-key-bound ascending runs.
  size_t ascending_prefix() const {
    for (size_t i = 0; i < sort_prefix_; ++i) {
      if (sort_descending(i)) return i;
    }
    return sort_prefix_;
  }

  /// Declares the rows sorted ascending on the first `prefix` columns
  /// (caller-asserted; clamped to arity()).
  void MarkSortPrefix(size_t prefix) {
    sort_prefix_ = prefix < arity() ? prefix : arity();
    sort_desc_.clear();
  }

  /// Declares the rows sorted on the first `prefix` columns with
  /// per-column directions (`descending[i]` true = column i descending;
  /// missing entries are ascending).
  void MarkSortPrefix(size_t prefix, std::vector<bool> descending) {
    sort_prefix_ = prefix < arity() ? prefix : arity();
    descending.resize(sort_prefix_, false);
    sort_desc_ = std::move(descending);
  }

  /// Declares the rows sorted like the leading `prefix` columns of `src`
  /// (clamped to src's known prefix; directions copied). The positional
  /// propagation used by order-preserving operators.
  void MarkSortPrefixFrom(const Table& src, size_t prefix);

  /// True when the rows are known to be fully lexicographically sorted,
  /// every column ascending (the canonical order SortDistinct produces).
  bool sorted() const {
    return sort_prefix_ == arity() && ascending_prefix() == arity();
  }

  /// Declares the rows fully lexicographically sorted ascending (used by
  /// scans and closures that produce sorted output by construction).
  void MarkSorted() {
    sort_prefix_ = arity();
    sort_desc_.clear();
  }

  /// Raw storage (row-major).
  const std::vector<NodeId>& data() const { return *block_; }

  /// This table with the columns renamed positionally; shares the row
  /// storage (zero copy). `columns.size()` must equal arity().
  Table RenamedTo(std::vector<std::string> columns) const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Row storage for writing; clones the block first when shared.
  std::vector<NodeId>& Mutable() {
    if (block_.use_count() > 1) {
      block_ = std::make_shared<std::vector<NodeId>>(*block_);
    }
    return *block_;
  }

  std::vector<std::string> columns_;
  std::shared_ptr<std::vector<NodeId>> block_;
  size_t sort_prefix_ = 0;
  /// Per-column direction of the sorted prefix (true = descending).
  /// Empty means all ascending — the common case stays allocation-free.
  std::vector<bool> sort_desc_;
};

}  // namespace gqopt

#endif  // GQOPT_RA_TABLE_H_
