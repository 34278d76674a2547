#include "ra/catalog.h"

#include <algorithm>
#include <mutex>
#include <new>

#include "util/fault_injection.h"

namespace gqopt {

Catalog::Catalog(const PropertyGraph& graph)
    : graph_(graph), stats_(graph_) {
  graph_.Finalize();
}

Catalog::Catalog(const Catalog* base, inc::SealedDeltaPtr delta)
    : graph_(base->graph_),
      delta_(std::move(delta)),
      stats_(graph_, &base->stats_, delta_.get()) {}

inc::MergedEdgeRun Catalog::EdgeView(const std::string& label) const {
  // The view is where a scan first touches the catalog, so it carries
  // the catalog-build fault coverage (typed failure at the facade).
  if (FaultHit(FaultPoint::kCatalogBuild) == FaultKind::kAlloc) {
    throw std::bad_alloc();
  }
  inc::MergedEdgeRun run;
  run.base = &graph_.EdgesByLabel(label);
  if (delta_ != nullptr) run.extra = &delta_->ForwardRun(label);
  return run;
}

const std::vector<NodeId>& Catalog::NodeExtent(
    const std::string& label) const {
  if (delta_ == nullptr || !delta_->TouchesNodeLabel(label)) {
    return graph_.NodesWithLabel(label);
  }
  {
    std::shared_lock<std::shared_mutex> lock(extent_mu_);
    auto it = extent_cache_.find(label);
    if (it != extent_cache_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(extent_mu_);
  auto it = extent_cache_.find(label);
  if (it == extent_cache_.end()) {
    // Every pending id is greater than every base id, so concatenation
    // is the sorted union.
    const std::vector<NodeId>& base_extent = graph_.NodesWithLabel(label);
    const std::vector<NodeId>& pending = delta_->NodesWithLabel(label);
    std::vector<NodeId> merged;
    merged.reserve(base_extent.size() + pending.size());
    merged.insert(merged.end(), base_extent.begin(), base_extent.end());
    merged.insert(merged.end(), pending.begin(), pending.end());
    it = extent_cache_.emplace(label, std::move(merged)).first;
  }
  return it->second;
}

std::vector<NodeId> Catalog::NodeExtentUnion(
    const std::vector<std::string>& labels) const {
  std::vector<NodeId> out;
  for (const std::string& label : labels) {
    const auto& extent = NodeExtent(label);
    out.insert(out.end(), extent.begin(), extent.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gqopt
