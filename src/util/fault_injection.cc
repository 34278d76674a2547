#include "util/fault_injection.h"

#include <cstdlib>

namespace gqopt {
namespace {

struct PointName {
  std::string_view name;
  FaultPoint point;
};

constexpr PointName kPointNames[] = {
    {"parse", FaultPoint::kParse},
    {"rewrite", FaultPoint::kRewrite},
    {"plan", FaultPoint::kPlan},
    {"execute", FaultPoint::kExecute},
    {"snapshot-build", FaultPoint::kSnapshotBuild},
    {"catalog-build", FaultPoint::kCatalogBuild},
    {"stats-build", FaultPoint::kStatsBuild},
    {"csr-build", FaultPoint::kCsrBuild},
    {"mem", FaultPoint::kMemReserve},
    {"delta-merge", FaultPoint::kDeltaMerge},
};

bool ParsePoint(std::string_view name, FaultPoint* out) {
  for (const PointName& p : kPointNames) {
    if (p.name == name) {
      *out = p.point;
      return true;
    }
  }
  return false;
}

bool ParseKind(std::string_view name, FaultKind* out) {
  if (name == "deadline") {
    *out = FaultKind::kDeadline;
  } else if (name == "alloc") {
    *out = FaultKind::kAlloc;
  } else if (name == "invalidate") {
    *out = FaultKind::kInvalidate;
  } else if (name == "none") {
    *out = FaultKind::kNone;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string_view FaultPointName(FaultPoint point) {
  return kPointNames[static_cast<size_t>(point)].name;
}

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDeadline:
      return "deadline";
    case FaultKind::kAlloc:
      return "alloc";
    case FaultKind::kInvalidate:
      return "invalidate";
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  // Thread-safe function-local static; the env spec is applied exactly
  // once, before the first probe anywhere can observe the injector.
  static FaultInjector* injector = [] {
    auto* in = new FaultInjector();
    if (const char* spec = std::getenv("GQOPT_FAULTS")) {
      in->ArmFromSpec(spec);
    }
    return in;
  }();
  return *injector;
}

void FaultInjector::Arm(FaultPoint point, FaultKind kind, uint32_t every_n) {
  Slot& slot = slots_[static_cast<size_t>(point)];
  slot.every_n.store(every_n < 1 ? 1 : every_n, std::memory_order_relaxed);
  // Kind is stored last: a concurrent probe that sees the new kind also
  // sees the new stride.
  slot.kind.store(kind, std::memory_order_release);
}

void FaultInjector::DisarmAll() {
  for (Slot& slot : slots_) {
    slot.kind.store(FaultKind::kNone, std::memory_order_relaxed);
    slot.every_n.store(1, std::memory_order_relaxed);
  }
}

void FaultInjector::ResetCounters() {
  for (Slot& slot : slots_) {
    slot.probes.store(0, std::memory_order_relaxed);
    slot.fires.store(0, std::memory_order_relaxed);
  }
}

FaultKind FaultInjector::ProbeSlow(FaultPoint point) {
  Slot& slot = slots_[static_cast<size_t>(point)];
  FaultKind kind = slot.kind.load(std::memory_order_acquire);
  if (kind == FaultKind::kNone) return FaultKind::kNone;
  uint64_t probe = slot.probes.fetch_add(1, std::memory_order_relaxed) + 1;
  uint32_t stride = slot.every_n.load(std::memory_order_relaxed);
  if (probe % stride != 0) return FaultKind::kNone;
  slot.fires.fetch_add(1, std::memory_order_relaxed);
  return kind;
}

bool FaultInjector::ArmFromSpec(std::string_view spec) {
  DisarmAll();
  bool ok = true;
  while (!spec.empty()) {
    size_t comma = spec.find(',');
    std::string_view entry = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      ok = false;
      continue;
    }
    std::string_view point_name = entry.substr(0, eq);
    std::string_view kind_name = entry.substr(eq + 1);
    uint32_t every_n = 1;
    size_t colon = kind_name.find(':');
    if (colon != std::string_view::npos) {
      std::string n(kind_name.substr(colon + 1));
      every_n = static_cast<uint32_t>(std::strtoul(n.c_str(), nullptr, 10));
      if (every_n < 1) every_n = 1;
      kind_name = kind_name.substr(0, colon);
    }
    FaultPoint point;
    FaultKind kind;
    if (!ParsePoint(point_name, &point) || !ParseKind(kind_name, &kind)) {
      ok = false;
      continue;
    }
    Arm(point, kind, every_n);
  }
  return ok;
}

std::string FaultInjector::Describe() const {
  std::string out;
  for (const PointName& p : kPointNames) {
    FaultKind kind = armed(p.point);
    uint64_t fired = fires(p.point);
    if (kind == FaultKind::kNone && fired == 0) continue;
    if (!out.empty()) out += ", ";
    out += p.name;
    out += '=';
    out += FaultKindName(kind);
    out += " (fired ";
    out += std::to_string(fired);
    out += '/';
    out += std::to_string(probes(p.point));
    out += ')';
  }
  if (out.empty()) out = "no faults armed";
  return out;
}

}  // namespace gqopt
