#include "api/options.h"

#include <cstdlib>
#include <string>

namespace gqopt {
namespace api {

ExecOptions ExecOptions::FromEnv() {
  ExecOptions options;
  if (const char* timeout = std::getenv("GQOPT_TIMEOUT_MS")) {
    options.timeout_ms = std::strtoll(timeout, nullptr, 10);
  }
  if (const char* reps = std::getenv("GQOPT_REPS")) {
    options.repetitions = static_cast<int>(std::strtol(reps, nullptr, 10));
    if (options.repetitions < 1) options.repetitions = 1;
  }
  if (const char* dop = std::getenv("GQOPT_DOP")) {
    int value = static_cast<int>(std::strtol(dop, nullptr, 10));
    if (value < 1) value = 1;
    if (value > 256) value = 256;
    options.dop = value;
  }
  if (const char* planner = std::getenv("GQOPT_PLANNER")) {
    options.planner = std::string(planner) == "greedy" ? PlannerKind::kGreedy
                                                       : PlannerKind::kDp;
  }
  if (const char* cache = std::getenv("GQOPT_PLAN_CACHE")) {
    options.use_plan_cache = std::string(cache) != "0";
  }
  options.mem_limit_bytes = ParseByteSize(std::getenv("GQOPT_MEM_LIMIT"));
  return options;
}

OptimizerOptions ExecOptions::ToOptimizerOptions() const {
  OptimizerOptions options;
  options.enable_fixpoint_seeding = enable_fixpoint_seeding;
  options.dop = dop;
  options.planner = planner;
  options.low_memory = low_memory;
  return options;
}

ExecContext ExecOptions::MakeExecContext() const {
  ExecContext ctx;
  ctx.deadline = Deadline::AfterMillis(timeout_ms);
  ctx.dop = dop;
  ctx.parallel_min_rows = parallel_min_rows;
  ctx.low_memory = low_memory;
  return ctx;
}

}  // namespace api
}  // namespace gqopt
