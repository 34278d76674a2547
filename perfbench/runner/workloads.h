// The benchmark's workloads and their inputs: the generated graph (as the
// text the run ingests) and the query templates, fixed per workload, and
// the operation sequence of the timed phase, derived from the seed.

#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/workloads.h"
#include "graph/property_graph.h"
#include "schema/graph_schema.h"

namespace perfbench {

enum class Dataset { kYago, kLdbc };

struct WorkloadSpec {
  const char* name;
  Dataset dataset;
  size_t persons;
  /// Every request gets a query text no earlier request used (renamed
  /// variables, same rows), so every prepare misses the plan cache.
  bool fresh_texts;
  /// Edge inserts per pass of the query templates; 0 = read-only (the
  /// write probe then measures inserts after the reads).
  int writes_per_pass;
  /// Passes per second of --seconds: the op count follows from the run
  /// length alone, never from how fast this run happens to be.
  double passes_per_second;
  /// Set-up repetitions besides the served Database's own ingest;
  /// setup_s is the median of all of them.
  int setup_repeats;
  /// Inserts into each set-up repetition's Database (read-only workloads;
  /// 0 when the timed phase itself inserts).
  int probe_inserts;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// SplitMix64: the benchmark's own generator, so the op sequence does not
/// change when the library's generator does.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// One labelled edge insert.
struct EdgeInsert {
  gqopt::NodeId source = 0;
  gqopt::NodeId target = 0;
};

struct Inputs {
  gqopt::GraphSchema schema;
  /// The generated graph in graph_io text form; set-up ingests it.
  std::string graph_text;
  std::vector<gqopt::WorkloadQuery> templates;
  /// The schema-conforming edge every insert adds (source -> target).
  const char* insert_label = nullptr;
  const char* insert_source_label = nullptr;
  const char* insert_target_label = nullptr;
};

/// Generates the dataset of `spec`.
Inputs MakeInputs(const WorkloadSpec& spec);

/// True when the template reads the label inserts add: its rows may grow
/// with every insert, so the timed loop cannot know its count in advance.
bool ReadsInsertLabel(const gqopt::WorkloadQuery& query, const Inputs& inputs);

/// `count` distinct edges of the insert label that `graph` does not hold.
std::vector<EdgeInsert> MakeInserts(const Inputs& inputs,
                                    const gqopt::PropertyGraph& graph,
                                    size_t count, SplitMix64* rng);

/// A template's text with its two variables renamed after `k`: the same
/// rows under a text the plan cache has not seen.
std::string RenameVariables(const std::string& text, uint64_t k);

struct Op {
  bool write = false;
  size_t pass = 0;
  size_t query = 0;   // template index (reads)
  std::string text;   // reads
  EdgeInsert edge;    // writes
};

/// The timed phase: round(seconds * passes_per_second) passes, each every
/// template once and the first template twice in a seeded order, with the
/// pass's inserts at seeded positions that never put two writes next to
/// each other.
std::vector<Op> MakeOps(const WorkloadSpec& spec, const Inputs& inputs,
                        const gqopt::PropertyGraph& graph, uint64_t seed,
                        int seconds);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
