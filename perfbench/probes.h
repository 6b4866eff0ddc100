// The traced run (--trace 1): per-layer metrics, each timed from the
// benchmark's own code around calls into one module's public functions,
// on the workload's own corpus and requests. Metric names follow
// <module>.<metric>; perfbench/README.md maps each to the end-to-end
// metric and workload it should move.

#ifndef XKS_PERFBENCH_PROBES_H_
#define XKS_PERFBENCH_PROBES_H_

#include <functional>
#include <string>
#include <vector>

#include "perfbench/check.h"
#include "perfbench/loadgen.h"
#include "perfbench/report.h"
#include "perfbench/stack.h"
#include "perfbench/util.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// One timed open-loop phase with its correctness check.
struct Phase {
  std::vector<Record> records;
  CheckResult check;
  Samples first_page_ms;
  Samples next_page_ms;
  Samples send_lag_ms;
  /// Records that failed or did not match the library.
  size_t failed = 0;
  /// The status of the first record that got an error reply or none.
  std::string first_failure;
  double elapsed_s = 0;
};

struct ProbeContext {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  Stack* stack = nullptr;
  const CorpusFiles* files = nullptr;
  /// Database::Load time of the set-up.
  double load_s = 0;
  /// Fleet only: the one-node reference corpus.
  xks::Database* union_db = nullptr;
  /// Runs and checks one open-loop phase on the stack.
  std::function<Phase(const std::vector<Session>&, double)> run_phase;
};

/// Runs every probe, reports each metric and the result line; returns the
/// process exit code.
int RunProbes(const ProbeContext& context, Report* report);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_PROBES_H_
