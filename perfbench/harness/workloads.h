#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness/report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Traced run: per-layer attribution instead of end-to-end metrics.
  bool trace = false;
  /// Self-test hook: perturbs one oracle answer so the check must fail.
  bool corrupt_oracle = false;
  /// When > 0, the timed phase ends after this many requests instead of
  /// after `seconds` (closed-loop workloads; used by the self-tests to
  /// compare traced and untraced runs request for request).
  int max_requests = 0;
  /// Where a traced run writes its spans; empty = not written.
  std::string spans_path;
};

/// Set-up runs this many times per run, each on the next CPU (CpuRotation),
/// so twice on each CPU of a 4-CPU host; setup_s is the median.
constexpr int kSetupRepeats = 8;

einsql::Result<Outcome> RunSatCount(const RunOptions& options);
einsql::Result<Outcome> RunGraphicalBatch(const RunOptions& options);
einsql::Result<Outcome> RunSemiringDense(const RunOptions& options);
einsql::Result<Outcome> RunTriplestoreServe(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
