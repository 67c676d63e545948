#ifndef PERFBENCH_HARNESS_TRACED_H_
#define PERFBENCH_HARNESS_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backends/einsum_engine.h"
#include "backends/minidb_backend.h"
#include "common/result.h"

namespace perfbench {

/// Process-wide deterministic work and cache counters (the metrics
/// registry's minidb.* / einsum.* counters plus the einsum pipeline cache's
/// hit/miss counts). Deltas of these across a request are its work counts.
struct WorkCounters {
  static const std::vector<std::string>& Names();
  static WorkCounters Read();

  WorkCounters Minus(const WorkCounters& before) const;
  int64_t Get(const std::string& name) const;

  std::vector<int64_t> values;  // parallel to Names()
};

/// One span of a traced request, timed by the benchmark around a call
/// into a layer's public function (or derived from the split that call
/// returns, for minidb parse/plan/exec).
struct Span {
  std::string name;
  std::string parent;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Layer attribution of one traced request. Times in milliseconds.
struct RequestTrace {
  int request = -1;
  /// The whole traced call: the envelope the layer times account for.
  double total_ms = 0.0;
  double path_ms = 0.0;      // core: program cache lookup + BuildProgram
  double sqlgen_ms = 0.0;    // core: SQL cache lookup + GenerateEinsumSql
  double query_ms = 0.0;     // minidb: Database::Execute wall time
  double parse_ms = 0.0;     // minidb: QueryStats split of query_ms
  double plan_ms = 0.0;
  double exec_ms = 0.0;
  double join_self_ms = 0.0;       // QueryProfile self time by operator kind
  double aggregate_self_ms = 0.0;
  double other_self_ms = 0.0;
  double peak_query_mib = 0.0;
  double decode_ms = 0.0;    // backends: ParseCooResult
  double tensor_ms = 0.0;    // tensor: DenseEinsumEngine::RunProgram
  int64_t sql_bytes = 0;
  int64_t steps = 0;
  double est_flops = 0.0;
  WorkCounters counts;       // work-counter deltas across the request
  std::vector<Span> spans;

  /// Sum of the leaf layer times; total_ms minus this is unattributed.
  double AttributedMs() const;
};

/// Whether request `index` of a traced run takes the traced path: about
/// half of them, picked by a fixed hash of the index rather than by parity,
/// which would line up with a workload's own request pattern.
bool IsTracedRequest(int index);

/// The traced twin of SqlEinsumEngine::EinsumSpecified on MiniDB. It calls
/// each layer's public entry point itself — BuildProgram, GenerateEinsumSql,
/// Database::Execute, ParseCooResult — and times each call. It consults and
/// fills the same process-global caches and bumps the same registry
/// instruments the engine does, so a traced request does the same work as
/// an untraced one (the benchmark's self-test checks that the cache and
/// work counters agree).
einsql::Result<einsql::CooTensor> TracedSqlEinsum(
    einsql::MiniDbBackend* backend, const einsql::EinsumSpec& spec,
    const std::vector<const einsql::CooTensor*>& tensors,
    const einsql::EinsumOptions& options, RequestTrace* trace);

/// The traced twin of DenseEinsumEngine::EinsumSpecified: cached program
/// lookup / BuildProgram, then DenseEinsumEngine::RunProgram.
einsql::Result<einsql::CooTensor> TracedDenseEinsum(
    einsql::DenseEinsumEngine* engine, const einsql::EinsumSpec& spec,
    const std::vector<const einsql::CooTensor*>& tensors,
    const einsql::EinsumOptions& options, RequestTrace* trace);

/// Writes the spans and per-request work counts of `traces` as a Chrome
/// trace_event JSON document (extra top-level key "requests").
einsql::Status WriteSpans(const std::string& path,
                          const std::vector<RequestTrace>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACED_H_
