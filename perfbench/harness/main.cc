// perfbench — runs one benchmark workload against the engine at its
// shipped defaults and prints its metrics. perfbench/run.py builds and
// invokes it; see perfbench/README.md for the workloads and metrics.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--requests <n>] [--spans <file>] [--corrupt-oracle]
//
// Output: report lines ("config ...", "metric <name> <value> <unit>",
// "invariant ...", "error ..."), then one JSON line with the gated
// metrics: the end-to-end set untraced (--trace 0), the per-layer set
// traced (--trace 1). Exit 0 iff every request succeeded with a correct
// answer; 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "backends/einsum_engine.h"
#include "common/simd.h"
#include "common/str_util.h"
#include "harness/report.h"
#include "harness/workloads.h"
#include "minidb/executor.h"
#include "minidb/planner.h"
#include "minidb/query_cache.h"
#include "server/server.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The gated metrics, in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"query_p50_ms", "ms"},
    {"query_p90_ms", "ms"},     {"queries_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.path_ms", "ms"},
    {"core.sqlgen_ms", "ms"},
    {"core.sql_kib", "KiB"},
    {"core.steps", "count"},
    {"core.est_mflop", "Mflop"},
    {"minidb.parse_ms", "ms"},
    {"minidb.plan_ms", "ms"},
    {"minidb.exec_ms", "ms"},
    {"minidb.join_self_ms", "ms"},
    {"minidb.aggregate_self_ms", "ms"},
    {"minidb.other_self_ms", "ms"},
    {"minidb.rows_joined", "count"},
    {"minidb.rows_aggregated", "count"},
    {"minidb.bytes_materialized", "bytes"},
    {"minidb.hash_entries", "count"},
    {"minidb.peak_query_mib", "MiB"},
    {"minidb.plan_hit_ratio", "ratio"},
    {"minidb.plan_lookups", "count"},
    {"minidb.relation_hit_ratio", "ratio"},
    {"minidb.relation_lookups", "count"},
    {"backends.decode_ms", "ms"},
    {"backends.engine_ms", "ms"},
    {"server.roundtrip_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"server.write_ms", "ms"},
    {"server.rejected", "count"},
    {"tensor.run_ms", "ms"},
    {"tensor.gops", "Gop/s"},
    {"loadgen.lag_p95_ms", "ms"},
    {"trace.request_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

struct Workload {
  const char* name;
  einsql::Result<Outcome> (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"sat_count", RunSatCount},
    {"graphical_batch", RunGraphicalBatch},
    {"triplestore_serve", RunTriplestoreServe},
    {"semiring_dense", RunSemiringDense},
};

// The engine configuration the workloads run at: the shipped defaults of
// EinsumOptions, MiniDB's planner, executor and cache, the server's
// admission limits, and SIMD dispatch (environment overrides applied, as
// the engine applies them).
std::vector<std::pair<std::string, std::string>> EngineConfig() {
  const einsql::EinsumOptions einsum;
  const einsql::minidb::PlannerOptions planner;
  einsql::minidb::ExecutorOptions executor;
  einsql::minidb::ApplyExecutorEnvOverrides(&executor);
  const einsql::server::ServerOptions server;
  auto flag = [](bool on) { return std::string(on ? "on" : "off"); };
  return {
      {"einsum.path", einsql::PathAlgorithmToString(einsum.path)},
      {"einsum.decompose", flag(einsum.decompose)},
      {"einsum.simplify", flag(einsum.simplify)},
      {"einsum.reuse_caches", flag(einsum.reuse_caches)},
      {"minidb.optimizer", einsql::minidb::OptimizerModeToString(planner.mode)},
      {"minidb.parallel_operators", flag(executor.parallel_operators)},
      {"minidb.parallel_ctes", flag(executor.parallel_ctes)},
      {"minidb.num_threads", std::to_string(executor.num_threads)},
      {"minidb.morsel_rows", std::to_string(executor.morsel_rows)},
      {"minidb.adaptive_parallelism", flag(executor.adaptive_parallelism)},
      {"minidb.vectorized", flag(executor.vectorized)},
      {"minidb.cache", flag(einsql::minidb::CacheEnabledByEnv())},
      {"server.max_concurrent", std::to_string(server.max_concurrent)},
      {"server.max_queue", std::to_string(server.max_queue)},
      {"simd", flag(einsql::simd::Enabled())},
  };
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--requests "
               "<n>] [--spans <file>] [--corrupt-oracle]\nworkloads:",
               problem.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

// Fills `out` with exactly the metrics of `defs`, taking values from
// `measured`. A metric the workload does not exercise reads 0; a measured
// metric must carry the unit the definition names.
bool SelectMetrics(const MetricDef* defs, size_t count,
                   const MetricSet& measured, bool require_all,
                   MetricSet* out) {
  for (size_t i = 0; i < count; ++i) {
    const MetricSet::Entry* found = nullptr;
    for (const MetricSet::Entry& e : measured.entries()) {
      if (e.name == defs[i].name) found = &e;
    }
    if (found != nullptr && found->unit != defs[i].unit) {
      std::fprintf(stderr, "metric %s measured in %s, declared in %s\n",
                   defs[i].name, found->unit.c_str(), defs[i].unit);
      return false;
    }
    if (found == nullptr && require_all) {
      std::fprintf(stderr, "metric %s was not measured\n", defs[i].name);
      return false;
    }
    out->Set(defs[i].name, found ? found->value : 0.0, defs[i].unit);
  }
  return true;
}

void PrintMetrics(const MetricSet& metrics) {
  for (const MetricSet::Entry& e : metrics.entries()) {
    std::printf("metric %s %s %s\n", e.name.c_str(),
                FormatNumber(e.value).c_str(), e.unit.c_str());
  }
}

int Run(int argc, char** argv) {
  RunOptions options;
  std::string workload_name;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : nullptr;
    };
    if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage("missing value for " + arg);
    if (arg == "--workload") {
      workload_name = v;
    } else if (arg == "--spans") {
      options.spans_path = v;
    } else {
      const einsql::Result<double> number = einsql::ParseDouble(v);
      if (!number.ok() || *number < 0 || *number > 1e12 ||
          (arg != "--seconds" && *number != static_cast<int64_t>(*number))) {
        return Usage("invalid value '" + std::string(v) + "' for " + arg);
      }
      if (arg == "--seed") {
        options.seed = static_cast<uint64_t>(*number);
        have_seed = true;
      } else if (arg == "--seconds" && *number > 0 && *number <= 600) {
        options.seconds = *number;
        have_seconds = true;
      } else if (arg == "--trace" && *number <= 1) {
        options.trace = *number == 1;
        have_trace = true;
      } else if (arg == "--requests" && *number <= 100000) {
        options.max_requests = static_cast<int>(*number);
      } else {
        return Usage("invalid option " + arg + " " + v);
      }
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return Usage("unknown workload '" + workload_name + "'");
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              workload->name, static_cast<unsigned long long>(options.seed),
              FormatNumber(options.seconds).c_str(), options.trace ? 1 : 0);
  for (const auto& [key, value] : EngineConfig()) {
    std::printf("config %s %s\n", key.c_str(), value.c_str());
  }
  std::fflush(stdout);
  einsql::Result<Outcome> result = workload->run(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name,
                 result.status().ToString().c_str());
    return 1;
  }
  Outcome& outcome = *result;
  const double error_rate =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) / outcome.attempted
          : 1.0;
  outcome.extra.Set("error_rate", error_rate, "ratio");

  MetricSet gated;
  const bool selected =
      options.trace
          ? SelectMetrics(kPerLayer, std::size(kPerLayer), outcome.per_layer,
                          /*require_all=*/false, &gated)
          : SelectMetrics(kEndToEnd, std::size(kEndToEnd),
                          outcome.end_to_end, /*require_all=*/true, &gated);
  if (!selected) return 1;
  PrintMetrics(gated);
  PrintMetrics(outcome.extra);
  for (const auto& [key, value] : outcome.invariants) {
    std::printf("invariant %s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& error : outcome.errors) {
    std::printf("error %s\n", error.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), gated.ToJson().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
