#include "harness/traced.h"

#include <algorithm>
#include <fstream>

#include "backends/einsum_cache.h"
#include "common/fnv.h"
#include "common/metrics.h"
#include "core/format.h"
#include "core/program.h"
#include "core/sqlgen.h"
#include "harness/report.h"
#include "minidb/query_cache.h"
#include "tensor/digest.h"

namespace perfbench {

using namespace einsql;  // NOLINT

namespace {

// Registry counters that are pure functions of the work done (no timing).
const char* const kRegistryCounters[] = {
    "minidb.queries",
    "minidb.rows_scanned",
    "minidb.rows_joined",
    "minidb.rows_aggregated",
    "minidb.bytes_materialized",
    "minidb.hash_entries",
    "minidb.ctes_materialized",
    "minidb.cache.plan_hits",
    "minidb.cache.plan_misses",
    "minidb.cache.relation_hits",
    "minidb.cache.relation_misses",
    "einsum.programs_built",
    "einsum.steps_planned",
    "einsum.sql_programs",
    "einsum.sql_bytes",
};

// The pipeline cache keeps its own counters, outside the registry.
const char* const kPipelineCounters[] = {
    "einsum.cache.program_hits",
    "einsum.cache.program_misses",
    "einsum.cache.sql_hits",
    "einsum.cache.sql_misses",
};

// Mirrors the engine's per-call cache gate (caller opt-out AND the
// MINIDB_CACHE switch, which the benchmark refuses to run under anyway).
bool UseCaches(const EinsumOptions& options) {
  return options.reuse_caches && minidb::CacheEnabledByEnv();
}

// Times one stage of a traced request and records it as a span.
class StageTimer {
 public:
  StageTimer(RequestTrace* trace, const char* name, const char* parent)
      : trace_(trace), name_(name), parent_(parent), start_(NowSeconds()) {}

  // Ends the stage; returns its duration in milliseconds.
  double End() {
    const double end = NowSeconds();
    trace_->spans.push_back({name_, parent_, start_, end});
    return (end - start_) * 1e3;
  }
  double start() const { return start_; }

 private:
  RequestTrace* trace_;
  const char* name_;
  const char* parent_;
  double start_;
};

// The engine's program stage: process-global program cache, BuildProgram
// on a miss, and the pipeline instruments the engine bumps for a build.
Result<ContractionProgram> CachedProgram(const EinsumSpec& spec,
                                         const std::vector<Shape>& shapes,
                                         const EinsumOptions& options,
                                         RequestTrace* trace) {
  StageTimer timer(trace, "core.path", "backends.engine");
  std::string key;
  if (UseCaches(options)) {
    key = ProgramCacheKey(spec, shapes, options.path, options.semiring);
    if (std::shared_ptr<const ContractionProgram> hit =
            EinsumPipelineCache::Global().LookupProgram(key)) {
      trace->path_ms = timer.End();
      return *hit;
    }
  }
  EINSQL_ASSIGN_OR_RETURN(
      ContractionProgram program,
      BuildProgram(spec, shapes, options.path, options.semiring));
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.counter("einsum.programs_built")->Increment();
  registry.counter("einsum.steps_planned")
      ->Increment(static_cast<int64_t>(program.steps.size()));
  registry.histogram("einsum.est_flops")->Record(program.est_flops);
  if (!key.empty()) EinsumPipelineCache::Global().InsertProgram(key, program);
  trace->path_ms = timer.End();
  return program;
}

std::vector<Shape> ShapesOf(const std::vector<const CooTensor*>& tensors) {
  std::vector<Shape> shapes;
  shapes.reserve(tensors.size());
  for (const CooTensor* t : tensors) shapes.push_back(t->shape());
  return shapes;
}

void RecordEstimationErrors(const minidb::OperatorProfile& op,
                            Histogram* qerror) {
  qerror->Record(op.est_error());
  for (const auto& child : op.children) RecordEstimationErrors(child, qerror);
}

// Operator self time (inclusive time minus the children's), by kind.
void AddSelfTimes(const minidb::OperatorProfile& op, RequestTrace* trace) {
  double children = 0.0;
  for (const auto& child : op.children) {
    children += child.wall_seconds;
    AddSelfTimes(child, trace);
  }
  const double self_ms = std::max(0.0, op.wall_seconds - children) * 1e3;
  switch (op.kind) {
    case minidb::PlanKind::kJoin:
      trace->join_self_ms += self_ms;
      break;
    case minidb::PlanKind::kAggregate:
      trace->aggregate_self_ms += self_ms;
      break;
    default:
      trace->other_self_ms += self_ms;
      break;
  }
}

// Finishes a traced request: envelope span and work-counter deltas.
void FinishRequest(const WorkCounters& before, double start_s,
                   RequestTrace* trace) {
  const double end = NowSeconds();
  trace->counts = WorkCounters::Read().Minus(before);
  trace->total_ms = (end - start_s) * 1e3;
  trace->spans.push_back({"backends.engine", "", start_s, end});
}

}  // namespace

const std::vector<std::string>& WorkCounters::Names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all(std::begin(kRegistryCounters),
                                 std::end(kRegistryCounters));
    all.insert(all.end(), std::begin(kPipelineCounters),
               std::end(kPipelineCounters));
    return all;
  }();
  return names;
}

WorkCounters WorkCounters::Read() {
  WorkCounters out;
  MetricsRegistry& registry = MetricsRegistry::Default();
  for (const char* name : kRegistryCounters) {
    out.values.push_back(registry.counter(name)->value());
  }
  const EinsumCacheStats cache = EinsumPipelineCache::Global().stats();
  out.values.push_back(cache.program_hits);
  out.values.push_back(cache.program_misses);
  out.values.push_back(cache.sql_hits);
  out.values.push_back(cache.sql_misses);
  return out;
}

WorkCounters WorkCounters::Minus(const WorkCounters& before) const {
  WorkCounters out = *this;
  for (size_t i = 0; i < out.values.size() && i < before.values.size(); ++i) {
    out.values[i] -= before.values[i];
  }
  return out;
}

int64_t WorkCounters::Get(const std::string& name) const {
  const std::vector<std::string>& names = Names();
  for (size_t i = 0; i < names.size() && i < values.size(); ++i) {
    if (names[i] == name) return values[i];
  }
  return 0;
}

bool IsTracedRequest(int index) {
  Digest128 digest;
  digest.Update(static_cast<int64_t>(index));
  return (digest.ToHex().back() - '0') % 2 == 1;
}

double RequestTrace::AttributedMs() const {
  return path_ms + sqlgen_ms + parse_ms + plan_ms + exec_ms + decode_ms +
         tensor_ms;
}

Result<CooTensor> TracedSqlEinsum(MiniDbBackend* backend,
                                  const EinsumSpec& spec,
                                  const std::vector<const CooTensor*>& tensors,
                                  const EinsumOptions& options,
                                  RequestTrace* trace) {
  const WorkCounters before = WorkCounters::Read();
  const double start = NowSeconds();
  const std::vector<Shape> shapes = ShapesOf(tensors);
  EINSQL_ASSIGN_OR_RETURN(ContractionProgram program,
                          CachedProgram(spec, shapes, options, trace));
  EINSQL_RETURN_IF_ERROR(IndexExtents(program.spec, shapes).status());

  // SQL text: keyed on program + operand contents, as in the engine.
  StageTimer sqlgen(trace, "core.sqlgen", "backends.engine");
  SqlGenOptions gen_options;
  gen_options.decompose = options.decompose;
  gen_options.simplify = options.simplify;
  std::string sql;
  std::string sql_key;
  if (UseCaches(options)) {
    std::vector<std::string> digests;
    digests.reserve(tensors.size());
    for (const CooTensor* t : tensors) digests.push_back(TensorContentDigest(*t));
    sql_key = SqlCacheKey(program, digests, gen_options,
                          /*complex_values=*/false);
    if (std::shared_ptr<const std::string> hit =
            EinsumPipelineCache::Global().LookupSql(sql_key)) {
      sql = *hit;
    }
  }
  if (sql.empty()) {
    EINSQL_ASSIGN_OR_RETURN(sql,
                            GenerateEinsumSql(program, tensors, gen_options));
    MetricsRegistry& registry = MetricsRegistry::Default();
    registry.counter("einsum.sql_programs")->Increment();
    registry.counter("einsum.sql_bytes")
        ->Increment(static_cast<int64_t>(sql.size()));
    registry.histogram("einsum.sql_gen_seconds")
        ->Record(NowSeconds() - sqlgen.start());
    if (!sql_key.empty()) EinsumPipelineCache::Global().InsertSql(sql_key, sql);
  }
  trace->sqlgen_ms = sqlgen.End();
  trace->sql_bytes = static_cast<int64_t>(sql.size());
  trace->steps = static_cast<int64_t>(program.steps.size());
  trace->est_flops = program.est_flops;

  // MiniDB: Database::Execute returns the parse/plan/exec split that
  // SqlBackend::Query folds into BackendStats; the q-error bookkeeping is
  // MiniDbBackend::Query's.
  StageTimer query(trace, "minidb.query", "backends.engine");
  minidb::Database& db = backend->database();
  EINSQL_ASSIGN_OR_RETURN(minidb::QueryResult result, db.Execute(sql));
  trace->query_ms = query.End();
  trace->parse_ms = result.stats.parse_seconds * 1e3;
  trace->plan_ms = result.stats.plan_seconds * 1e3;
  trace->exec_ms = result.stats.exec_seconds * 1e3;
  double at = query.start();
  for (const auto& [name, ms] :
       {std::pair<const char*, double>{"minidb.parse", trace->parse_ms},
        {"minidb.plan", trace->plan_ms},
        {"minidb.exec", trace->exec_ms}}) {
    trace->spans.push_back({name, "minidb.query", at, at + ms / 1e3});
    at += ms / 1e3;
  }
  if (const minidb::QueryProfile* profile = db.last_profile()) {
    static Histogram* qerror =
        MetricsRegistry::Default().histogram("minidb.qerror");
    RecordEstimationErrors(profile->root, qerror);
    AddSelfTimes(profile->root, trace);
    for (const auto& cte : profile->ctes) {
      RecordEstimationErrors(cte.root, qerror);
      AddSelfTimes(cte.root, trace);
    }
    trace->peak_query_mib =
        static_cast<double>(profile->peak_memory_bytes) / (1 << 20);
  }

  StageTimer decode(trace, "backends.decode", "backends.engine");
  EINSQL_ASSIGN_OR_RETURN(Shape output_shape,
                          OutputShape(program.spec, program.extents));
  Result<CooTensor> out =
      ParseCooResult(result.relation, output_shape, options.epsilon,
                     Semiring(program.semiring));
  trace->decode_ms = decode.End();
  FinishRequest(before, start, trace);
  return out;
}

Result<CooTensor> TracedDenseEinsum(DenseEinsumEngine* engine,
                                    const EinsumSpec& spec,
                                    const std::vector<const CooTensor*>& tensors,
                                    const EinsumOptions& options,
                                    RequestTrace* trace) {
  const WorkCounters before = WorkCounters::Read();
  const double start = NowSeconds();
  EINSQL_ASSIGN_OR_RETURN(
      ContractionProgram program,
      CachedProgram(spec, ShapesOf(tensors), options, trace));
  trace->steps = static_cast<int64_t>(program.steps.size());
  trace->est_flops = program.est_flops;
  StageTimer run(trace, "tensor.run", "backends.engine");
  Result<CooTensor> out = engine->RunProgram(program, tensors, options);
  trace->tensor_ms = run.End();
  FinishRequest(before, start, trace);
  return out;
}

Status WriteSpans(const std::string& path,
                  const std::vector<RequestTrace>& traces) {
  double origin = 0.0;
  for (const RequestTrace& trace : traces) {
    for (const Span& span : trace.spans) {
      if (origin == 0.0 || span.start_s < origin) origin = span.start_s;
    }
  }
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write '", path, "'");
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const RequestTrace& trace : traces) {
    for (const Span& span : trace.spans) {
      out << (first ? "\n" : ",\n") << "{\"name\": " << JsonString(span.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << FormatNumber((span.start_s - origin) * 1e6)
          << ", \"dur\": " << FormatNumber((span.end_s - span.start_s) * 1e6)
          << ", \"args\": {\"request\": " << trace.request
          << ", \"parent\": " << JsonString(span.parent) << "}}";
      first = false;
    }
  }
  out << "\n],\n\"requests\": [";
  const std::vector<std::string>& names = WorkCounters::Names();
  for (size_t r = 0; r < traces.size(); ++r) {
    const RequestTrace& trace = traces[r];
    out << (r == 0 ? "\n" : ",\n") << "{\"request\": " << trace.request
        << ", \"counts\": {\"core.sql_bytes\": " << trace.sql_bytes
        << ", \"core.steps\": " << trace.steps
        << ", \"core.est_flops\": " << FormatNumber(trace.est_flops);
    for (size_t i = 0; i < names.size() && i < trace.counts.values.size();
         ++i) {
      out << ", " << JsonString(names[i]) << ": " << trace.counts.values[i];
    }
    out << "}}";
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::IOError("short write to '", path, "'");
}

}  // namespace perfbench
