// The three closed-loop workloads: one client runs pre-generated einsum
// requests back to back through EinsumEngine::EinsumSpecified, the engine
// at its shipped defaults. The domain modules (sat, graphical, paths) only
// generate the requests and the independent oracle answers.

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "backends/einsum_cache.h"
#include "backends/einsum_engine.h"
#include "backends/minidb_backend.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "harness/traced.h"
#include "harness/workloads.h"
#include "graphical/generator.h"
#include "graphical/inference.h"
#include "graphical/viterbi.h"
#include "paths/graph.h"
#include "paths/shortest_paths.h"
#include "sat/generator.h"
#include "sat/tensorize.h"
#include "tensor/digest.h"
#include "testing/almost_equal.h"

namespace perfbench {

using namespace einsql;  // NOLINT

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One einsum call. Requests with equal `input_id` have identical inputs.
struct EinsumRequest {
  EinsumSpec spec;
  /// One operand per spec input, interned (TensorInterner).
  std::vector<std::shared_ptr<const CooTensor>> inputs;
  SemiringKind semiring = SemiringKind::kPlusTimes;
  PathAlgorithm path = PathAlgorithm::kAuto;
  int input_id = 0;
  /// The independent answer, densified; absent result cells read `fill`
  /// (the semiring's Zero) and compare under `tolerance`.
  std::function<Result<DenseTensor>()> oracle;
  double fill = 0.0;
  testing::Tolerance tolerance;

  std::vector<const CooTensor*> operands() const { return Operands(inputs); }
  EinsumOptions options() const {
    EinsumOptions options;  // shipped defaults
    options.semiring = semiring;
    options.path = path;
    return options;
  }

  static std::vector<const CooTensor*> Operands(
      const std::vector<std::shared_ptr<const CooTensor>>& inputs) {
    std::vector<const CooTensor*> out;
    out.reserve(inputs.size());
    for (const auto& t : inputs) out.push_back(t.get());
    return out;
  }
};

// One shared copy per distinct tensor content across a request pool, so a
// model's factors or a formula's clause tables are held once however many
// requests use them, and the pool adds little to peak_rss_mib. The engines
// key their caches on content, never on operand addresses, so sharing does
// not change their work.
class TensorInterner {
 public:
  std::shared_ptr<const CooTensor> Intern(CooTensor tensor) {
    auto [it, inserted] = tensors_.try_emplace(TensorContentDigest(tensor));
    if (inserted) {
      it->second = std::make_shared<const CooTensor>(std::move(tensor));
    }
    return it->second;
  }

 private:
  std::map<std::string, std::shared_ptr<const CooTensor>> tensors_;
};

// Exact comparison: AlmostEqual with every criterion zeroed is a == b.
constexpr testing::Tolerance kExact{0.0, 0.0, 0};

uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Digest128 digest;
  digest.Update(seed);
  digest.Update(stream);
  digest.Update(index);
  const std::string hex = digest.ToHex();
  return std::stoull(hex.substr(0, 16), nullptr, 16);
}

// What a closed-loop workload contributes: its engine and its requests.
struct ClosedLoopWorkload {
  bool dense = false;  // DenseEinsumEngine instead of SQL on MiniDB
  /// Requests per second of timed phase to generate: the pool must outlast
  /// the run, since SAT requests may never repeat.
  int pool_per_second = 0;
  std::function<Result<std::vector<EinsumRequest>>(uint64_t seed, int count)>
      generate;
};

// ---------------------------------------------------------------------------
// sat_count: distinct conda-like package formulas, #SAT by contraction.

constexpr int kSatClauses = 360;

Result<std::vector<EinsumRequest>> SatRequests(uint64_t seed, int count) {
  std::vector<EinsumRequest> requests;
  std::set<std::u32string> seen;
  TensorInterner interner;
  for (uint64_t attempt = 0; static_cast<int>(requests.size()) < count;
       ++attempt) {
    sat::PackageFormulaOptions options;
    options.num_packages = 189;  // 378 variables, as the paper's instance
    options.versions_per_package = 2;
    options.dependencies_per_version = 1.25;
    // A narrow locality window keeps the formulas' contraction cost within
    // a factor of ~2 of each other (the default window's tail is ~4x).
    options.locality_window = 2;
    options.seed = MixSeed(seed, 1, attempt);
    const sat::CnfFormula formula = sat::TruncateClauses(
        sat::PackageDependencyFormula(options), kSatClauses);
    EINSQL_ASSIGN_OR_RETURN(sat::SatTensorNetwork network,
                            sat::BuildTensorNetwork(formula));
    std::u32string identity;
    for (const Term& term : network.spec.inputs) identity += term + U",";
    if (!seen.insert(identity).second) continue;  // keep every request new
    EinsumRequest request;
    request.spec = network.spec;
    std::vector<std::shared_ptr<const CooTensor>> unique;
    for (CooTensor& t : network.unique_tensors) {
      unique.push_back(interner.Intern(std::move(t)));
    }
    for (int k : network.tensor_of_clause) request.inputs.push_back(unique[k]);
    // Bucket elimination, as the paper's #SAT runs use: the automatic
    // choice also runs greedy search, which takes seconds on a network of
    // this size and is then discarded.
    request.path = PathAlgorithm::kElimination;
    request.input_id = static_cast<int>(requests.size());
    // Sparse native contraction sums in another order: relative tolerance.
    request.tolerance = testing::Tolerance{0.0, 1e-9, 64};
    // The same path algorithm, so the oracle reuses the cached program.
    request.oracle = [spec = request.spec, inputs = request.inputs,
                      options = request.options()]() -> Result<DenseTensor> {
      SparseEinsumEngine sparse;
      EINSQL_ASSIGN_OR_RETURN(
          CooTensor count,
          sparse.EinsumSpecified(spec, EinsumRequest::Operands(inputs),
                                 options));
      return DenseTensor::FromCoo(count);
    };
    requests.push_back(std::move(request));
  }
  return requests;
}

// ---------------------------------------------------------------------------
// graphical_batch: fresh 64-patient evidence batches on one fixed model.

constexpr int kGraphicalBatch = 64;
constexpr int kGraphicalQueryVariable = 3;  // tumor-size, 11 states

Result<std::vector<EinsumRequest>> GraphicalRequests(uint64_t seed,
                                                     int count) {
  auto model = std::make_shared<const graphical::PairwiseModel>(
      graphical::BreastCancerLikeModel());
  Rng rng(MixSeed(seed, 2, 0));
  std::vector<EinsumRequest> requests;
  // Every request shares the model's factor tensors.
  TensorInterner interner;
  for (int i = 0; i < count; ++i) {
    const graphical::InferenceQuery query = graphical::RandomQuery(
        *model, kGraphicalQueryVariable, kGraphicalBatch, &rng);
    EINSQL_ASSIGN_OR_RETURN(graphical::InferenceNetwork network,
                            graphical::BuildInferenceNetwork(*model, query));
    EinsumRequest request;
    request.spec = network.spec;
    for (CooTensor& t : network.tensors) {
      request.inputs.push_back(interner.Intern(std::move(t)));
    }
    request.input_id = i;
    request.oracle = [spec = request.spec,
                      inputs = request.inputs]() -> Result<DenseTensor> {
      DenseEinsumEngine dense;
      EINSQL_ASSIGN_OR_RETURN(
          CooTensor raw,
          dense.EinsumSpecified(spec, EinsumRequest::Operands(inputs), {}));
      return DenseTensor::FromCoo(raw);
    };
    requests.push_back(std::move(request));
  }
  return requests;
}

// ---------------------------------------------------------------------------
// semiring_dense: min-plus k-hop all-pairs shortest paths on hub graphs,
// with every fourth request a max-times Viterbi chain max-marginal. A chain
// costs a few percent of a shortest-paths request, so the 3:1 mix keeps
// the latency percentiles inside one mode.

constexpr int kHubs = 12;
constexpr int kLeaves = 288;
constexpr int kHops = 4;
constexpr int kChainLength = 12;
constexpr int kChainCardinality = 160;
constexpr int kDistinctInputs = 4;  // of each kind, cycled
constexpr int kPathsPerChain = 3;

// The chain (l0 l1),(l1 l2),... -> (l0 ln), or -> (ln) for a vector output.
EinsumSpec ChainSpec(int operands, bool matrix_output) {
  constexpr Label kBase = 5000;
  EinsumSpec spec;
  for (int t = 0; t < operands; ++t) {
    spec.inputs.push_back(Term{static_cast<Label>(kBase + t),
                               static_cast<Label>(kBase + t + 1)});
  }
  spec.output = matrix_output
                    ? Term{kBase, static_cast<Label>(kBase + operands)}
                    : Term{static_cast<Label>(kBase + operands)};
  return spec;
}

Result<std::vector<EinsumRequest>> SemiringRequests(uint64_t seed,
                                                    int count) {
  std::vector<EinsumRequest> paths_requests, chain_requests;
  for (int g = 0; g < kDistinctInputs; ++g) {
    auto graph = std::make_shared<const paths::WeightedDigraph>(
        paths::TriplestoreDigraph(kHubs, kLeaves, /*max_weight=*/9,
                                  MixSeed(seed, 3, g)));
    EinsumRequest paths_request;
    paths_request.spec = ChainSpec(kHops, /*matrix_output=*/true);
    paths_request.inputs.assign(
        kHops, std::make_shared<const CooTensor>(
                   paths::AdjacencyMinPlus(*graph)));
    paths_request.semiring = SemiringKind::kMinPlus;
    paths_request.fill = kInf;
    paths_request.tolerance = kExact;
    paths_request.oracle = [graph]() -> Result<DenseTensor> {
      return paths::BellmanFordAllPairs(*graph, kHops);
    };
    paths_request.input_id = g;
    paths_requests.push_back(std::move(paths_request));

    Rng rng(MixSeed(seed, 4, g));
    auto chain = std::make_shared<const graphical::PairwiseModel>(
        graphical::RandomChainModel(kChainLength, kChainCardinality,
                                    kChainCardinality, /*max_potential=*/3,
                                    &rng));
    EinsumRequest viterbi;
    viterbi.spec = ChainSpec(kChainLength - 1, /*matrix_output=*/false);
    for (const graphical::EdgeFactor& edge : chain->edges) {
      viterbi.inputs.push_back(
          std::make_shared<const CooTensor>(edge.table.ToCoo()));
    }
    viterbi.semiring = SemiringKind::kMaxTimes;
    viterbi.tolerance = kExact;
    viterbi.oracle = [chain]() { return graphical::ChainMaxMarginalDp(*chain); };
    viterbi.input_id = kDistinctInputs + g;
    chain_requests.push_back(std::move(viterbi));
  }
  std::vector<EinsumRequest> requests;
  int paths = 0, chains = 0;
  for (int i = 0; i < count; ++i) {
    if (i % (kPathsPerChain + 1) == kPathsPerChain) {
      requests.push_back(chain_requests[chains++ % kDistinctInputs]);
    } else {
      requests.push_back(paths_requests[paths++ % kDistinctInputs]);
    }
  }
  return requests;
}

// ---------------------------------------------------------------------------
// The closed-loop runner shared by the three workloads above.

struct Engines {
  std::unique_ptr<MiniDbBackend> backend;
  std::unique_ptr<SqlEinsumEngine> sql;
  std::unique_ptr<DenseEinsumEngine> dense;

  EinsumEngine* engine() {
    return dense ? static_cast<EinsumEngine*>(dense.get()) : sql.get();
  }
};

struct Prepared {
  Engines engines;
  std::vector<EinsumRequest> requests;
};

constexpr int kWarmupRequests = 2;
constexpr uint64_t kWarmupSeed = 0x77a2f00d;
// peak_rss_mib is read once this many requests have completed (or at the
// end, if fewer ran), so an engine that completes more requests in the run
// does not read as using more memory just by filling its caches further.
constexpr int kRssRequests = 32;

// Set-up: fresh engines over cold process caches, the request pool, and a
// few warm-up requests from a separate input stream (so lazy
// initialization and the program cache are warm, as for a long-running
// user).
Result<Prepared> Setup(const ClosedLoopWorkload& workload,
                       const RunOptions& options) {
  EinsumPipelineCache::Global().Clear();
  Prepared prepared;
  if (workload.dense) {
    prepared.engines.dense = std::make_unique<DenseEinsumEngine>();
  } else {
    prepared.engines.backend = std::make_unique<MiniDbBackend>();
    prepared.engines.sql =
        std::make_unique<SqlEinsumEngine>(prepared.engines.backend.get());
  }
  const int pool = std::max(
      8, static_cast<int>(std::ceil(options.seconds * workload.pool_per_second)));
  EINSQL_ASSIGN_OR_RETURN(
      prepared.requests,
      workload.generate(options.seed,
                        std::max(pool, options.max_requests)));
  // Warm-up inputs do not depend on the seed, so set-up costs the same
  // work on every run.
  EINSQL_ASSIGN_OR_RETURN(std::vector<EinsumRequest> warmup,
                          workload.generate(kWarmupSeed, kWarmupRequests));
  for (const EinsumRequest& request : warmup) {
    EINSQL_RETURN_IF_ERROR(prepared.engines.engine()
                               ->EinsumSpecified(request.spec,
                                                 request.operands(),
                                                 request.options())
                               .status());
  }
  return prepared;
}

Status CheckAnswer(const EinsumRequest& request, const CooTensor& got,
                   bool corrupt) {
  EINSQL_ASSIGN_OR_RETURN(DenseTensor expected, request.oracle());
  if (corrupt && expected.size() > 0) expected[0] = expected[0] * 1.5 + 1.0;
  EINSQL_ASSIGN_OR_RETURN(DenseTensor actual,
                          paths::ToDenseWithFill(got, request.fill));
  std::string mismatch;
  if (!testing::AllCloseTol(actual, expected, request.tolerance, &mismatch)) {
    return Status::Internal("wrong answer: ", mismatch);
  }
  return Status::OK();
}

void SetPerLayer(const std::vector<RequestTrace>& traces,
                 const std::vector<double>& traced_ms,
                 const std::vector<double>& untraced_ms, MetricSet* out) {
  auto mean = [&](const std::function<double(const RequestTrace&)>& f) {
    std::vector<double> values;
    for (const RequestTrace& t : traces) values.push_back(f(t));
    return Mean(values);
  };
  auto counted = [&](const char* name) {
    return mean([name](const RequestTrace& t) {
      return static_cast<double>(t.counts.Get(name));
    });
  };
  auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  out->Set("core.path_ms", mean([](auto& t) { return t.path_ms; }), "ms");
  out->Set("core.sqlgen_ms", mean([](auto& t) { return t.sqlgen_ms; }), "ms");
  out->Set("core.sql_kib",
           mean([](auto& t) { return t.sql_bytes / 1024.0; }), "KiB");
  out->Set("core.steps",
           mean([](auto& t) { return static_cast<double>(t.steps); }),
           "count");
  out->Set("core.est_mflop", mean([](auto& t) { return t.est_flops / 1e6; }),
           "Mflop");
  out->Set("minidb.parse_ms", mean([](auto& t) { return t.parse_ms; }), "ms");
  out->Set("minidb.plan_ms", mean([](auto& t) { return t.plan_ms; }), "ms");
  out->Set("minidb.exec_ms", mean([](auto& t) { return t.exec_ms; }), "ms");
  out->Set("minidb.join_self_ms",
           mean([](auto& t) { return t.join_self_ms; }), "ms");
  out->Set("minidb.aggregate_self_ms",
           mean([](auto& t) { return t.aggregate_self_ms; }), "ms");
  out->Set("minidb.other_self_ms",
           mean([](auto& t) { return t.other_self_ms; }), "ms");
  out->Set("minidb.rows_joined", counted("minidb.rows_joined"), "count");
  out->Set("minidb.rows_aggregated", counted("minidb.rows_aggregated"),
           "count");
  out->Set("minidb.bytes_materialized", counted("minidb.bytes_materialized"),
           "bytes");
  out->Set("minidb.hash_entries", counted("minidb.hash_entries"), "count");
  out->Set("minidb.peak_query_mib",
           mean([](auto& t) { return t.peak_query_mib; }), "MiB");
  const double plan_hits = counted("minidb.cache.plan_hits");
  const double plan_misses = counted("minidb.cache.plan_misses");
  out->Set("minidb.plan_hit_ratio", ratio(plan_hits, plan_misses), "ratio");
  out->Set("minidb.plan_lookups", plan_hits + plan_misses, "count");
  const double rel_hits = counted("minidb.cache.relation_hits");
  const double rel_misses = counted("minidb.cache.relation_misses");
  out->Set("minidb.relation_hit_ratio", ratio(rel_hits, rel_misses), "ratio");
  out->Set("minidb.relation_lookups", rel_hits + rel_misses, "count");
  out->Set("backends.decode_ms", mean([](auto& t) { return t.decode_ms; }),
           "ms");
  out->Set("backends.engine_ms", mean([](auto& t) { return t.total_ms; }),
           "ms");
  const double run_ms = mean([](auto& t) { return t.tensor_ms; });
  out->Set("tensor.run_ms", run_ms, "ms");
  const double flops = mean([](auto& t) { return t.est_flops; });
  out->Set("tensor.gops", run_ms > 0 ? flops / (run_ms * 1e6) : 0.0, "Gop/s");
  const double request_ms = Mean(traced_ms);
  out->Set("trace.request_ms", request_ms, "ms");
  out->Set("trace.unattributed_ms",
           request_ms - mean([](auto& t) { return t.AttributedMs(); }), "ms");
  out->Set("trace.overhead_ms",
           Percentile(traced_ms, 0.5) - Percentile(untraced_ms, 0.5), "ms");
}

Result<Outcome> RunClosedLoop(const ClosedLoopWorkload& workload,
                              const RunOptions& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  CpuRotation rotation;
  Prepared prepared;
  for (int r = 0; r < kSetupRepeats; ++r) {
    prepared = Prepared{};  // release the previous set-up first
    rotation.Next();
    const double start = NowSeconds();
    EINSQL_ASSIGN_OR_RETURN(prepared, Setup(workload, options));
    setup_seconds.push_back(NowSeconds() - start);
  }
  // peak_rss_mib starts from what set-up left resident (reported beside
  // it), not from the largest of the set-ups' transient peaks.
  ResetPeakRss();
  outcome.extra.Set("setup_rss_mib", RssMib(), "MiB");
  EinsumEngine* engine = prepared.engines.engine();
  const std::vector<EinsumRequest>& requests = prepared.requests;

  // Timed phase. In a traced run about half the requests go through the
  // traced decomposition; the rest measure the untraced latency beside
  // them.
  std::vector<double> untraced_ms, traced_ms;
  std::vector<RequestTrace> traces;
  std::map<int, CooTensor> first_result;     // per input_id
  std::vector<std::string> result_digests;   // per request; "" = first
  const WorkCounters counters_before = WorkCounters::Read();
  const double start = NowSeconds();
  const double deadline = start + options.seconds;
  double peak_rss = 0.0;
  int ran = 0;
  for (; ran < static_cast<int>(requests.size()); ++ran) {
    if (ran == kRssRequests) peak_rss = PeakRssMib();
    if (options.max_requests > 0 ? ran >= options.max_requests
                                 : NowSeconds() >= deadline) {
      break;
    }
    const EinsumRequest& request = requests[ran];
    const bool traced = options.trace && IsTracedRequest(ran);
    RequestTrace trace;
    trace.request = ran;
    const std::vector<const CooTensor*> operands = request.operands();
    rotation.Next();
    const double t0 = NowSeconds();
    Result<CooTensor> result =
        !traced ? engine->EinsumSpecified(request.spec, operands,
                                          request.options())
        : workload.dense
            ? TracedDenseEinsum(prepared.engines.dense.get(), request.spec,
                                operands, request.options(), &trace)
            : TracedSqlEinsum(prepared.engines.backend.get(), request.spec,
                              operands, request.options(), &trace);
    const double ms = (NowSeconds() - t0) * 1e3;
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) traces.push_back(std::move(trace));
    ++outcome.attempted;
    if (!result.ok()) {
      outcome.Fail(StrCat("request ", ran, ": ", result.status().ToString()));
      result_digests.push_back("error");
      continue;
    }
    if (first_result.count(request.input_id) == 0) {
      first_result.emplace(request.input_id, std::move(*result));
      result_digests.push_back("");
    } else {
      result_digests.push_back(TensorContentDigest(*result));
    }
  }
  const double elapsed = NowSeconds() - start;
  const WorkCounters counters = WorkCounters::Read().Minus(counters_before);
  if (peak_rss == 0.0) peak_rss = PeakRssMib();

  // Answer checks, outside the timed phase: each distinct input against
  // its oracle, every repeat bit-identical to the first.
  const double oracle_start = NowSeconds();
  Digest128 answers;
  bool corrupt = options.corrupt_oracle;
  for (int i = 0; i < ran; ++i) {
    const EinsumRequest& request = requests[i];
    if (result_digests[i] == "error") continue;
    const CooTensor& first = first_result.at(request.input_id);
    const std::string first_digest = TensorContentDigest(first);
    answers.Update(first_digest);
    if (result_digests[i].empty()) {
      Status checked = CheckAnswer(request, first, corrupt);
      corrupt = false;
      if (!checked.ok()) {
        outcome.Fail(StrCat("request ", i, ": ", checked.ToString()));
      }
    } else if (result_digests[i] != first_digest) {
      outcome.Fail(StrCat("request ", i,
                          ": result differs from an earlier identical "
                          "request"));
    }
  }

  outcome.extra.Set("oracle_s", NowSeconds() - oracle_start, "s");
  std::vector<double> all_ms = untraced_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  const double completed =
      static_cast<double>(outcome.attempted - outcome.failed);
  outcome.end_to_end.Set("setup_s", Percentile(setup_seconds, 0.5), "s");
  outcome.end_to_end.Set("query_p50_ms", Percentile(all_ms, 0.5), "ms");
  outcome.end_to_end.Set("query_p90_ms", Percentile(all_ms, 0.9), "ms");
  outcome.end_to_end.Set("queries_per_s", completed / elapsed, "1/s");
  outcome.end_to_end.Set("peak_rss_mib", peak_rss, "MiB");
  if (options.trace) {
    SetPerLayer(traces, traced_ms, untraced_ms, &outcome.per_layer);
    if (!options.spans_path.empty()) {
      EINSQL_RETURN_IF_ERROR(WriteSpans(options.spans_path, traces));
    }
  }
  outcome.extra.Set("requests", static_cast<double>(ran), "count");
  outcome.extra.Set("timed_s", elapsed, "s");
  const std::vector<std::string>& names = WorkCounters::Names();
  for (size_t i = 0; i < names.size(); ++i) {
    outcome.invariants.push_back(
        {names[i], std::to_string(counters.values[i])});
  }
  outcome.invariants.push_back({"answers", answers.ToHex()});
  return outcome;
}

}  // namespace

Result<Outcome> RunSatCount(const RunOptions& options) {
  ClosedLoopWorkload workload;
  workload.pool_per_second = 30;
  workload.generate = SatRequests;
  return RunClosedLoop(workload, options);
}

Result<Outcome> RunGraphicalBatch(const RunOptions& options) {
  ClosedLoopWorkload workload;
  workload.pool_per_second = 40;
  workload.generate = GraphicalRequests;
  return RunClosedLoop(workload, options);
}

Result<Outcome> RunSemiringDense(const RunOptions& options) {
  ClosedLoopWorkload workload;
  workload.dense = true;
  workload.pool_per_second = 60;
  workload.generate = SemiringRequests;
  return RunClosedLoop(workload, options);
}

}  // namespace perfbench
