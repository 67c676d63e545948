// triplestore_serve: an open-loop NDJSON client against the in-process
// einsum server over a stored Olympics triple table. Reads are a fixed set
// of basic-graph-pattern queries compiled once to einsum SQL; about 5% of
// requests insert or delete triples under a predicate no read selects, so
// every read's answer is known in advance while each write still
// invalidates the caches and copies the table (copy-on-write catalog).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common/fnv.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "harness/traced.h"
#include "harness/workloads.h"
#include "minidb/session.h"
#include "server/client.h"
#include "server/server.h"
#include "triplestore/generator.h"
#include "triplestore/query.h"

namespace perfbench {

using namespace einsql;  // NOLINT

namespace {

constexpr int kAthletes = 3000;
constexpr int kConnections = 4;
// Nominal offered rate, and the multiples of it the rate sweep offers
// after the saturation phase, one short step each.
constexpr double kNominalRps = 100.0;
constexpr double kSweep[] = {2.0, 4.0, 8.0};
constexpr double kSweepStepSeconds = 1.0;
// max_rate_rps: read p95 must stay under this, with no growing backlog.
constexpr double kLatencyLimitMs = 50.0;
// An open-loop phase stops sending once a request is this late: the rate
// is beyond capacity, and the backlog would only stretch the run. Requests
// the nominal phase leaves unsent fail; the sweep steps just end.
constexpr double kAbandonLagSeconds = 1.0;
// queries_per_s: after the nominal phase, every connection sends back to
// back for this long (the saturation phase); the pool holds requests for
// up to kSaturationMaxRps.
constexpr double kSaturationSeconds = 2.0;
constexpr double kSaturationMaxRps = 20000.0;

using Answer = std::vector<std::pair<int64_t, double>>;  // (id, count) by id

struct ServeRequest {
  bool write = false;
  int query = -1;   // reads: index into the compiled queries
  std::string sql;  // writes
};

struct Sample {
  bool write = false;
  int query = -1;
  double due = 0.0, sent = 0.0, done = 0.0;
  Status status;
  minidb::QueryStats stats;
  std::string answer;  // reads: AnswerDigest of the result

  double latency_ms() const { return (done - due) * 1e3; }
  double lag_ms() const { return (sent - due) * 1e3; }
  double roundtrip_ms() const { return (done - sent) * 1e3; }
  double server_ms() const {
    return (stats.parse_seconds + stats.plan_seconds + stats.exec_seconds) *
           1e3;
  }
};

struct Setup {
  // Declared before the server that serves it, so it outlives the server.
  std::unique_ptr<minidb::SharedCatalog> catalog;
  std::unique_ptr<server::Server> server;
  std::vector<server::Client> clients;
  std::vector<std::string> read_sql;
  std::vector<ServeRequest> requests;
  triplestore::TripleStore store;
  std::vector<triplestore::PatternQuery> queries;

  ~Setup() {
    clients.clear();
    if (server) server->Stop();
  }
};

// The read mix: who won a given medal in a given game or event, 33 queries
// of similar cost (so read latency has one warm and one cold mode, not one
// per query shape). The selective pattern comes first, which keeps the
// backtracking oracle fast; it does not change the einsum.
std::vector<triplestore::PatternQuery> ReadQueries() {
  std::vector<triplestore::PatternQuery> queries;
  for (const char* medal : {"medal:Gold", "medal:Silver", "medal:Bronze"}) {
    for (int k = 0; k < 11; ++k) {
      const triplestore::TriplePattern where =
          k < 6 ? triplestore::TriplePattern{"?instance", "walls:games",
                                             StrCat("games:", k)}
                : triplestore::TriplePattern{"?instance", "walls:event",
                                             StrCat("event:", k - 6)};
      queries.push_back({{where,
                          {"?instance", "walls:medal", medal},
                          {"?instance", "walls:athlete", "?athlete"},
                          {"?athlete", "rdfs:label", "?name"}},
                         "?name"});
    }
  }
  return queries;
}

// Requests come in blocks of 19 reads and one write (5% writes). Every
// block reads the same skewed multiset of queries — rank 0 twelve times,
// rank 1 three times, ranks 2 and 3 once, and two of the 29 tail queries in
// turn — in a seeded order. Each write empties the caches, so each block
// starts six cold reads; a fixed count keeps the cold share, and with it
// the p90 read (a cold one) and the median (a warm one), the same from
// seed to seed, where independent draws moved the p90 by ~25%.
constexpr int kBlockReads = 19;
constexpr int kHotRanks[] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             1, 1, 1, 2, 3};
constexpr int kTailFirstRank = 4;

std::vector<int> BlockQueries(int block, int num_queries, Rng* rng) {
  std::vector<int> reads(std::begin(kHotRanks), std::end(kHotRanks));
  const int tail = num_queries - kTailFirstRank;
  while (static_cast<int>(reads.size()) < kBlockReads) {
    const int k = block * 2 + static_cast<int>(reads.size()) -
                  static_cast<int>(std::size(kHotRanks));
    reads.push_back(kTailFirstRank + k % tail);
  }
  for (int i = kBlockReads - 1; i > 0; --i) {
    std::swap(reads[i], reads[rng->UniformInt(0, i)]);
  }
  return reads;
}

// Order-independent digest of (id, count) rows: rows tied on count may
// come back in any order.
std::string AnswerDigest(Answer rows) {
  std::sort(rows.begin(), rows.end());
  Digest128 digest;
  for (const auto& [id, count] : rows) {
    digest.Update(id);
    digest.Update(count);
  }
  return digest.ToHex();
}

Result<std::string> ResultDigest(const minidb::Relation& relation) {
  Answer rows;
  rows.reserve(relation.rows.size());
  for (const minidb::Row& row : relation.rows) {
    if (row.size() != 2) return Status::Internal("expected (id, count) rows");
    EINSQL_ASSIGN_OR_RETURN(int64_t id, minidb::AsInt(row[0]));
    EINSQL_ASSIGN_OR_RETURN(double count, minidb::AsDouble(row[1]));
    rows.push_back({id, count});
  }
  return AnswerDigest(std::move(rows));
}

// A span of the request sequence, offered at a fixed rate (open loop) or,
// with rate 0, sent back to back on every connection for `seconds`.
struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  int first = 0;
  int count = 0;
};

// The run in order: the nominal phase, the saturation phase, the sweep.
struct Plan {
  Phase nominal;
  Phase saturation;
  std::vector<Phase> sweep;
  int requests = 0;  // total length of the request sequence
};

// The nominal phase fills the run but for the saturation phase and the
// sweep steps, which take a tenth of it each at most.
Plan MakePlan(double seconds) {
  const double step = std::min(kSweepStepSeconds, seconds / 10);
  const double saturation = std::min(kSaturationSeconds, seconds / 10);
  Plan plan;
  auto add = [&](double rate, double duration, double pool_rate) {
    const int count = std::max(1, static_cast<int>(pool_rate * duration));
    const Phase phase{rate, duration, plan.requests, count};
    plan.requests += count;
    return phase;
  };
  const double nominal =
      seconds - saturation - step * static_cast<double>(std::size(kSweep));
  plan.nominal = add(kNominalRps, nominal, kNominalRps);
  plan.saturation = add(0.0, saturation, kSaturationMaxRps);
  for (double multiple : kSweep) {
    plan.sweep.push_back(
        add(kNominalRps * multiple, step, kNominalRps * multiple));
  }
  return plan;
}

Result<std::unique_ptr<Setup>> SetUp(const RunOptions& options) {
  auto setup = std::make_unique<Setup>();
  triplestore::OlympicsOptions olympics;
  olympics.num_athletes = kAthletes;
  olympics.seed = options.seed;
  setup->store = triplestore::GenerateOlympics(olympics);
  const triplestore::TripleStore& store = setup->store;

  std::vector<minidb::Row> rows;
  rows.reserve(store.triples().size());
  for (const triplestore::Triple& t : store.triples()) {
    rows.push_back({minidb::Value(t.s), minidb::Value(t.p), minidb::Value(t.o),
                    minidb::Value(1.0)});
  }
  setup->catalog = std::make_unique<minidb::SharedCatalog>();
  EINSQL_RETURN_IF_ERROR(setup->catalog->Mutate([&](minidb::Catalog* c) {
    EINSQL_RETURN_IF_ERROR(c->CreateTable(
        "T", {{"i0", minidb::ValueType::kInt},
              {"i1", minidb::ValueType::kInt},
              {"i2", minidb::ValueType::kInt},
              {"val", minidb::ValueType::kDouble}}));
    return c->AppendRows("T", std::move(rows));
  }));

  setup->queries = ReadQueries();
  for (const triplestore::PatternQuery& query : setup->queries) {
    EINSQL_ASSIGN_OR_RETURN(std::string sql,
                            triplestore::CompileQueryToSql(store, query));
    setup->read_sql.push_back(std::move(sql));
  }

  // The request sequence. Writes use a predicate id outside the
  // dictionary, so no read pattern can match them; deletes remove the
  // triple the previous write inserted, keeping the table size steady.
  const int64_t noise_predicate = store.num_terms();
  Rng rng(options.seed ^ 0x5e7e5e7eULL);
  int64_t last_s = 0, last_o = 0;
  bool insert_next = true;
  const int count = MakePlan(options.seconds).requests;
  for (int block = 0; static_cast<int>(setup->requests.size()) < count;
       ++block) {
    const int num_queries = static_cast<int>(setup->read_sql.size());
    for (int query : BlockQueries(block, num_queries, &rng)) {
      ServeRequest read;
      read.query = query;
      setup->requests.push_back(std::move(read));
    }
    ServeRequest write;
    write.write = true;
    if (insert_next) {
      last_s = rng.UniformInt(0, store.num_terms() - 1);
      last_o = rng.UniformInt(0, store.num_terms() - 1);
      write.sql = StrCat("INSERT INTO T VALUES (", last_s, ", ",
                         noise_predicate, ", ", last_o, ", 1.0)");
    } else {
      write.sql = StrCat("DELETE FROM T WHERE i0 = ", last_s, " AND i1 = ",
                         noise_predicate, " AND i2 = ", last_o);
    }
    insert_next = !insert_next;
    setup->requests.push_back(std::move(write));
  }

  setup->server = std::make_unique<server::Server>(setup->catalog.get(),
                                                   server::ServerOptions{});
  EINSQL_RETURN_IF_ERROR(setup->server->Start());
  for (int c = 0; c < kConnections; ++c) {
    EINSQL_ASSIGN_OR_RETURN(server::Client client,
                            server::Client::Connect("127.0.0.1",
                                                    setup->server->port()));
    setup->clients.push_back(std::move(client));
  }
  // Warm-up: every read once, so the caches start filled.
  for (const std::string& sql : setup->read_sql) {
    EINSQL_RETURN_IF_ERROR(setup->clients[0].Query(sql).status());
  }
  return setup;
}

// Runs the phase over the connections. Open loop: each connection sends
// its next request when it is due (or as soon as it is free, if late).
// Closed loop: each sends its next request as soon as it is free, until
// the phase's time is up. Requests left unsent have sent = 0.
std::vector<Sample> RunPhase(Setup* setup, const Phase& phase) {
  const bool open_loop = phase.rate > 0;
  std::vector<Sample> samples(phase.count);
  const double start = NowSeconds() + 0.002;
  for (int j = 0; j < phase.count; ++j) {
    const ServeRequest& request = setup->requests[phase.first + j];
    samples[j].write = request.write;
    samples[j].query = request.query;
    samples[j].due = open_loop ? start + j / phase.rate : start;
  }
  std::atomic<int> next{0};
  std::atomic<bool> stopped{false};
  auto worker = [&](server::Client* client) {
    for (int j = next.fetch_add(1); j < phase.count; j = next.fetch_add(1)) {
      const ServeRequest& request = setup->requests[phase.first + j];
      Sample& sample = samples[j];
      const double now = NowSeconds();
      if (stopped.load() ||
          (open_loop ? now - sample.due > kAbandonLagSeconds
                     : now >= start + phase.seconds)) {
        stopped.store(true);
        break;
      }
      if (open_loop) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sample.due - now));
      } else {
        sample.due = now;
      }
      sample.sent = NowSeconds();
      Result<minidb::QueryResult> result = client->Query(
          request.write ? request.sql : setup->read_sql[request.query]);
      sample.done = NowSeconds();
      if (!result.ok()) {
        sample.status = result.status();
        continue;
      }
      sample.stats = result->stats;
      if (!request.write) {
        Result<std::string> answer = ResultDigest(result->relation);
        if (answer.ok()) {
          sample.answer = std::move(*answer);
        } else {
          sample.status = answer.status();
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (server::Client& client : setup->clients) {
    threads.emplace_back(worker, &client);
  }
  for (std::thread& thread : threads) thread.join();
  return samples;
}

// Latencies of the selected samples; a failed request (refusals included)
// or an unsent one counts as infinitely late, so it misses any latency
// limit.
std::vector<double> Latencies(const std::vector<Sample>& samples, int kind) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (kind == 0 && s.write) continue;
    if (kind == 1 && !s.write) continue;
    out.push_back(s.sent > 0.0 && s.status.ok()
                      ? s.latency_ms()
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}
constexpr int kReads = 0, kWrites = 1, kAll = 2;

bool MeetsLimit(const std::vector<Sample>& samples) {
  if (samples.empty() || samples.back().sent == 0.0) return false;
  if (Percentile(Latencies(samples, kReads), 0.95) > kLatencyLimitMs) {
    return false;
  }
  // No growing backlog: the last tenth of the step was sent on time.
  std::vector<double> tail_lag;
  for (size_t i = samples.size() * 9 / 10; i < samples.size(); ++i) {
    tail_lag.push_back(samples[i].lag_ms());
  }
  return Percentile(tail_lag, 0.5) <= kLatencyLimitMs;
}

Result<int64_t> RejectedCount(server::Client* client) {
  EINSQL_ASSIGN_OR_RETURN(std::string text, client->FetchMetrics());
  EINSQL_ASSIGN_OR_RETURN(JsonValue metrics, JsonValue::Parse(text));
  return metrics["counters"]["server.rejected"].AsInt();
}

}  // namespace

Result<Outcome> RunTriplestoreServe(const RunOptions& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  CpuRotation rotation;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();  // stop the previous server first
    rotation.Next();
    const double start = NowSeconds();
    EINSQL_ASSIGN_OR_RETURN(setup, SetUp(options));
    setup_seconds.push_back(NowSeconds() - start);
  }
  // Oracle answers, outside setup_s: the interpreted matcher.
  const double oracle_start = NowSeconds();
  std::vector<std::string> expected;
  for (size_t q = 0; q < setup->queries.size(); ++q) {
    EINSQL_ASSIGN_OR_RETURN(
        std::vector<triplestore::CountedTerm> rows,
        triplestore::AnswerNaive(setup->store, setup->queries[q]));
    Answer answer;
    for (const triplestore::CountedTerm& row : rows) {
      EINSQL_ASSIGN_OR_RETURN(int64_t id,
                              setup->store.dictionary().Lookup(row.term));
      answer.push_back({id, row.count});
    }
    // The self-test hook: a wrong expected answer for the first query.
    if (options.corrupt_oracle && q == 0) answer.push_back({-1, 1.0});
    expected.push_back(AnswerDigest(std::move(answer)));
  }
  outcome.extra.Set("oracle_s", NowSeconds() - oracle_start, "s");

  // peak_rss_mib starts from what set-up left resident (reported beside
  // it), not from the largest of the set-ups' transient peaks.
  ResetPeakRss();
  outcome.extra.Set("setup_rss_mib", RssMib(), "MiB");

  // Timed phase: the nominal rate, the saturation phase, the rate sweep.
  EINSQL_ASSIGN_OR_RETURN(int64_t rejected_before,
                          RejectedCount(&setup->clients[0]));
  const WorkCounters counters_before = WorkCounters::Read();
  const Plan plan = MakePlan(options.seconds);
  const std::vector<Sample> nominal = RunPhase(setup.get(), plan.nominal);
  const WorkCounters counters = WorkCounters::Read().Minus(counters_before);
  // Memory at the nominal rate: saturation and the overload steps of the
  // sweep are not the operating point.
  const double peak_rss = PeakRssMib();
  const std::vector<Sample> saturation =
      RunPhase(setup.get(), plan.saturation);
  // The sweep climbs while each rate meets the latency limit.
  double max_rate = MeetsLimit(nominal) ? kNominalRps : 0.0;
  std::vector<std::vector<Sample>> steps;
  for (const Phase& step : plan.sweep) {
    if (max_rate < step.rate / 2) break;  // the previous rate missed
    steps.push_back(RunPhase(setup.get(), step));
    if (MeetsLimit(steps.back())) max_rate = step.rate;
  }
  EINSQL_ASSIGN_OR_RETURN(int64_t rejected_after,
                          RejectedCount(&setup->clients[0]));

  // Answer checks over every phase. A request the nominal phase left
  // unsent (it fell too far behind) fails; the saturation phase and the
  // sweep steps may end early by design.
  auto check = [&](const std::vector<Sample>& samples, bool all_due) {
    for (const Sample& sample : samples) {
      if (sample.sent == 0.0) {
        if (!all_due) continue;
        ++outcome.attempted;
        outcome.Fail("not sent: the nominal phase fell behind");
        continue;
      }
      ++outcome.attempted;
      if (!sample.status.ok()) {
        outcome.Fail(sample.status.ToString());
        continue;
      }
      if (sample.write) continue;
      if (sample.answer != expected[sample.query]) {
        outcome.Fail(StrCat("wrong answer to read query ", sample.query));
      }
    }
  };
  check(nominal, true);
  check(saturation, false);
  for (const std::vector<Sample>& step : steps) check(step, false);

  // queries_per_s: the saturation phase's completed requests per second.
  // (At the nominal rate, throughput is whatever the generator offers.)
  int64_t completed = 0;
  double last_done = 0.0;
  for (const Sample& s : saturation) {
    if (s.sent == 0.0 || !s.status.ok()) continue;
    ++completed;
    last_done = std::max(last_done, s.done);
  }
  const double span_s =
      completed > 0 ? last_done - saturation.front().sent : 0.0;
  const std::vector<double> all = Latencies(nominal, kAll);
  outcome.end_to_end.Set("setup_s", Percentile(setup_seconds, 0.5), "s");
  outcome.end_to_end.Set("query_p50_ms", Percentile(all, 0.5), "ms");
  outcome.end_to_end.Set("query_p90_ms", Percentile(all, 0.9), "ms");
  outcome.end_to_end.Set("queries_per_s",
                         span_s > 0 ? completed / span_s : 0.0, "1/s");
  outcome.end_to_end.Set("peak_rss_mib", peak_rss, "MiB");
  const std::vector<double> reads = Latencies(nominal, kReads);
  const std::vector<double> writes = Latencies(nominal, kWrites);
  outcome.extra.Set("offered_rps", kNominalRps, "1/s");
  outcome.extra.Set("read_p50_ms", Percentile(reads, 0.5), "ms");
  outcome.extra.Set("read_p95_ms", Percentile(reads, 0.95), "ms");
  outcome.extra.Set("write_p50_ms", Percentile(writes, 0.5), "ms");
  outcome.extra.Set("write_p95_ms", Percentile(writes, 0.95), "ms");
  outcome.extra.Set("reads", static_cast<double>(reads.size()), "count");
  outcome.extra.Set("writes", static_cast<double>(writes.size()), "count");
  outcome.extra.Set("max_rate_rps", max_rate, "1/s");
  outcome.extra.Set("latency_limit_ms", kLatencyLimitMs, "ms");

  if (options.trace) {
    // The traced requests' client round trips become spans, split by the
    // parse/plan/exec times the server reports.
    std::vector<RequestTrace> traces;
    std::vector<double> traced_ms, untraced_ms, lag_ms, overhead_ms,
        write_ms;
    for (size_t i = 0; i < nominal.size(); ++i) {
      const Sample& s = nominal[i];
      if (s.sent == 0.0) continue;
      lag_ms.push_back(s.lag_ms());
      if (!IsTracedRequest(static_cast<int>(i)) || !s.status.ok()) {
        untraced_ms.push_back(s.latency_ms());
        continue;
      }
      traced_ms.push_back(s.latency_ms());
      overhead_ms.push_back(s.roundtrip_ms() - s.server_ms());
      if (s.write) write_ms.push_back(s.roundtrip_ms());
      RequestTrace trace;
      trace.request = static_cast<int>(i);
      trace.total_ms = s.latency_ms();
      trace.parse_ms = s.stats.parse_seconds * 1e3;
      trace.plan_ms = s.stats.plan_seconds * 1e3;
      trace.exec_ms = s.stats.exec_seconds * 1e3;
      trace.spans.push_back({"loadgen.request", "", s.due, s.done});
      trace.spans.push_back({"server.roundtrip", "loadgen.request", s.sent,
                             s.done});
      traces.push_back(std::move(trace));
    }
    auto mean = [&](double RequestTrace::*field, bool reads_only) {
      std::vector<double> values;
      for (const RequestTrace& t : traces) {
        if (reads_only && nominal[t.request].write) continue;
        values.push_back(t.*field);
      }
      return Mean(values);
    };
    MetricSet& out = outcome.per_layer;
    out.Set("minidb.parse_ms", mean(&RequestTrace::parse_ms, true), "ms");
    out.Set("minidb.plan_ms", mean(&RequestTrace::plan_ms, true), "ms");
    out.Set("minidb.exec_ms", mean(&RequestTrace::exec_ms, true), "ms");
    const double n = static_cast<double>(nominal.size());
    auto per_request = [&](const char* name) {
      return n > 0 ? counters.Get(name) / n : 0.0;
    };
    auto ratio = [&](const char* hits, const char* misses) {
      const double h = counters.Get(hits), m = counters.Get(misses);
      return h + m > 0 ? h / (h + m) : 0.0;
    };
    out.Set("minidb.rows_joined", per_request("minidb.rows_joined"), "count");
    out.Set("minidb.rows_aggregated", per_request("minidb.rows_aggregated"),
            "count");
    out.Set("minidb.bytes_materialized",
            per_request("minidb.bytes_materialized"), "bytes");
    out.Set("minidb.hash_entries", per_request("minidb.hash_entries"),
            "count");
    out.Set("minidb.plan_hit_ratio",
            ratio("minidb.cache.plan_hits", "minidb.cache.plan_misses"),
            "ratio");
    out.Set("minidb.plan_lookups",
            per_request("minidb.cache.plan_hits") +
                per_request("minidb.cache.plan_misses"),
            "count");
    out.Set("minidb.relation_hit_ratio",
            ratio("minidb.cache.relation_hits",
                  "minidb.cache.relation_misses"),
            "ratio");
    out.Set("minidb.relation_lookups",
            per_request("minidb.cache.relation_hits") +
                per_request("minidb.cache.relation_misses"),
            "count");
    std::vector<double> roundtrip;
    for (const RequestTrace& t : traces) {
      roundtrip.push_back(nominal[t.request].roundtrip_ms());
    }
    out.Set("server.roundtrip_ms", Mean(roundtrip), "ms");
    out.Set("server.overhead_ms", Mean(overhead_ms), "ms");
    out.Set("server.write_ms", Mean(write_ms), "ms");
    out.Set("server.rejected",
            static_cast<double>(rejected_after - rejected_before), "count");
    out.Set("loadgen.lag_p95_ms", Percentile(lag_ms, 0.95), "ms");
    const double request_ms = Mean(traced_ms);
    out.Set("trace.request_ms", request_ms, "ms");
    std::vector<double> unattributed;
    for (const RequestTrace& t : traces) {
      const Sample& s = nominal[t.request];
      unattributed.push_back(s.latency_ms() - s.lag_ms() - s.server_ms());
    }
    out.Set("trace.unattributed_ms", Mean(unattributed), "ms");
    out.Set("trace.overhead_ms",
            Percentile(traced_ms, 0.5) - Percentile(untraced_ms, 0.5), "ms");
    if (!options.spans_path.empty()) {
      EINSQL_RETURN_IF_ERROR(WriteSpans(options.spans_path, traces));
    }
  }
  return outcome;
}

}  // namespace perfbench
