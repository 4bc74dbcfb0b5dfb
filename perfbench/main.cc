// Goodput benchmark: satisfied queries delivered per second for a fixed
// constraint mix, cold (training on the clock), warm (cached models over
// the network front end) and with execution-grounded feedback.
//
//   lsg_perfbench --workload cold_mix|warm_serve|exec_feedback --seed N
//                 --seconds S --trace 0|1 [--state-dir DIR]
//
// Prints every metric by name, unit and sample count, then one JSON
// result object as the last line of stdout. --trace 0 reports the
// end-to-end metrics of an untraced pass; --trace 1 runs an untraced and a
// traced pass and reports the per-layer breakdown. Results, the span trace
// and the determinism record go under --state-dir (default .bench_build).
// Exit code 0 only when every output, determinism and validity check
// passes. See perfbench/README.md for the workloads and the predictions.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/generator.h"
#include "core/workload.h"
#include "datasets/dataset_util.h"
#include "datasets/job_like.h"
#include "datasets/tpch_like.h"
#include "fsm/compiled_fsm.h"
#include "net/net_client.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "perfbench/perfbench.h"
#include "service/constraint_key.h"
#include "service/generation_service.h"

namespace lsg {
namespace perfbench {
namespace {

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  const char* name;
  const char* why;
  const char* dataset;  ///< "tpch" or "job"
  double row_scale;
  bool warm;            ///< hot buckets trained in setup, served over net
  double true_feedback_tail;
  int epochs;           ///< LearnedSqlGenOptions::train_epochs
  int n;                ///< attempts per request (batch mode)
  /// Timed requests per second of --seconds: the request count is fixed
  /// per run (so counts repeat exactly for a seed); the timed phase it
  /// gives on a 4-core host is in the README.
  double requests_per_second;
  int clients;          ///< client threads (warm: one connection each)
  int depth;            ///< requests each client keeps in flight
};

// cold_mix keeps 2 of the 4 cores training: with all 4 busy, the shared
// host's swings reached every request and its p50 spread 0.27 over seeds.
constexpr WorkloadSpec kWorkloads[] = {
    {"cold_mix",
     "distinct-bucket card/cost point/range constraints on TPC-H, every "
     "request trains: rl/nn training dominates",
     "tpch", 1.0, false, 0.0, 40, 300, 1.4, 2, 1},
    {"warm_serve",
     "hot TPC-H buckets trained in setup, pipelined over loopback: decode, "
     "service batching and net framing carry the load",
     "tpch", 1.0, true, 0.0, 40, 64, 70.0, 2, 16},
    {"exec_feedback",
     "cold distinct-bucket constraints on JOB at 2x rows with an "
     "execution-feedback tail: exec dominates training",
     "job", 2.0, false, 0.5, 20, 1000, 0.35, 1, 1},
};

constexpr int kSetupReps = 3;

// ---------------------------------------------------------------- setup

/// One set-up of the program as a user pays it: dataset build, pipeline
/// create, FSM table resolution and metric-domain probe.
struct Setup {
  Database db;
  std::unique_ptr<LearnedSqlGen> pipeline;
  std::shared_ptr<const CompiledFsmTable> fsm;
  MetricDomain card;
  MetricDomain cost;
  double build_s = 0.0;
  double create_s = 0.0;
  double fsm_s = 0.0;
  double probe_s = 0.0;
  double total_s = 0.0;
};

LearnedSqlGenOptions GenOptions(const WorkloadSpec& spec) {
  LearnedSqlGenOptions gen;
  gen.train_epochs = spec.epochs;
  gen.true_feedback_tail = spec.true_feedback_tail;
  return gen;
}

std::unique_ptr<Setup> SetupOnce(const WorkloadSpec& spec,
                                 CompiledFsmCache* fsm_cache,
                                 BenchSpans* spans) {
  auto s = std::make_unique<Setup>();
  const LearnedSqlGenOptions gen_opts = GenOptions(spec);
  uint64_t t0 = Stopwatch::NowNanos();
  auto mark = [&](const char* name) {
    const uint64_t now = Stopwatch::NowNanos();
    spans->Add(name, 0, t0, now - t0);
    const double s_elapsed = static_cast<double>(now - t0) * 1e-9;
    t0 = now;
    return s_elapsed;
  };
  const DatasetScale scale = DatasetScale::RowScale(spec.row_scale);
  s->db = std::strcmp(spec.dataset, "job") == 0 ? BuildJobLike(scale)
                                                 : BuildTpchLike(scale);
  s->build_s = mark("datasets.build");
  auto pipeline = LearnedSqlGen::Create(&s->db, gen_opts);
  LSG_CHECK(pipeline.ok()) << pipeline.status().ToString();
  s->pipeline = std::move(pipeline).value();
  s->create_s = mark("core.create");
  // The key the pipelines of the service resolve: default compile caps,
  // no artifact directory (the service sets none without a spill dir).
  s->fsm = fsm_cache->GetOrCompile(s->db, s->pipeline->vocab(),
                                   gen_opts.profile, CompileFsmOptions(), "");
  s->fsm_s = mark("fsm.compile");
  EnvironmentOptions eo;
  eo.profile = gen_opts.profile;
  Rng rng(7);
  {
    SqlGenEnvironment probe(&s->db, &s->pipeline->vocab(),
                            &s->pipeline->estimator(),
                            &s->pipeline->cost_model(),
                            Constraint::Point(ConstraintMetric::kCardinality, 1),
                            eo);
    s->card = ProbeMetricDomain(&probe, 400, &rng, 0.2, 0.95);
  }
  {
    SqlGenEnvironment probe(&s->db, &s->pipeline->vocab(),
                            &s->pipeline->estimator(),
                            &s->pipeline->cost_model(),
                            Constraint::Point(ConstraintMetric::kCost, 1), eo);
    s->cost = ProbeMetricDomain(&probe, 400, &rng, 0.2, 0.95);
  }
  s->probe_s = mark("core.probe");
  s->total_s = s->build_s + s->create_s + s->fsm_s + s->probe_s;
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Value at quantile q (nearest rank) of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The highest of a few standard percentiles with at least five samples
/// beyond it (p99 needs 500 samples).
double TailPercentile(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 5.0) return p;
  }
  return 50.0;
}

// ----------------------------------------------------------- constraints

/// Distinct-bucket constraints spread over the probed domains, cycling
/// card point, cost point, card range, cost range. Fixed for a dataset and
/// count: the seed only orders them and names the requests (see README).
std::vector<Constraint> DistinctBuckets(const MetricDomain& card,
                                        const MetricDomain& cost,
                                        size_t count) {
  for (int k = static_cast<int>(count / 4) + 1;; k += 2) {
    LSG_CHECK(k < 4096) << "metric domains too narrow for " << count
                        << " distinct buckets";
    std::vector<std::vector<Constraint>> kinds(4);
    for (int m = 0; m < 2; ++m) {
      const MetricDomain& d = m == 0 ? card : cost;
      const ConstraintMetric metric =
          m == 0 ? ConstraintMetric::kCardinality : ConstraintMetric::kCost;
      const double lo = std::max(5.0, d.lo);
      const double hi = std::max(d.hi, lo * 16.0);
      for (double v : GeometricGrid(lo, hi, k)) {
        kinds[m].push_back(Constraint::Point(metric, std::round(v)));
      }
      const double widths[] = {2.0, 4.0, 8.0};
      std::vector<double> bases = GeometricGrid(lo, hi / 4.0, k);
      for (size_t i = 0; i < bases.size(); ++i) {
        const double b = std::round(bases[i]);
        kinds[2 + m].push_back(
            Constraint::Range(metric, b, b * widths[i % 3]));
      }
    }
    std::vector<Constraint> out;
    std::vector<ConstraintKey> seen;
    for (int i = 0; i < k && out.size() < count; ++i) {
      for (int kind = 0; kind < 4 && out.size() < count; ++kind) {
        const Constraint& c = kinds[kind][i];
        const ConstraintKey key = BucketOf(c);
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
        seen.push_back(key);
        out.push_back(c);
      }
    }
    if (out.size() == count) return out;
  }
}

/// The warm workload's hot buckets: one per (metric, kind), mid-domain.
std::vector<Constraint> HotBuckets(const MetricDomain& card,
                                   const MetricDomain& cost) {
  auto mid = [](const MetricDomain& d) {
    return std::round(std::sqrt(std::max(5.0, d.lo) * d.hi));
  };
  return {Constraint::Range(ConstraintMetric::kCardinality, mid(card) / 2,
                            mid(card) * 2),
          Constraint::Range(ConstraintMetric::kCost, mid(cost) / 2,
                            mid(cost) * 2),
          Constraint::Point(ConstraintMetric::kCardinality, mid(card)),
          Constraint::Point(ConstraintMetric::kCost, mid(cost))};
}

/// Request ids stay below 2^53: the wire protocol carries them as JSON
/// numbers.
uint64_t RequestId(uint64_t seed, size_t index) {
  return (seed % 1000003ull) * 1000000ull + index + 1;
}

std::string ConstraintJson(const Constraint& c) {
  const char* metric =
      c.metric == ConstraintMetric::kCardinality ? "card" : "cost";
  if (c.kind == ConstraintKind::kPoint) {
    return StrFormat("{\"metric\": \"%s\", \"kind\": \"point\", \"value\": %s}",
                     metric, FormatDouble(c.point).c_str());
  }
  return StrFormat(
      "{\"metric\": \"%s\", \"kind\": \"range\", \"lo\": %s, \"hi\": %s}",
      metric, FormatDouble(c.lo).c_str(), FormatDouble(c.hi).c_str());
}

// ----------------------------------------------------------------- passes

/// What one request returned, reduced to what the checks and metrics need.
struct Outcome {
  bool ok = false;
  std::string error;
  double latency_s = 0.0;
  int satisfied = 0;
  int attempts = 0;
  bool cache_hit = false;
  double queue_s = 0.0;
  double train_s = 0.0;
  double generate_s = 0.0;
  struct Query {
    std::string sql;
    double metric = 0.0;
    bool satisfied = false;
  };
  std::vector<Query> queries;
};

struct PassResult {
  double wall_s = 0.0;
  uint64_t start_ns = 0;  ///< timed window
  uint64_t end_ns = 0;
  double warmup_s = 0.0;
  std::vector<Outcome> outcomes;  ///< by request index
  ServiceMetricsSnapshot service;
  ServiceMetricsSnapshot service_before;  ///< after warm-up (warm only)
  obs::MetricsSnapshot registry;          ///< service.* and net.* metrics
  obs::MetricsSnapshot global;            ///< program metrics (traced pass)
  std::vector<obs::SpanTracer::Span> program_spans;
  uint64_t spans_dropped = 0;
  double ping_rtt_us = 0.0;
  uint64_t responses = 0;  ///< wire responses read by the clients
};

Outcome FromResponse(GenerationResponse&& r) {
  Outcome o;
  o.ok = r.status.ok();
  if (!o.ok) o.error = r.status.ToString();
  o.satisfied = r.report.satisfied;
  o.attempts = r.report.attempts;
  o.cache_hit = r.cache_hit;
  o.queue_s = r.queue_seconds;
  o.train_s = r.train_seconds;
  o.generate_s = r.generate_seconds;
  o.queries.reserve(r.report.queries.size());
  for (const GeneratedQuery& q : r.report.queries) {
    o.queries.push_back({q.sql, q.metric, q.satisfied});
  }
  return o;
}

GenerationServiceOptions ServiceOptions(const WorkloadSpec& spec,
                                        obs::MetricsRegistry* registry) {
  GenerationServiceOptions opts;  // defaults: workers, max_batch, registry
  opts.gen = GenOptions(spec);
  opts.metrics_registry = registry;
  return opts;
}

/// Closed loop in process: `clients` threads, each keeping `depth`
/// requests in flight through GenerationService::Submit.
PassResult RunInProcess(const WorkloadSpec& spec, const Setup& setup,
                        const std::vector<Constraint>& requests,
                        const std::vector<uint64_t>& ids,
                        const std::function<void()>& begin_timed,
                        BenchSpans* spans) {
  PassResult out;
  obs::MetricsRegistry registry;
  auto service =
      GenerationService::Create(&setup.db, ServiceOptions(spec, &registry));
  LSG_CHECK(service.ok()) << service.status().ToString();
  out.outcomes.resize(requests.size());
  std::atomic<size_t> next{0};
  begin_timed();
  out.start_ns = Stopwatch::NowNanos();
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&] {
      struct InFlight {
        size_t index;
        uint64_t sent_ns;
        std::future<GenerationResponse> future;
      };
      std::vector<InFlight> flight;
      auto submit = [&]() {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) return false;
        GenerationRequest req;
        req.constraint = requests[i];
        req.n = spec.n;
        req.batch = true;
        req.id = ids[i];
        const uint64_t t0 = Stopwatch::NowNanos();
        flight.push_back({i, t0, (*service)->Submit(std::move(req))});
        spans->Add("bench.submit", ids[i], t0, Stopwatch::NowNanos() - t0);
        return true;
      };
      for (int d = 0; d < spec.depth; ++d) {
        if (!submit()) break;
      }
      while (!flight.empty()) {
        InFlight f = std::move(flight.front());
        flight.erase(flight.begin());
        GenerationResponse r = f.future.get();
        const uint64_t done = Stopwatch::NowNanos();
        spans->Add("bench.request", ids[f.index], f.sent_ns, done - f.sent_ns);
        Outcome o = FromResponse(std::move(r));
        o.latency_s = static_cast<double>(done - f.sent_ns) * 1e-9;
        out.outcomes[f.index] = std::move(o);
        submit();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_s = wall.ElapsedSeconds();
  out.end_ns = Stopwatch::NowNanos();
  (*service)->Shutdown();
  out.service = (*service)->Metrics();
  out.registry = registry.Snapshot();
  return out;
}

/// Closed loop over loopback: hot buckets are trained first (timed as
/// warm-up), then `clients` BlockingClient connections each keep `depth`
/// frames in flight against an in-process NetServer + ServiceDispatcher.
PassResult RunOverNet(const WorkloadSpec& spec, const Setup& setup,
                      const std::vector<Constraint>& hot,
                      const std::vector<Constraint>& requests,
                      const std::vector<uint64_t>& ids, bool traced,
                      const std::function<void()>& begin_timed,
                      BenchSpans* spans) {
  PassResult out;
  obs::MetricsRegistry registry;
  auto service =
      GenerationService::Create(&setup.db, ServiceOptions(spec, &registry));
  LSG_CHECK(service.ok()) << service.status().ToString();
  {
    // One bucket at a time: concurrent warm-up requests would race for the
    // same worker's backlog and make set-up time depend on that race.
    Stopwatch warm;
    const uint64_t t0 = Stopwatch::NowNanos();
    for (size_t b = 0; b < hot.size(); ++b) {
      GenerationRequest req;
      req.constraint = hot[b];
      req.n = 1;
      req.batch = true;
      req.id = b + 1;
      GenerationResponse r = (*service)->SubmitAndWait(std::move(req));
      LSG_CHECK(r.status.ok()) << "warm-up failed: " << r.status.ToString();
    }
    out.warmup_s = warm.ElapsedSeconds();
    spans->Add("service.warmup", 0, t0, Stopwatch::NowNanos() - t0);
  }
  out.service_before = (*service)->Metrics();

  net::ServiceDispatcher dispatcher(service->get());
  net::NetServerOptions nopts;
  nopts.metrics_registry = &registry;
  auto server = net::NetServer::Create(&dispatcher, nopts);
  LSG_CHECK(server.ok()) << server.status().ToString();
  LSG_CHECK((*server)->Start().ok());
  const int port = (*server)->port();

  out.outcomes.resize(requests.size());
  std::vector<std::string> lines(requests.size());
  std::atomic<uint64_t> responses{0};
  begin_timed();
  out.start_ns = Stopwatch::NowNanos();
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = StrFormat("client-%d", c);
      auto conn = net::BlockingClient::Connect("127.0.0.1", port);
      std::vector<size_t> mine;
      for (size_t i = c; i < requests.size(); i += spec.clients) {
        mine.push_back(i);
      }
      if (!conn.ok()) {
        for (size_t i : mine) out.outcomes[i].error = conn.status().ToString();
        return;
      }
      std::vector<uint64_t> sent_ns(requests.size(), 0);
      size_t next_send = 0;
      size_t received = 0;
      auto send = [&]() {
        const size_t i = mine[next_send++];
        const std::string line = net::BuildRequestLine(
            tenant, ids[i], ConstraintJson(requests[i]), spec.n, true);
        sent_ns[i] = Stopwatch::NowNanos();
        Status st = conn->SendLine(line);
        spans->Add("bench.send", ids[i], sent_ns[i],
                   Stopwatch::NowNanos() - sent_ns[i]);
        if (!st.ok()) out.outcomes[i].error = st.ToString();
      };
      while (next_send < mine.size() &&
             next_send < static_cast<size_t>(spec.depth)) {
        send();
      }
      while (received < next_send) {
        auto line = conn->ReadLine();
        if (!line.ok()) {
          for (size_t k = 0; k < mine.size(); ++k) {
            if (lines[mine[k]].empty() && out.outcomes[mine[k]].error.empty()) {
              out.outcomes[mine[k]].error = line.status().ToString();
            }
          }
          return;
        }
        const uint64_t done = Stopwatch::NowNanos();
        ++received;
        responses.fetch_add(1);
        // Responses may arrive out of order; the id leads every frame.
        const char* p = std::strstr(line->c_str(), "\"id\": ");
        const uint64_t id = p == nullptr ? 0 : std::strtoull(p + 6, nullptr, 10);
        size_t index = static_cast<size_t>(id - ids[0]);
        if (id < ids[0] || index >= requests.size() || ids[index] != id) {
          index = requests.size();
        }
        if (index < requests.size()) {
          out.outcomes[index].latency_s =
              static_cast<double>(done - sent_ns[index]) * 1e-9;
          spans->Add("bench.request", id, sent_ns[index],
                     done - sent_ns[index]);
          lines[index] = std::move(*line);
        }
        if (next_send < mine.size()) send();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_s = wall.ElapsedSeconds();
  out.end_ns = Stopwatch::NowNanos();
  out.responses = responses.load();

  if (traced) {
    // Protocol round trip with no service work behind it.
    auto conn = net::BlockingClient::Connect("127.0.0.1", port);
    if (conn.ok()) {
      std::vector<double> rtt;
      for (int i = 0; i < 200; ++i) {
        const uint64_t t0 = Stopwatch::NowNanos();
        auto r = conn->Call(StrFormat("{\"op\": \"ping\", \"id\": %d}", i + 1));
        if (!r.ok()) break;
        rtt.push_back(static_cast<double>(Stopwatch::NowNanos() - t0) * 1e-3);
        ++out.responses;
      }
      out.ping_rtt_us = Median(rtt);
    }
  }
  (*server)->BeginDrain();
  LSG_CHECK((*server)->Join().ok());
  (*service)->Shutdown();
  out.service = (*service)->Metrics();
  out.registry = registry.Snapshot();

  for (size_t i = 0; i < requests.size(); ++i) {
    Outcome& o = out.outcomes[i];
    if (lines[i].empty()) {
      if (o.error.empty()) o.error = "no response";
      continue;
    }
    auto json = obs::JsonParse(lines[i]);
    if (!json.ok() || !json->is_object()) {
      o.error = "unparseable response";
      continue;
    }
    const obs::JsonValue* ok = json->Find("ok");
    if (ok == nullptr || !ok->b) {
      o.error = "error response: " + json->StringOr("error", "?");
      continue;
    }
    o.ok = true;
    o.satisfied = static_cast<int>(json->NumberOr("satisfied", -1));
    o.attempts = static_cast<int>(json->NumberOr("attempts", -1));
    const obs::JsonValue* hit = json->Find("cache_hit");
    o.cache_hit = hit != nullptr && hit->b;
    const obs::JsonValue* queries = json->Find("queries");
    if (queries != nullptr && queries->is_array()) {
      for (const obs::JsonValue& q : queries->array) {
        Outcome::Query query;
        query.sql = q.StringOr("sql", "");
        query.metric = q.NumberOr("metric", -1.0);
        query.satisfied = requests[i].Satisfied(query.metric);
        o.queries.push_back(std::move(query));
      }
    }
  }
  return out;
}

// ----------------------------------------------------------------- checks

struct CheckResult {
  uint64_t errors = 0;  ///< requests failed, rejected or failing a check
  uint64_t satisfied = 0;
  uint64_t attempts = 0;
  uint64_t queries = 0;
  uint64_t exec_checked = 0;
  std::vector<bool> request_ok;
  std::string first_error;
};

/// Output checks of every returned query, on up to four threads.
CheckResult CheckOutputs(const WorkloadSpec& spec, const Setup& setup,
                         const std::vector<Constraint>& requests,
                         const PassResult& pass) {
  CheckResult out;
  out.request_ok.assign(requests.size(), false);
  const bool exec_check = spec.true_feedback_tail > 0.0;
  std::vector<std::string> errors(requests.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> exec_checked{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      OutputChecker checker(setup.pipeline.get(), &setup.db, exec_check);
      for (size_t i = next.fetch_add(1); i < requests.size();
           i = next.fetch_add(1)) {
        const Outcome& o = pass.outcomes[i];
        std::string& err = errors[i];
        if (!o.ok) {
          err = o.error.empty() ? "request failed" : o.error;
          continue;
        }
        if (o.attempts != spec.n ||
            o.queries.size() != static_cast<size_t>(spec.n)) {
          err = StrFormat("expected %d attempts, got %d (%zu queries)",
                          spec.n, o.attempts, o.queries.size());
          continue;
        }
        int flagged = 0;
        for (size_t k = 0; k < o.queries.size(); ++k) {
          const Outcome::Query& q = o.queries[k];
          flagged += q.satisfied ? 1 : 0;
          // Both engines run every delivered (satisfied) query and every
          // tenth of the rest: the reference engine is the slow oracle.
          const bool exec = exec_check && (q.satisfied || k % 10 == 0);
          err = checker.Check(requests[i], q.sql, q.metric, q.satisfied, exec);
          if (!err.empty()) break;
        }
        if (err.empty() && flagged != o.satisfied) {
          err = StrFormat("satisfied count %d, flagged queries %d",
                          o.satisfied, flagged);
        }
      }
      exec_checked.fetch_add(checker.exec_checked());
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t i = 0; i < requests.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    out.queries += o.queries.size();
    if (!errors[i].empty()) {
      ++out.errors;
      if (out.first_error.empty()) out.first_error = errors[i];
      continue;
    }
    out.request_ok[i] = true;
    out.satisfied += static_cast<uint64_t>(o.satisfied);
    out.attempts += static_cast<uint64_t>(o.attempts);
  }
  out.exec_checked = exec_checked.load();
  return out;
}

// --------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / basis, printed beside the value
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StrFormat("%.17g", v);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     metrics[i].name.c_str(),
                     JsonNumber(metrics[i].value).c_str(),
                     metrics[i].unit.c_str());
  }
  return out + "}";
}

double HistMean(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.mean;
}

const obs::HistogramStats* Hist(const obs::MetricsSnapshot& s,
                                const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

uint64_t Count(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------ determinism

/// Looks up (workload, seed) for this build in the determinism record and
/// appends the counts when absent. Returns "" or the disagreement.
std::string CheckDeterminism(const std::string& path, const std::string& code,
                             const std::string& workload, uint64_t seed,
                             size_t requests, uint64_t satisfied, uint64_t attempts,
                             bool* repeated) {
  *repeated = false;
  std::ifstream in(path);
  std::string line;
  const std::string key =
      StrFormat("%s %s %llu %zu ", code.c_str(), workload.c_str(),
                static_cast<unsigned long long>(seed), requests);
  const std::string value =
      StrFormat("%llu %llu", static_cast<unsigned long long>(satisfied),
                static_cast<unsigned long long>(attempts));
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    *repeated = true;
    const std::string earlier = line.substr(key.size());
    if (earlier != value) {
      return "satisfied/attempts " + value + " differ from an earlier run's " +
             earlier;
    }
    return "";
  }
  std::ofstream app(path, std::ios::app);
  app << key << value << "\n";
  return "";
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string state_dir = ".bench_build";
  std::string code_id = "unversioned";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--state-dir") {
      a->state_dir = v;
    } else if (k == "--code-id") {
      a->code_id = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double MedianOf(const std::vector<std::unique_ptr<Setup>>& reps,
                double Setup::*field) {
  std::vector<double> v;
  for (const auto& s : reps) v.push_back((*s).*field);
  return Median(v);
}

/// The run's requests: fixed constraint values in a seed-drawn order.
/// `hot` receives the warm workload's buckets.
std::vector<Constraint> BuildRequests(const WorkloadSpec& spec,
                                      const Setup& setup, uint64_t seed,
                                      size_t count,
                                      std::vector<Constraint>* hot) {
  std::vector<Constraint> requests;
  Rng rng(SplitMix64(seed));
  auto shuffle = [&](std::vector<Constraint>* v) {
    for (size_t j = v->size(); j > 1; --j) {
      std::swap((*v)[j - 1], (*v)[rng.Uniform(static_cast<int>(j))]);
    }
  };
  if (!spec.warm) {
    requests = DistinctBuckets(setup.card, setup.cost, count);
    shuffle(&requests);
    return requests;
  }
  *hot = HotBuckets(setup.card, setup.cost);
  // Balanced mix: every block of |hot| requests covers each bucket once.
  for (size_t i = 0; i < count; i += hot->size()) {
    std::vector<Constraint> block = *hot;
    shuffle(&block);
    requests.insert(requests.end(), block.begin(), block.end());
  }
  return requests;
}

/// Workload validity of an untraced pass: cold workloads never hit the
/// registry; the warm timed phase trains nothing, always hits, and the
/// server accounts for every request it received.
std::vector<std::string> ValidityFailures(const WorkloadSpec& spec,
                                          const PassResult& pass,
                                          double hit_rate,
                                          uint64_t trainings) {
  std::vector<std::string> failures;
  if (!spec.warm) {
    if (hit_rate != 0.0) {
      failures.push_back(
          StrFormat("cold workload hit the registry (rate %.4f)", hit_rate));
    }
    return failures;
  }
  if (trainings != 0 || hit_rate != 1.0) {
    failures.push_back(StrFormat(
        "warm timed phase trained %llu models, registry hit rate %.4f",
        static_cast<unsigned long long>(trainings), hit_rate));
  }
  const uint64_t received = Count(pass.registry, "net.req.received");
  const uint64_t orphaned = Count(pass.registry, "net.req.orphaned");
  if (received != pass.responses + orphaned) {
    failures.push_back(StrFormat(
        "net.req.received %llu != responses %llu + orphaned %llu",
        static_cast<unsigned long long>(received),
        static_cast<unsigned long long>(pass.responses),
        static_cast<unsigned long long>(orphaned)));
  }
  return failures;
}

/// The per-layer metrics of a traced pass (README: "Per-layer metrics").
std::vector<Metric> LayerMetrics(
    const std::vector<std::unique_ptr<Setup>>& reps, const PassResult& traced,
    const SpanTable& table, const RedriveResult& rd, double goodput,
    double traced_goodput, double peak_rss_mb) {
  const obs::MetricsSnapshot& g = traced.global;
  const obs::MetricsSnapshot& reg = traced.registry;
  const ServiceMetricsSnapshot& ts = traced.service;
  const ServiceMetricsSnapshot& tb = traced.service_before;
  const double workers = GenerationServiceOptions().num_workers;
  const uint64_t hits = ts.cache_hits - tb.cache_hits;
  const uint64_t misses = ts.cache_misses - tb.cache_misses;
  const obs::HistogramStats* qwait = Hist(reg, "service.queue_wait_ns");
  const obs::HistogramStats* exec_h = Hist(g, "exec.select_ns");
  const obs::HistogramStats* vexec_h = Hist(g, "vexec.select_ns");
  const double exec_s =
      ((exec_h ? exec_h->sum : 0.0) + (vexec_h ? vexec_h->sum : 0.0)) * 1e-9;
  const uint64_t mask_evals = Count(g, "fsm.mask_evals");
  const uint64_t opt_hits = Count(g, "opt.cache.hits");
  const uint64_t opt_misses = Count(g, "opt.cache.misses");
  uint64_t net_errors = 0;
  for (const char* name :
       {"net.req.bad_frame", "net.req.oversized", "net.req.bad_request",
        "net.req.over_quota", "net.req.over_inflight", "net.req.queue_full",
        "net.req.draining", "net.req.timeout", "net.req.internal"}) {
    net_errors += Count(reg, name);
  }
  const double epoch_count = static_cast<double>(table.Count("rl.ac_epoch"));
  const double generate_s = ts.generate_seconds - tb.generate_seconds;
  return {
      {"datasets.build_s", MedianOf(reps, &Setup::build_s), "s",
       "set-up median"},
      {"core.create_s", MedianOf(reps, &Setup::create_s), "s",
       "set-up median"},
      {"fsm.compile_s", MedianOf(reps, &Setup::fsm_s), "s", "set-up median"},
      {"fsm.compiled", reps[0]->fsm != nullptr ? 1.0 : 0.0, "bool",
       "compiled table in use"},
      {"service.warmup_s", traced.warmup_s, "s", "hot-bucket training"},
      {"rl.epoch_ms", Ratio(table.Total("rl.ac_epoch") * 1e3, epoch_count),
       "ms", StrFormat("%.0f rl.ac_epoch spans", epoch_count)},
      {"rl.update_ms",
       Ratio(table.Total("rl.ac_update") * 1e3,
             static_cast<double>(table.Count("rl.ac_update"))),
       "ms", "rl.ac_update spans"},
      {"rl.rollout_self_ms", rd.rollout_self_ms, "ms",
       "re-drive: epoch - update - env - mask"},
      {"rl.epochs", static_cast<double>(Count(g, "rl.epochs")), "count", ""},
      {"rl.episodes", static_cast<double>(Count(g, "rl.episodes")), "count",
       ""},
      {"fsm.mask_ns", rd.mask_ns, "ns",
       StrFormat("re-drive, %llu calls",
                 static_cast<unsigned long long>(rd.mask_calls))},
      {"fsm.mask_evals", static_cast<double>(mask_evals), "count", ""},
      {"fsm.mask_width_mean",
       Ratio(static_cast<double>(Count(g, "fsm.mask_width_sum")),
             static_cast<double>(mask_evals)),
       "tokens", ""},
      {"env.step_us", rd.step_us, "us",
       StrFormat("re-drive, %llu calls",
                 static_cast<unsigned long long>(rd.step_calls))},
      {"env.feedback_ns", HistMean(g, "env.feedback_ns"), "ns", "mean"},
      {"opt.estimate_ns", HistMean(g, "opt.estimate_ns"), "ns", "mean"},
      {"opt.cost_ns", HistMean(g, "opt.cost_ns"), "ns", "mean"},
      {"opt.cache_hit_rate",
       Ratio(static_cast<double>(opt_hits),
             static_cast<double>(opt_hits + opt_misses)),
       "ratio", "feedback cache (none by default)"},
      {"env.true_feedback_calls",
       static_cast<double>(Count(g, "env.true_feedback_calls")), "count", ""},
      {"exec.select_ns", HistMean(g, "exec.select_ns"), "ns", "mean"},
      {"vexec.select_ns", HistMean(g, "vexec.select_ns"), "ns", "mean"},
      {"exec.share_of_train", Ratio(exec_s, table.Total("gen.train")),
       "ratio", "exec+vexec select time / gen.train"},
      {"core.generate_ms",
       Ratio(generate_s * 1e3, static_cast<double>(ts.requests_completed -
                                                   tb.requests_completed)),
       "ms", "mean decode wall per request (service.generate_micros)"},
      {"core.decode_lanes_mean", HistMean(reg, "service.batch_size"), "lanes",
       "service.batch_size"},
      {"core.attempts_per_s",
       Ratio(static_cast<double>(ts.attempts - tb.attempts), generate_s),
       "1/s", "attempts / summed request decode time"},
      {"service.queue_wait_p50_ms", qwait ? qwait->p50 * 1e-6 : 0.0, "ms",
       ""},
      {"service.queue_wait_p99_ms", qwait ? qwait->p99 * 1e-6 : 0.0, "ms",
       ""},
      {"service.handle_ms", HistMean(reg, "service.handle_ns") * 1e-6, "ms",
       "mean per group"},
      {"service.worker_busy_share",
       Ratio(ts.busy_seconds - tb.busy_seconds, workers * traced.wall_s),
       "ratio", "busy / (workers x wall)"},
      {"service.registry_hit_rate",
       Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
       "ratio", ""},
      {"service.train_s_per_miss",
       Ratio(ts.train_seconds - tb.train_seconds,
             static_cast<double>(ts.trainings - tb.trainings)),
       "s", ""},
      {"service.dedup_waits",
       static_cast<double>(ts.dedup_waits - tb.dedup_waits), "count", ""},
      {"net.parse_ns", HistMean(reg, "net.req.parse_ns"), "ns", "mean"},
      {"net.dispatch_ns", HistMean(reg, "net.req.dispatch_ns"), "ns", "mean"},
      {"net.ping_rtt_us", traced.ping_rtt_us, "us", "median of 200 pings"},
      {"net.errors", static_cast<double>(net_errors), "count", ""},
      {"trace.overhead_pct",
       Ratio((goodput - traced_goodput) * 100.0, goodput), "%",
       StrFormat("untraced %.4g vs traced %.4g goodput", goodput,
                 traced_goodput)},
      {"trace.spans_dropped", static_cast<double>(traced.spans_dropped),
       "count", "ring overwrites between polls"},
      {"process.peak_rss_mb", peak_rss_mb, "MB",
       "after the untraced pass and its checks"},
  };
}

/// Span coverage of a traced pass (README: "Span coverage"). Appends the
/// three coverage metrics to `metrics` and returns the report lines; a gap
/// over 5% is a GAP line of its own.
std::vector<std::string> CoverageReport(const WorkloadSpec& spec,
                                        const PassResult& traced,
                                        const SpanTable& table,
                                        const RedriveResult& rd,
                                        std::vector<Metric>* metrics) {
  std::vector<std::string> lines;
  auto pct = [](double part, double whole) {
    return whole <= 0.0 ? 0.0 : 100.0 * part / whole;
  };
  auto gap_line = [&](const std::string& what, double gap_pct) {
    lines.push_back(StrFormat("%s %s: %.1f%%", gap_pct > 5.0 ? "GAP" : "gap",
                              what.c_str(), gap_pct));
  };

  // Share of the timed wall during which some worker was inside a
  // service.handle span (union over workers).
  std::vector<std::pair<uint64_t, uint64_t>> handles;
  for (const auto& s : traced.program_spans) {
    if (std::strcmp(s.name, "service.handle") != 0) continue;
    const uint64_t b = std::max(s.start_ns, traced.start_ns);
    const uint64_t e = std::min(s.start_ns + s.duration_ns, traced.end_ns);
    if (e > b) handles.push_back({b, e});
  }
  std::sort(handles.begin(), handles.end());
  double covered_ns = 0.0;
  uint64_t cur_end = 0;
  for (const auto& [b, e] : handles) {
    const uint64_t from = std::max(b, cur_end);
    if (e > from) covered_ns += static_cast<double>(e - from);
    cur_end = std::max(cur_end, e);
  }
  const double wall_cov = pct(covered_ns * 1e-9, traced.wall_s);
  metrics->push_back({"trace.wall_coverage_pct", wall_cov, "%",
                      "timed wall inside some service.handle"});
  lines.push_back(StrFormat(
      "timed wall %.3f s: %.1f%% inside service.handle on some worker",
      traced.wall_s, wall_cov));
  gap_line("timed wall outside any service.handle", 100.0 - wall_cov);

  // Per request: in process, latency against queue wait, training and
  // decode; over the wire, client RTT against the server's time.
  const double handle_s = table.Total("service.handle");
  const double train_in_handle = table.Child("service.handle", "gen.train");
  double lat_s = 0.0;
  double queue_s = 0.0;
  double train_s = 0.0;
  double gen_s = 0.0;
  for (const Outcome& o : traced.outcomes) {
    lat_s += o.latency_s;
    queue_s += o.queue_s;
    if (!o.cache_hit) train_s += o.train_s;
    gen_s += o.generate_s;
  }
  double handle_cov = 0.0;
  if (!spec.warm) {
    handle_cov = pct(train_s + gen_s, lat_s - queue_s);
    lines.push_back(StrFormat(
        "request: latency %.3f s = queue %.1f%% + train %.1f%% + decode "
        "%.1f%% + other %.1f%%",
        lat_s, pct(queue_s, lat_s), pct(train_s, lat_s), pct(gen_s, lat_s),
        pct(lat_s - queue_s - train_s - gen_s, lat_s)));
    lines.push_back(StrFormat(
        "service.handle %.3f s: gen.train children %.1f%%, decode "
        "(response generate_seconds) %.1f%%",
        handle_s, pct(train_in_handle, handle_s), pct(gen_s, handle_s)));
    gap_line("service.handle not covered by gen.train + decode",
             100.0 - pct(train_in_handle + gen_s, handle_s));
  } else {
    const obs::MetricsSnapshot& reg = traced.registry;
    const double server_ms = HistMean(reg, "net.req.e2e_ns") * 1e-6;
    const double client_ms =
        Ratio(lat_s * 1e3, static_cast<double>(traced.outcomes.size()));
    const double qwait_ms = HistMean(reg, "service.queue_wait_ns") * 1e-6;
    const double group_ms = HistMean(reg, "service.handle_ns") * 1e-6;
    handle_cov = pct(qwait_ms + group_ms, server_ms);
    lines.push_back(StrFormat(
        "request: client RTT %.3f ms; server net.req.e2e %.3f ms (%.1f%%); "
        "queue wait %.3f ms + group handle %.3f ms = %.1f%% of server time",
        client_ms, server_ms, pct(server_ms, client_ms), qwait_ms, group_ms,
        handle_cov));
    gap_line("client RTT outside the server",
             100.0 - pct(server_ms, client_ms));
    gap_line("server time outside queue wait + handle", 100.0 - handle_cov);
    lines.push_back(StrFormat(
        "service.handle %.3f s: gen.train children %.1f%% (warm: expect 0)",
        handle_s, pct(train_in_handle, handle_s)));
  }
  metrics->push_back({"trace.handle_coverage_pct", handle_cov, "%",
                      "per-request service time covered by named stages"});

  // Per training (re-drive): gen.train against its epochs, each epoch
  // against update, env and mask.
  lines.push_back(StrFormat(
      "training (re-drive, %d epochs): gen.train %.3f s, rl.ac_epoch sum "
      "%.3f s (%.1f%%)",
      rd.epochs, rd.train_s, rd.epoch_sum_s, pct(rd.epoch_sum_s, rd.train_s)));
  gap_line("gen.train not covered by rl.ac_epoch",
           100.0 - pct(rd.epoch_sum_s, rd.train_s));
  lines.push_back(StrFormat(
      "rl.ac_epoch %.3f ms = update %.1f%% + env %.1f%% + mask %.1f%% + "
      "rollout self %.1f%%",
      rd.epoch_ms, pct(rd.update_ms, rd.epoch_ms), pct(rd.step_ms, rd.epoch_ms),
      pct(rd.mask_ms, rd.epoch_ms), pct(rd.rollout_self_ms, rd.epoch_ms)));
  gap_line("rl.ac_epoch not covered by update/env/mask spans (reported as "
           "rl.rollout_self_ms)",
           pct(rd.rollout_self_ms, rd.epoch_ms));
  metrics->push_back({"trace.epoch_coverage_pct",
                      100.0 - pct(rd.rollout_self_ms, rd.epoch_ms), "%",
                      "epoch covered by update + env + mask"});
  return lines;
}

/// Chrome trace_event file: the benchmark's spans (with request ids) and
/// the program's spans except per-token env.step, which only the
/// self-time table aggregates.
void WriteTraceFile(const std::string& path,
                    const std::vector<BenchSpan>& bench,
                    const std::vector<obs::SpanTracer::Span>& program) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  auto event = [&](const char* name, const char* cat, int tid, uint64_t start,
                   uint64_t dur, uint64_t req) {
    out << (first ? "" : ",\n")
        << StrFormat("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"req\": %llu}}",
                     name, cat, tid, start * 1e-3, dur * 1e-3,
                     static_cast<unsigned long long>(req));
    first = false;
  };
  for (const BenchSpan& s : bench) {
    event(s.name, "bench", 1000 + s.tid, s.start_ns, s.duration_ns,
          s.request_id);
  }
  for (const auto& s : program) {
    if (std::strcmp(s.name, "env.step") == 0) continue;
    event(s.name, "program", s.tid, s.start_ns, s.duration_ns, 0);
  }
  out << "\n]}\n";
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  mkdir(args.state_dir.c_str(), 0755);
  const std::string results_dir = args.state_dir + "/results";
  mkdir(results_dir.c_str(), 0755);
  const std::string run_name =
      StrFormat("%s/%s-seed%llu", results_dir.c_str(), spec->name,
                static_cast<unsigned long long>(args.seed));
  std::printf("workload %s (%s)\nseed %llu, seconds %.0f, trace %d\n",
              spec->name, spec->why,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Set-up, several times; the first resolves the process-wide FSM table
  // the service's pipelines then share, the others repeat the cold
  // resolution in private caches.
  BenchSpans spans;
  std::vector<std::unique_ptr<Setup>> reps;
  for (int r = 0; r < kSetupReps; ++r) {
    CompiledFsmCache private_cache;
    reps.push_back(SetupOnce(
        *spec, r == 0 ? &CompiledFsmCache::Global() : &private_cache, &spans));
  }
  const Setup& setup = *reps[0];

  // A traced run makes two passes (untraced, then traced), each with half
  // the requests, so it lasts about as long as an untraced run.
  const size_t count = std::max<size_t>(
      4, static_cast<size_t>(std::llround(args.seconds *
                                          spec->requests_per_second /
                                          (args.trace ? 2.0 : 1.0))));
  std::vector<Constraint> hot;
  const std::vector<Constraint> requests =
      BuildRequests(*spec, setup, args.seed, count, &hot);
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < requests.size(); ++i) {
    ids.push_back(RequestId(args.seed, i));
  }

  auto run_pass = [&](bool traced) {
    // Tracing covers the timed phase only (after warm-up on warm_serve).
    ProgramSpanCollector collector;
    auto begin_timed = [&] {
      if (!traced) return;
      obs::SetEnabled(true);
      obs::MetricsRegistry::Global().Reset();
      collector.Start();
    };
    PassResult pass =
        spec->warm ? RunOverNet(*spec, setup, hot, requests, ids, traced,
                                begin_timed, &spans)
                   : RunInProcess(*spec, setup, requests, ids, begin_timed,
                                  &spans);
    if (traced) {
      collector.Stop();
      pass.global = obs::MetricsRegistry::Global().Snapshot();
      pass.program_spans = collector.spans();
      pass.spans_dropped = collector.dropped();
    }
    return pass;
  };

  PassResult pass = run_pass(false);
  Stopwatch check_watch;
  const CheckResult checks = CheckOutputs(*spec, setup, requests, pass);
  const double check_s = check_watch.ElapsedSeconds();
  const double goodput =
      Ratio(static_cast<double>(checks.satisfied), pass.wall_s);

  std::vector<double> latencies_ms;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (checks.request_ok[i]) {
      latencies_ms.push_back(pass.outcomes[i].latency_s * 1e3);
    }
  }
  const double tail_p = TailPercentile(latencies_ms.size());

  // ---- validity and determinism
  const ServiceMetricsSnapshot& sm = pass.service;
  const ServiceMetricsSnapshot& before = pass.service_before;
  const uint64_t timed_hits = sm.cache_hits - before.cache_hits;
  const uint64_t timed_misses = sm.cache_misses - before.cache_misses;
  const uint64_t timed_trainings = sm.trainings - before.trainings;
  const double hit_rate =
      Ratio(static_cast<double>(timed_hits),
            static_cast<double>(timed_hits + timed_misses));
  std::vector<std::string> failures =
      ValidityFailures(*spec, pass, hit_rate, timed_trainings);
  if (checks.errors > 0) {
    failures.push_back(StrFormat("%llu requests failed a check; first: %s",
                                 static_cast<unsigned long long>(checks.errors),
                                 checks.first_error.c_str()));
  }
  bool repeated = false;
  const std::string det = CheckDeterminism(
      args.state_dir + "/determinism.txt", args.code_id, spec->name, args.seed,
      requests.size(), checks.satisfied, checks.attempts, &repeated);
  if (!det.empty()) failures.push_back("determinism: " + det);

  // ---- end-to-end metrics (untraced pass)
  const double setup_s = MedianOf(reps, &Setup::total_s) +
                         (spec->warm ? pass.warmup_s : 0.0);
  const std::string nreq = StrFormat("n=%zu requests", latencies_ms.size());
  std::vector<Metric> reported = {
      {"goodput_qps", goodput, "1/s",
       StrFormat("%llu satisfied / %.3f s wall",
                 static_cast<unsigned long long>(checks.satisfied),
                 pass.wall_s)},
      {"satisfied_rate",
       Ratio(static_cast<double>(checks.satisfied),
             static_cast<double>(checks.attempts)),
       "ratio",
       StrFormat("%llu / %llu attempts",
                 static_cast<unsigned long long>(checks.satisfied),
                 static_cast<unsigned long long>(checks.attempts))},
      {"latency_p50_ms", Quantile(latencies_ms, 0.5), "ms", nreq},
      {"latency_tail_ms", Quantile(latencies_ms, tail_p / 100.0), "ms",
       StrFormat("p%g, %s", tail_p, nreq.c_str())},
      {"setup_s", setup_s, "s",
       StrFormat("median of %d set-ups%s", kSetupReps,
                 spec->warm ? " + bucket warm-up" : "")},
  };
  const double peak_rss_mb = PeakRssMb();

  std::printf("\n-- end to end (untraced pass)\n");
  for (const Metric& m : reported) {
    std::printf("  %-18s %14.6g %-6s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const uint64_t attempted = requests.size();
  std::printf("  %-18s %14.6g %-6s (process peak; per-layer metric)\n",
              "peak_rss_mb", peak_rss_mb, "MB");
  std::printf("  %-18s %14.6g %-6s (%llu of %llu requests)\n", "error_rate",
              Ratio(static_cast<double>(checks.errors),
                    static_cast<double>(attempted)),
              "ratio", static_cast<unsigned long long>(checks.errors),
              static_cast<unsigned long long>(attempted));
  std::printf("  determinism: satisfied %llu attempts %llu (%s)\n",
              static_cast<unsigned long long>(checks.satisfied),
              static_cast<unsigned long long>(checks.attempts),
              !repeated      ? "first run of this seed with this build"
              : det.empty() ? "equal to the earlier run of this seed"
                            : "DIFFERENT from the earlier run of this seed");
  std::printf("  validity: registry hit rate %.4f, timed trainings %llu, "
              "worker busy share %.4f, checked queries %llu (exec-checked %llu) "
              "in %.1f s\n",
              hit_rate, static_cast<unsigned long long>(timed_trainings),
              Ratio(sm.busy_seconds - before.busy_seconds,
                    GenerationServiceOptions().num_workers * pass.wall_s),
              static_cast<unsigned long long>(checks.queries),
              static_cast<unsigned long long>(checks.exec_checked), check_s);

  if (args.trace) {
    PassResult traced = run_pass(true);
    const CheckResult tchecks = CheckOutputs(*spec, setup, requests, traced);
    if (tchecks.errors > 0) {
      failures.push_back("traced pass: " + tchecks.first_error);
    }
    if (tchecks.satisfied != checks.satisfied ||
        tchecks.attempts != checks.attempts) {
      failures.push_back("traced pass counts differ from the untraced pass");
    }
    const uint64_t true_calls = Count(traced.global, "env.true_feedback_calls");
    if (spec->true_feedback_tail == 0.0 && true_calls != 0) {
      failures.push_back(StrFormat("env.true_feedback_calls = %llu on an "
                                   "estimator-only workload",
                                   static_cast<unsigned long long>(true_calls)));
    }
    if (!spec->warm && Count(traced.registry, "net.req.received") > 0) {
      failures.push_back("net traffic on a cold workload");
    }

    // Re-drive one training of this workload's first constraint.
    const RedriveResult rd = Redrive(&setup.db, GenOptions(*spec),
                                     spec->warm ? hot[0] : requests[0]);
    obs::SetEnabled(false);
    if (!rd.match) failures.push_back("re-drive diverged: " + rd.mismatch);

    const SpanTable table = BuildSpanTable(traced.program_spans);
    reported = LayerMetrics(
        reps, traced, table, rd, goodput,
        Ratio(static_cast<double>(tchecks.satisfied), traced.wall_s),
        peak_rss_mb);
    const std::vector<std::string> coverage =
        CoverageReport(*spec, traced, table, rd, &reported);

    std::printf("\n-- per-layer self time (traced pass, program spans)\n");
    std::printf("  %-24s %9s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    for (const auto& [name, row] : table.rows) {
      std::printf("  %-24s %9llu %12.4f %12.4f\n", name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_s,
                  row.self_s);
    }
    WriteTraceFile(run_name + "-trace.json", spans.Snapshot(),
                   traced.program_spans);
    std::printf("  spans written to %s-trace.json\n", run_name.c_str());
    std::printf("\n-- per layer (traced pass)\n");
    for (const Metric& m : reported) {
      std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("\n-- span coverage\n");
    for (const std::string& line : coverage) {
      std::printf("  %s\n", line.c_str());
    }
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = failures.empty();
  const std::string result = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(checks.errors),
      MetricsJson(reported).c_str());
  std::ofstream(StrFormat("%s-trace%d.json", run_name.c_str(),
                          args.trace ? 1 : 0))
      << result << "\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace lsg

int main(int argc, char** argv) {
  lsg::perfbench::Args args;
  if (!lsg::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lsg_perfbench --workload cold_mix|warm_serve|"
                 "exec_feedback --seed N --seconds S --trace 0|1 "
                 "[--state-dir DIR] [--code-id ID]\n");
    return 2;
  }
  return lsg::perfbench::Run(args);
}
