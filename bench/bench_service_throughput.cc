// Service throughput microbench in two phases:
//
//  1. Mixed constraint workload at {1,2,4,8} workers x max_batch {1,8,32}.
//     Each setting runs the same request sequence against a fresh service,
//     so scaling numbers are apples-to-apples (training dominates here).
//  2. Pure generation throughput: one bucket is trained once, then a burst
//     of same-bucket batch-mode requests is decoded at max_batch {1,8,32}
//     on a single worker. This isolates the batched-GEMM decode path — the
//     speedup over max_batch=1 (one decode lane) is the cross-request
//     batching win.
//
// Results are emitted as one JSON row per setting:
//
//   {"bench": "service_throughput", "dataset": "TPC-H", "workers": 4, ...}
//   {"bench": "service_gen_throughput", "max_batch": 8, ...}
//
// Scale knobs (see bench_common.h): LSG_N is repurposed as the request
// count, LSG_EPOCHS as per-model training epochs, LSG_QUICK shrinks both.
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics_registry.h"
#include "service/generation_service.h"

namespace lsg {
namespace bench {
namespace {

// Mixed workload over a probed metric domain: point + range, card + cost,
// cycled so repeats of a bucket arrive and exercise the cache.
std::vector<Constraint> MixedWorkload(const DatasetContext& ctx,
                                      int requests) {
  std::vector<Constraint> unique;
  for (const Constraint& c :
       PaperPointGrid(ConstraintMetric::kCardinality, ctx.card_domain)) {
    unique.push_back(c);
  }
  for (const Constraint& c :
       PaperRangeGrid(ConstraintMetric::kCardinality, ctx.card_domain)) {
    unique.push_back(c);
  }
  for (const Constraint& c :
       PaperPointGrid(ConstraintMetric::kCost, ctx.cost_domain)) {
    unique.push_back(c);
  }
  std::vector<Constraint> workload;
  workload.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    workload.push_back(unique[i % unique.size()]);
  }
  return workload;
}

void RunAtConcurrency(const Database* db,
                      const std::vector<Constraint>& workload,
                      const std::string& dataset, int workers, int max_batch,
                      int epochs, int n_per_request, JsonRowWriter* json) {
  GenerationServiceOptions opts;
  opts.num_workers = workers;
  opts.max_batch = max_batch;
  opts.queue_capacity = workload.size();
  opts.registry.capacity = 16;  // hold the full unique set: hits are real
  opts.gen.train_epochs = epochs;
  opts.gen.trainer.batch_size = 8;
  opts.gen.seed = 20220612;
  // All workers share one estimate memo, as lsgserve wires it in prod.
  FeedbackCache feedback_cache;
  opts.gen.feedback_cache = &feedback_cache;
  obs::MetricsRegistry registry;
  opts.metrics_registry = &registry;

  auto service = GenerationService::Create(db, opts);
  LSG_CHECK(service.ok()) << service.status().ToString();

  Stopwatch wall;
  std::vector<std::future<GenerationResponse>> futures;
  futures.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    GenerationRequest req;
    req.constraint = workload[i];
    req.n = n_per_request;
    req.batch = true;
    req.id = i + 1;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  uint64_t queries = 0;
  for (auto& f : futures) {
    GenerationResponse r = f.get();
    if (r.status.ok()) queries += r.report.queries.size();
  }
  (*service)->Shutdown();
  double seconds = wall.ElapsedSeconds();

  ServiceMetricsSnapshot m = (*service)->Metrics();
  obs::HistogramStats batches =
      registry.GetHistogram("service.batch_size").Snapshot();
  std::string row = StrFormat(
      "{\"bench\": \"service_throughput\", \"dataset\": \"%s\", "
      "\"workers\": %d, \"max_batch\": %d, \"requests\": %zu, "
      "\"seconds\": %.3f, "
      "\"requests_per_sec\": %.3f, \"queries_per_sec\": %.3f, "
      "\"mean_batch_size\": %.3f, "
      "\"cache_hit_rate\": %.4f, \"satisfied_rate\": %.4f, "
      "\"trainings\": %llu, \"queue_depth_high_water\": %llu, "
      "\"busy_seconds\": %.3f}",
      dataset.c_str(), workers, max_batch, workload.size(), seconds,
      static_cast<double>(workload.size()) / seconds,
      static_cast<double>(queries) / seconds, batches.mean,
      m.cache_hit_rate(), m.satisfied_rate(),
      static_cast<unsigned long long>(m.trainings),
      static_cast<unsigned long long>(m.queue_depth_high_water),
      m.busy_seconds);
  std::printf("%s\n", row.c_str());
  std::fflush(stdout);
  if (json != nullptr) json->AddRow(std::move(row));
}

// Phase 2: decode-only throughput against a single warm bucket. Returns
// queries/sec so the caller can report the batched speedup.
double RunGenerationThroughput(const Database* db, const Constraint& bucket,
                               const std::string& dataset, int max_batch,
                               int requests, int epochs, int n_per_request,
                               JsonRowWriter* json) {
  GenerationServiceOptions opts;
  opts.num_workers = 1;  // one worker: any speedup is pure SIMD batching
  opts.max_batch = max_batch;
  opts.queue_capacity = static_cast<size_t>(requests);
  opts.registry.capacity = 4;
  opts.gen.train_epochs = epochs;
  opts.gen.trainer.batch_size = 8;
  opts.gen.seed = 20220612;
  FeedbackCache feedback_cache;
  opts.gen.feedback_cache = &feedback_cache;
  obs::MetricsRegistry registry;
  opts.metrics_registry = &registry;

  auto service = GenerationService::Create(db, opts);
  LSG_CHECK(service.ok()) << service.status().ToString();

  // Warm the bucket so the measured burst is decode, not training.
  {
    GenerationRequest warm;
    warm.constraint = bucket;
    warm.n = 1;
    warm.batch = true;
    warm.id = 1;
    GenerationResponse r = (*service)->Submit(std::move(warm)).get();
    LSG_CHECK(r.status.ok()) << r.status.ToString();
  }

  Stopwatch wall;
  std::vector<std::future<GenerationResponse>> futures;
  futures.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    GenerationRequest req;
    req.constraint = bucket;
    req.n = n_per_request;
    req.batch = true;  // fixed n attempts per request: comparable work
    req.id = static_cast<uint64_t>(i) + 2;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  uint64_t queries = 0;
  for (auto& f : futures) {
    GenerationResponse r = f.get();
    if (r.status.ok()) queries += r.report.queries.size();
  }
  double seconds = wall.ElapsedSeconds();
  (*service)->Shutdown();

  obs::HistogramStats batches =
      registry.GetHistogram("service.batch_size").Snapshot();
  double qps = static_cast<double>(queries) / seconds;
  std::string row = StrFormat(
      "{\"bench\": \"service_gen_throughput\", \"dataset\": \"%s\", "
      "\"workers\": 1, \"max_batch\": %d, \"requests\": %d, "
      "\"queries\": %llu, \"seconds\": %.3f, \"queries_per_sec\": %.3f, "
      "\"mean_batch_size\": %.3f}",
      dataset.c_str(), max_batch, requests,
      static_cast<unsigned long long>(queries), seconds, qps, batches.mean);
  std::printf("%s\n", row.c_str());
  std::fflush(stdout);
  if (json != nullptr) json->AddRow(std::move(row));
  return qps;
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main(int argc, char** argv) {
  using namespace lsg;
  using namespace lsg::bench;

  BenchConfig cfg = BenchConfig::FromEnv();
  JsonRowWriter json(JsonOutPathFromArgs(argc, argv));
  // Service-bench scale: LSG_N requests (default shrunk: every miss is a
  // full training run), LSG_EPOCHS/5 epochs per model.
  const int requests = std::max(8, cfg.n / 4);
  const int epochs = std::max(10, cfg.epochs / 5);
  const int n_per_request = 5;

  PrintHeader("Service throughput (mixed constraint workload)");
  const std::string dataset = "TPC-H";
  DatasetContext ctx = MakeContext(dataset, cfg, DefaultOptions(cfg));
  std::vector<Constraint> workload = MixedWorkload(ctx, requests);
  std::printf("%d requests over %d unique buckets, %d epochs/model\n",
              requests, std::min(requests, 12), epochs);

  for (int workers : {1, 2, 4, 8}) {
    for (int max_batch : {1, 8, 32}) {
      RunAtConcurrency(&ctx.db, workload, dataset, workers, max_batch, epochs,
                       n_per_request, &json);
    }
  }

  PrintHeader("Generation throughput (one warm bucket, decode only)");
  const Constraint bucket =
      PaperRangeGrid(ConstraintMetric::kCardinality, ctx.card_domain)[1];
  const int gen_requests = std::max(96, cfg.n);
  const int gen_n = 8;
  double base_qps = 0.0;
  for (int max_batch : {1, 8, 32}) {
    double qps = RunGenerationThroughput(&ctx.db, bucket, dataset, max_batch,
                                         gen_requests, epochs, gen_n, &json);
    if (max_batch == 1) {
      base_qps = qps;
    } else if (base_qps > 0.0) {
      std::printf("  max_batch=%d speedup vs 1: %.2fx\n", max_batch,
                  qps / base_qps);
    }
  }
  return 0;
}
