#include "service/generation_service.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "core/batch_decoder.h"
#include "obs/span_tracer.h"

namespace lsg {
namespace {

// A request's private sampling stream: a SplitMix64 chain over the base
// seed and every request field. The stream is a pure function of
// (seed, request), so a request's output cannot depend on worker
// placement, queue order or which batch mates it was coalesced with —
// the reproducibility contract batching must not break.
uint64_t RequestSeed(uint64_t base, const GenerationRequest& request) {
  const Constraint& c = request.constraint;
  uint64_t h = SplitMix64(base);
  h = SplitMix64(h ^ static_cast<uint64_t>(c.metric));
  h = SplitMix64(h ^ static_cast<uint64_t>(c.kind));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.point));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.lo));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.hi));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.point_tolerance));
  h = SplitMix64(h ^ static_cast<uint64_t>(request.n));
  h = SplitMix64(h ^ (request.batch ? 2u : 1u));
  return SplitMix64(h ^ request.id);
}

// A bucket's training seed: a pure function of (seed, bucket), so the
// model a bucket trains is the same no matter which worker's request got
// there first. (The old scheme drew from the claiming worker's stream,
// which made cached models — and everything generated from them — depend
// on request interleaving across workers.)
uint64_t BucketTrainSeed(uint64_t base, const ConstraintKey& key) {
  return SplitMix64(SplitMix64(base) ^
                    static_cast<uint64_t>(ConstraintKeyHash{}(key)));
}

}  // namespace

GenerationService::GenerationService(const Database* db,
                                     const GenerationServiceOptions& options)
    : options_(options),
      metrics_(options.metrics_registry),
      registry_(db, options.gen, options.registry, &metrics_),
      queue_(options.queue_capacity) {}

StatusOr<std::unique_ptr<GenerationService>> GenerationService::Create(
    const Database* db, const GenerationServiceOptions& options) {
  if (db == nullptr || db->num_tables() == 0) {
    return Status::InvalidArgument("service needs a non-empty database");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  std::unique_ptr<GenerationService> service(
      new GenerationService(db, options));
  MutexLock lock(&service->shutdown_mu_);
  service->workers_.reserve(options.num_workers);
  for (int w = 0; w < options.num_workers; ++w) {
    service->workers_.emplace_back(
        [svc = service.get(), w] { svc->WorkerLoop(w); });
  }
  return service;
}

GenerationService::~GenerationService() { Shutdown(); }

std::future<GenerationResponse> GenerationService::RejectedFuture(
    uint64_t id, Status status) {
  std::promise<GenerationResponse> promise;
  GenerationResponse response;
  response.id = id;
  response.status = std::move(status);
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::future<GenerationResponse> GenerationService::Submit(
    GenerationRequest request) {
  metrics_.requests_submitted.Inc();
  Job job;
  job.request = std::move(request);
  uint64_t id = job.request.id;
  std::future<GenerationResponse> future = job.promise.get_future();
  if (!queue_.Push(std::move(job))) {
    metrics_.requests_rejected.Inc();
    metrics_.requests_rejected_shutdown.Inc();
    return RejectedFuture(
        id, Status::FailedPrecondition("service is shut down"));
  }
  return future;
}

StatusOr<std::future<GenerationResponse>> GenerationService::TrySubmit(
    GenerationRequest request) {
  metrics_.requests_submitted.Inc();
  Job job;
  job.request = std::move(request);
  std::future<GenerationResponse> future = job.promise.get_future();
  if (!queue_.TryPush(std::move(job))) {
    metrics_.requests_rejected.Inc();
    // Shut-down (terminal, FailedPrecondition) and backpressure (retryable,
    // ResourceExhausted) are distinct codes so callers — the network front
    // end in particular — can map them to different protocol errors.
    if (queue_.closed()) {
      metrics_.requests_rejected_shutdown.Inc();
      return Status::FailedPrecondition("service is shut down");
    }
    metrics_.requests_rejected_queue_full.Inc();
    return Status::ResourceExhausted("request queue is full");
  }
  return future;
}

GenerationResponse GenerationService::SubmitAndWait(
    GenerationRequest request) {
  return Submit(std::move(request)).get();
}

void GenerationService::Shutdown() {
  MutexLock lock(&shutdown_mu_);
  queue_.Close();  // producers rejected; accepted jobs drain
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

ServiceMetricsSnapshot GenerationService::Metrics() const {
  ServiceMetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.queue_depth_high_water = queue_.high_water_mark();
  return snapshot;
}

void GenerationService::WorkerLoop(int worker_index) {
  const int max_batch = std::max(1, options_.max_batch);
  // A group may hold more requests than decode lanes: BatchDecoder admits
  // queued items as lanes retire, so a deeper group keeps the batch full
  // instead of draining to zero between groups. The 4x cap bounds how long
  // the last request in a group can wait on its batch-mates.
  const int group_cap = max_batch * 4;
  // Jobs popped but not yet handled. The loop only blocks on the queue
  // while this is empty, so a request accepted before Shutdown() but still
  // sitting here when the queue closes is always completed, never
  // orphaned: Pop() returning nullopt (closed + drained) can only end the
  // loop once the backlog has been worked off too.
  std::deque<Job> backlog;
  for (;;) {
    if (backlog.empty()) {
      auto job = queue_.Pop();
      if (!job.has_value()) return;  // closed and fully drained
      backlog.push_back(std::move(*job));
    }
    // Top up opportunistically — never stall the requests already held.
    while (static_cast<int>(backlog.size()) < group_cap) {
      auto job = queue_.TryPop();
      if (!job.has_value()) break;
      backlog.push_back(std::move(*job));
    }
    // Coalesce the oldest request's bucket mates, preserving arrival
    // order. Other buckets stay in the backlog for the next round.
    std::vector<Job> group;
    group.reserve(backlog.size());
    const ConstraintKey key = BucketOf(backlog.front().request.constraint);
    for (auto it = backlog.begin();
         it != backlog.end() && static_cast<int>(group.size()) < group_cap;) {
      if (BucketOf(it->request.constraint) == key) {
        group.push_back(std::move(*it));
        it = backlog.erase(it);
      } else {
        ++it;
      }
    }
    HandleGroup(worker_index, key, &group);
  }
}

void GenerationService::HandleGroup(int worker_index, const ConstraintKey& key,
                                    std::vector<Job>* group) {
  std::vector<GenerationResponse> responses(group->size());
  for (size_t i = 0; i < group->size(); ++i) {
    Job& job = (*group)[i];
    responses[i].id = job.request.id;
    responses[i].worker = worker_index;
    responses[i].queue_seconds = job.queued.ElapsedSeconds();
    metrics_.AddQueueSeconds(responses[i].queue_seconds);
    metrics_.queue_wait_ns.Record(job.queued.ElapsedNanos());
  }
  {
    LSG_OBS_SPAN("service.handle");
    obs::ScopedHistogramTimer handle_timer(&metrics_.handle_ns);
    Stopwatch busy;
    RunGroup(key, group, &responses);
    metrics_.AddBusySeconds(busy.ElapsedSeconds());
  }
  for (size_t i = 0; i < group->size(); ++i) {
    if (responses[i].status.ok()) {
      metrics_.requests_completed.Inc();
    } else {
      metrics_.requests_failed.Inc();
    }
    (*group)[i].promise.set_value(std::move(responses[i]));
  }
}

void GenerationService::RunGroup(const ConstraintKey& key,
                                 std::vector<Job>* group,
                                 std::vector<GenerationResponse>* responses) {
  const uint64_t train_seed = BucketTrainSeed(options_.gen.seed, key);

  // Resolve the model once per request (each one keeps its own hit/miss
  // accounting) and stage a decode item for every runnable request.
  struct Pending {
    size_t index = 0;  ///< position in group / responses
    std::shared_ptr<ModelEntry> entry;
    std::shared_ptr<const ServingSnapshot> snapshot;
    BatchDecodeItem item;
  };
  std::vector<Pending> pending;
  pending.reserve(group->size());
  for (size_t i = 0; i < group->size(); ++i) {
    const GenerationRequest& request = (*group)[i].request;
    GenerationResponse& response = (*responses)[i];
    if (request.n <= 0) {
      response.status = Status::InvalidArgument("request.n must be positive");
      continue;
    }
    auto acquired = registry_.Acquire(request.constraint, train_seed);
    if (!acquired.ok()) {
      response.status = acquired.status();
      continue;
    }
    response.cache_hit = acquired->cache_hit;
    response.warm_start = acquired->warm_start;
    Pending p;
    p.index = i;
    p.entry = std::move(acquired->entry);
    {
      MutexLock entry_lock(&p.entry->mu);
      p.snapshot = p.entry->snapshot;
    }
    if (p.snapshot == nullptr) {
      response.status = Status::Internal("registry returned an empty model");
      continue;
    }
    response.train_seconds = p.snapshot->train_seconds;
    p.item.n = request.n;
    p.item.batch_mode = request.batch;
    p.item.rng = Rng(RequestSeed(options_.gen.seed, request));
    pending.push_back(std::move(p));
  }

  auto finish = [&](Pending& p) {
    GenerationResponse& response = (*responses)[p.index];
    response.status = std::move(p.item.status);
    if (!response.status.ok()) return;
    GenerationReport& report = p.item.report;
    response.generate_seconds = report.generate_seconds;
    metrics_.AddGenerateSeconds(report.generate_seconds);
    metrics_.attempts.Add(static_cast<uint64_t>(report.attempts));
    metrics_.queries_generated.Add(report.queries.size());
    metrics_.queries_satisfied.Add(static_cast<uint64_t>(report.satisfied));
    response.report = std::move(report);
  };

  // All items sharing a snapshot decode as one ragged batch of up to
  // max_batch lanes, lock-free (the snapshot is immutable and the entry
  // shared_ptr keeps it alive even across an eviction). Distinct snapshots
  // inside one bucket group can only arise from an evict/rebuild race; each
  // cohort simply decodes separately.
  std::vector<char> done(pending.size(), 0);
  for (size_t i = 0; i < pending.size(); ++i) {
    if (done[i]) continue;
    std::vector<BatchDecodeItem*> items;
    std::vector<size_t> members;
    for (size_t j = i; j < pending.size(); ++j) {
      if (!done[j] && pending[j].snapshot == pending[i].snapshot) {
        items.push_back(&pending[j].item);
        members.push_back(j);
        done[j] = 1;
      }
    }
    BatchDecoder decoder(
        pending[i].snapshot.get(),
        std::min(std::max(1, options_.max_batch),
                 static_cast<int>(items.size())));
    const BatchDecoder::Stats stats = decoder.Run(items);
    // service.batch_size tracks the decode width actually achieved: the
    // mean number of lanes per batched forward step, rounded to nearest.
    if (stats.steps > 0) {
      metrics_.batch_size.Record((stats.lane_steps + stats.steps / 2) /
                                 stats.steps);
    }
    for (size_t j : members) finish(pending[j]);
  }
}

}  // namespace lsg
