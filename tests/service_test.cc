// Tests for the concurrent generation service (src/service/): queue
// backpressure, constraint bucketing, registry hit/dedup/LRU-spill
// behavior, worker-pool end-to-end runs, drain-on-shutdown, and
// concurrency-1 reproducibility.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "obs/metrics_registry.h"
#include "service/bounded_queue.h"
#include "service/constraint_key.h"
#include "service/generation_service.h"
#include "service/model_registry.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

// Small but real training config: enough epochs that models actually
// learn to emit complete queries, small enough to keep the suite quick.
LearnedSqlGenOptions FastOptions(uint64_t seed = 2024) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 8;
  opts.trainer.batch_size = 4;
  opts.attempts_factor = 40;
  opts.seed = seed;
  return opts;
}

Constraint CardPoint(double v) {
  return Constraint::Point(ConstraintMetric::kCardinality, v);
}
Constraint CardRange(double lo, double hi) {
  return Constraint::Range(ConstraintMetric::kCardinality, lo, hi);
}

std::string TempDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() / ("lsg_service_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueueTest, TryPushFailsFastWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // backpressure: full
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(3));  // slot freed
  EXPECT_EQ(q.high_water_mark(), 2u);
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerFreesSlot) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // blocks: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BoundedQueueTest, CloseDrainsAcceptedItemsAndRejectsProducers) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));     // rejected after close
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop().value(), 1);  // accepted items still drain
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // closed + empty
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

// ---------------------------------------------------------- ConstraintKey

TEST(ConstraintKeyTest, BucketsSplitByMetricKindAndMagnitude) {
  EXPECT_EQ(BucketOf(CardPoint(100)), BucketOf(CardPoint(103)));
  EXPECT_FALSE(BucketOf(CardPoint(100)) == BucketOf(CardPoint(1000)));
  EXPECT_FALSE(BucketOf(CardPoint(100)) ==
               BucketOf(Constraint::Point(ConstraintMetric::kCost, 100)));
  EXPECT_FALSE(BucketOf(CardPoint(100)) == BucketOf(CardRange(100, 100)));
  EXPECT_EQ(BucketOf(CardRange(50, 200)), BucketOf(CardRange(51, 205)));
  EXPECT_FALSE(BucketOf(CardRange(50, 200)) == BucketOf(CardRange(50, 800)));
}

TEST(ConstraintKeyTest, ToStringIsFilesystemSafe) {
  std::string s = BucketOf(CardRange(50, 200)).ToString();
  EXPECT_EQ(s.find('/'), std::string::npos);
  EXPECT_EQ(s.find(' '), std::string::npos);
  EXPECT_NE(s.find("card-range"), std::string::npos);
  // Distinct buckets must map to distinct spill filenames.
  EXPECT_NE(s, BucketOf(CardRange(50, 800)).ToString());
}

// ---------------------------------------------------------- ModelRegistry

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : db_(BuildScoreStudentDb()) {}
  Database db_;
  ServiceMetrics metrics_;
};

TEST_F(RegistryTest, SecondRequestForSameBucketIsAHitWithoutRetraining) {
  ModelRegistry::Options ro;
  ro.capacity = 4;
  ModelRegistry registry(&db_, FastOptions(), ro, &metrics_);

  auto first = registry.Acquire(CardRange(5, 50), /*train_seed=*/1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(metrics_.trainings.Value(), 1u);

  // Same bucket (slightly different numbers): served from cache, and the
  // train-count metric proves no retraining happened.
  auto second = registry.Acquire(CardRange(5, 51), /*train_seed=*/2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->entry.get(), first->entry.get());
  EXPECT_EQ(metrics_.trainings.Value(), 1u);
  EXPECT_EQ(metrics_.cache_hits.Value(), 1u);
  EXPECT_EQ(metrics_.cache_misses.Value(), 1u);
}

TEST_F(RegistryTest, ConcurrentRequestsForOneBucketTrainOnce) {
  ModelRegistry::Options ro;
  ro.capacity = 4;
  ModelRegistry registry(&db_, FastOptions(), ro, &metrics_);

  constexpr int kThreads = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto acquired = registry.Acquire(CardRange(5, 50), 100 + t);
      if (acquired.ok() && acquired->entry->gen != nullptr) ++ok_count;
    });
  }
  for (auto& t : threads) t.join();

  // Two threads, one bucket, one training run — dedup'ed via the shared
  // entry; everyone still gets a usable model.
  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_EQ(metrics_.trainings.Value(), 1u);
  EXPECT_EQ(metrics_.cache_misses.Value(), 1u);
  EXPECT_EQ(metrics_.cache_hits.Value(),
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(RegistryTest, EvictedModelWarmStartsFromDisk) {
  ModelRegistry::Options ro;
  ro.capacity = 1;
  ro.spill_dir = TempDir("spill");
  ModelRegistry registry(&db_, FastOptions(), ro, &metrics_);

  const Constraint a = CardRange(5, 50);
  const Constraint b = CardPoint(10);

  ASSERT_TRUE(registry.Acquire(a, 1).ok());
  EXPECT_EQ(metrics_.trainings.Value(), 1u);

  // B overflows the single-model cache: A is spilled to disk and evicted.
  ASSERT_TRUE(registry.Acquire(b, 2).ok());
  EXPECT_EQ(metrics_.trainings.Value(), 2u);
  EXPECT_EQ(metrics_.evictions.Value(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_TRUE(std::filesystem::exists(registry.SpillPathFor(a)));

  // Re-requesting A warm-starts from the spill file instead of retraining,
  // and the restored model generates.
  auto again = registry.Acquire(a, 3);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->warm_start);
  EXPECT_EQ(metrics_.trainings.Value(), 2u);  // no third training
  EXPECT_EQ(metrics_.disk_warm_starts.Value(), 1u);
  {
    MutexLock lock(&again->entry->mu);
    auto report = again->entry->gen->GenerateBatch(3);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->attempts, 3);
  }
  std::filesystem::remove_all(ro.spill_dir);
}

TEST_F(RegistryTest, EvictionWithoutSpillDirDiscards) {
  ModelRegistry::Options ro;
  ro.capacity = 1;  // no spill_dir
  ModelRegistry registry(&db_, FastOptions(), ro, &metrics_);
  ASSERT_TRUE(registry.Acquire(CardRange(5, 50), 1).ok());
  ASSERT_TRUE(registry.Acquire(CardPoint(10), 2).ok());
  EXPECT_EQ(metrics_.evictions.Value(), 1u);
  // Re-request retrains (nothing on disk to warm-start from).
  ASSERT_TRUE(registry.Acquire(CardRange(5, 50), 3).ok());
  EXPECT_EQ(metrics_.trainings.Value(), 3u);
  EXPECT_EQ(metrics_.disk_warm_starts.Value(), 0u);
}

TEST_F(RegistryTest, EvictionSkipsBusyEntriesAndNeverBlocks) {
  // Regression test for the eviction TOCTOU fix: the old EvictIfNeeded
  // probed a candidate with a try-lock, released it, then took a
  // *blocking* lock to spill — a worker could start generating inside
  // that window (so an in-use model got spilled and evicted), and the
  // blocking re-lock could park the whole registry, registry_mu_ held,
  // behind a multi-second generation. The one-pass form probes and
  // spills under a single try-lock: a busy entry is skipped outright and
  // the map transiently exceeds capacity instead.
  ModelRegistry::Options ro;
  ro.capacity = 1;
  ro.spill_dir = TempDir("busy_spill");
  ModelRegistry registry(&db_, FastOptions(), ro, &metrics_);

  const Constraint a = CardRange(5, 50);
  const Constraint b = CardPoint(10);
  auto first = registry.Acquire(a, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Simulate a busy entry: a *worker thread* holds A's entry mutex (as a
  // caller generating through the entry's pipeline does) while other
  // threads run Acquire. The busy lock must live on its own thread — the
  // registry orders registry_mu_ before ModelEntry::mu, so a thread that
  // calls Acquire may never already hold an entry mutex (doing it here on
  // the main thread would itself be the lock-order inversion this PR's
  // hierarchy forbids, and TSan's deadlock detector flags it).
  Mutex step_mu;
  CondVar step_cv;
  bool busy = false;
  bool release = false;
  std::thread holder([&] {
    first->entry->mu.Lock();
    {
      MutexLock lock(&step_mu);
      busy = true;
    }
    step_cv.NotifyAll();
    {
      MutexLock lock(&step_mu);
      while (!release) step_cv.Wait(step_mu);
    }
    first->entry->mu.Unlock();
  });
  {
    MutexLock lock(&step_mu);
    while (!busy) step_cv.Wait(step_mu);
  }
  // B overflows the single-slot cache while the only eviction candidate
  // is busy. Under the old blocking re-lock this Acquire could stall
  // until A quiesced; now it must complete, skipping A.
  auto second = registry.Acquire(b, 2);
  {
    MutexLock lock(&step_mu);
    release = true;
  }
  step_cv.NotifyAll();
  holder.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(metrics_.evictions.Value(), 0u);  // busy A was skipped...
  EXPECT_EQ(registry.size(), 2u);             // ...over capacity for now
  EXPECT_FALSE(std::filesystem::exists(registry.SpillPathFor(a)));

  // Once A quiesces, the next insertion evicts in LRU order — spilling
  // under the very try-lock that proved each candidate idle.
  ASSERT_TRUE(registry.Acquire(CardPoint(100000), 3).ok());
  EXPECT_EQ(metrics_.evictions.Value(), 2u);  // A and B, both idle now
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(std::filesystem::exists(registry.SpillPathFor(a)));
  EXPECT_TRUE(std::filesystem::exists(registry.SpillPathFor(b)));
  std::filesystem::remove_all(ro.spill_dir);
}

// ----------------------------------------------------- GenerationService

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : db_(BuildScoreStudentDb()) {}

  GenerationServiceOptions ServiceOptions(int workers) {
    GenerationServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 32;
    opts.registry.capacity = 8;
    opts.gen = FastOptions();
    return opts;
  }

  Database db_;
};

TEST_F(ServiceTest, FourWorkersMixedConstraintsAllSucceed) {
  auto service = GenerationService::Create(&db_, ServiceOptions(4));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // >= 8 mixed constraints: card/cost, point/range, distinct magnitudes.
  std::vector<Constraint> constraints = {
      CardPoint(10),
      CardPoint(30),
      CardRange(5, 50),
      CardRange(20, 300),
      Constraint::Point(ConstraintMetric::kCost, 50),
      Constraint::Point(ConstraintMetric::kCost, 200),
      Constraint::Range(ConstraintMetric::kCost, 10, 100),
      Constraint::Range(ConstraintMetric::kCost, 100, 1000),
  };
  std::vector<std::future<GenerationResponse>> futures;
  for (size_t i = 0; i < constraints.size(); ++i) {
    GenerationRequest req;
    req.constraint = constraints[i];
    req.n = 3;
    req.batch = true;  // fixed attempt budget keeps the test bounded
    req.id = i + 1;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    GenerationResponse r = futures[i].get();
    EXPECT_TRUE(r.status.ok())
        << "request " << i + 1 << ": " << r.status.ToString();
    EXPECT_EQ(r.id, i + 1);
    EXPECT_GE(r.worker, 0);
    EXPECT_EQ(r.report.attempts, 3);
  }
  ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.requests_completed, constraints.size());
  EXPECT_EQ(m.requests_failed, 0u);
  EXPECT_EQ(m.trainings, constraints.size());  // all distinct buckets
  (*service)->Shutdown();
}

TEST_F(ServiceTest, RepeatedConstraintIsServedFromCache) {
  auto service = GenerationService::Create(&db_, ServiceOptions(2));
  ASSERT_TRUE(service.ok());
  GenerationRequest req;
  req.constraint = CardRange(5, 50);
  req.n = 2;
  req.batch = true;

  GenerationResponse first = (*service)->SubmitAndWait(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);

  GenerationResponse second = (*service)->SubmitAndWait(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ((*service)->Metrics().trainings, 1u);
}

TEST_F(ServiceTest, ShutdownDrainsPendingRequests) {
  auto opts = ServiceOptions(1);  // one slow worker => requests pile up
  auto service = GenerationService::Create(&db_, opts);
  ASSERT_TRUE(service.ok());

  std::vector<std::future<GenerationResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    GenerationRequest req;
    req.constraint = CardRange(5, 50);  // one bucket: train once, then fast
    req.n = 2;
    req.batch = true;
    req.id = i + 1;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  (*service)->Shutdown();  // must drain all five accepted requests

  for (auto& f : futures) {
    GenerationResponse r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  EXPECT_EQ((*service)->Metrics().requests_completed, 5u);

  // After shutdown new submissions are rejected, not hung.
  GenerationRequest late;
  late.constraint = CardPoint(10);
  GenerationResponse r = (*service)->SubmitAndWait(std::move(late));
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*service)->Metrics().requests_rejected, 1u);
}

TEST_F(ServiceTest, TrySubmitSplitsRejectionCountersByReason) {
  auto opts = ServiceOptions(1);
  opts.queue_capacity = 1;  // one slot + one busy worker => quick overflow
  auto service = GenerationService::Create(&db_, opts);
  ASSERT_TRUE(service.ok());

  auto make_request = [this](uint64_t id) {
    GenerationRequest req;
    req.constraint = CardRange(5, 50);
    req.n = 1;
    req.batch = true;
    req.id = id;
    return req;
  };

  // Keep submitting until backpressure bites: with a single worker stuck
  // training the first request's model, the one-slot queue fills fast.
  std::vector<std::future<GenerationResponse>> accepted;
  bool saw_queue_full = false;
  for (uint64_t id = 1; id <= 64 && !saw_queue_full; ++id) {
    auto submitted = (*service)->TrySubmit(make_request(id));
    if (submitted.ok()) {
      accepted.push_back(std::move(*submitted));
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
      saw_queue_full = true;
    }
  }
  ASSERT_TRUE(saw_queue_full);  // 64 submits never outran a model training
  ServiceMetricsSnapshot mid = (*service)->Metrics();
  EXPECT_GE(mid.requests_rejected_queue_full, 1u);
  EXPECT_EQ(mid.requests_rejected_shutdown, 0u);

  (*service)->Shutdown();
  for (auto& f : accepted) {
    EXPECT_TRUE(f.get().status.ok());
  }

  // Post-shutdown TrySubmit is a terminal rejection, tallied separately.
  auto late = (*service)->TrySubmit(make_request(99));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);

  ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.requests_rejected_shutdown, 1u);
  EXPECT_EQ(m.requests_rejected,
            m.requests_rejected_queue_full + m.requests_rejected_shutdown);
}

TEST_F(ServiceTest, InvalidRequestFailsWithoutPoisoningTheService) {
  auto service = GenerationService::Create(&db_, ServiceOptions(2));
  ASSERT_TRUE(service.ok());
  GenerationRequest bad;
  bad.constraint = CardPoint(10);
  bad.n = 0;
  GenerationResponse r = (*service)->SubmitAndWait(std::move(bad));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  GenerationRequest good;
  good.constraint = CardPoint(10);
  good.n = 2;
  good.batch = true;
  EXPECT_TRUE((*service)->SubmitAndWait(std::move(good)).status.ok());
  ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.requests_failed, 1u);
  EXPECT_EQ(m.requests_completed, 1u);
}

// A profile opening no statement kind is a registry build error on each
// request, not an abort inside a worker's first training.
TEST_F(ServiceTest, ProfileWithNoStatementKindFailsEachRequest) {
  GenerationServiceOptions opts = ServiceOptions(1);
  opts.gen.profile.allow_select = false;
  auto service = GenerationService::Create(&db_, opts);
  ASSERT_TRUE(service.ok());
  for (double card : {10.0, 200.0}) {
    GenerationRequest req;
    req.constraint = CardPoint(card);
    req.n = 1;
    GenerationResponse r = (*service)->SubmitAndWait(std::move(req));
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ((*service)->Metrics().requests_failed, 2u);
}

TEST_F(ServiceTest, ConcurrencyOneRunsAreReproducible) {
  auto run_once = [&] {
    auto service = GenerationService::Create(&db_, ServiceOptions(1));
    EXPECT_TRUE(service.ok());
    std::vector<std::string> sqls;
    for (int i = 0; i < 2; ++i) {
      GenerationRequest req;
      req.constraint = i == 0 ? CardRange(5, 50) : CardPoint(10);
      req.n = 3;
      req.batch = true;
      GenerationResponse r = (*service)->SubmitAndWait(std::move(req));
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      for (const GeneratedQuery& q : r.report.queries) {
        sqls.push_back(q.sql);
      }
    }
    return sqls;
  };
  // Same seed, same request order, one worker: byte-identical output.
  EXPECT_EQ(run_once(), run_once());
}

// The batching bugfix's contract: a request's output is a function of
// (seed, request) alone. The same request set must yield byte-identical
// SQL per request id across every (num_workers, max_batch) combination —
// worker placement, queue interleaving and batch composition all change
// between configs, none may leak into the samples.
TEST_F(ServiceTest, OutputsIndependentOfWorkerCountAndBatching) {
  // Two buckets so groups form and split; same-bucket mates coalesce.
  auto run_config = [&](int workers, int max_batch) {
    auto opts = ServiceOptions(workers);
    opts.max_batch = max_batch;
    auto service = GenerationService::Create(&db_, opts);
    EXPECT_TRUE(service.ok());
    std::vector<std::future<GenerationResponse>> futures;
    for (uint64_t id = 1; id <= 6; ++id) {
      GenerationRequest req;
      req.constraint = id % 2 == 0 ? CardRange(5, 50) : CardPoint(10);
      req.n = 2;
      req.batch = true;
      req.id = id;
      futures.push_back((*service)->Submit(std::move(req)));
    }
    std::map<uint64_t, std::vector<std::string>> by_id;
    for (auto& f : futures) {
      GenerationResponse r = f.get();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      for (const GeneratedQuery& q : r.report.queries) {
        by_id[r.id].push_back(q.sql);
      }
    }
    return by_id;
  };
  const auto baseline = run_config(1, 1);  // one decode lane, one worker
  EXPECT_EQ(baseline, run_config(1, 8));   // batching on
  EXPECT_EQ(baseline, run_config(4, 1));   // worker placement varies
  EXPECT_EQ(baseline, run_config(4, 8));   // both at once
}

// Workers record the mean decode width of every ragged batch they run in
// the service.batch_size histogram (next to queue_wait_ns for the p99).
TEST_F(ServiceTest, BatchSizeHistogramRecordsGroups) {
  obs::MetricsRegistry registry;
  auto opts = ServiceOptions(1);
  opts.max_batch = 8;
  opts.metrics_registry = &registry;
  auto service = GenerationService::Create(&db_, opts);
  ASSERT_TRUE(service.ok());
  GenerationRequest req;
  req.constraint = CardRange(5, 50);
  req.n = 1;
  req.batch = true;
  ASSERT_TRUE((*service)->SubmitAndWait(req).status.ok());
  (*service)->Shutdown();
  const obs::HistogramStats stats =
      registry.GetHistogram("service.batch_size").Snapshot();
  ASSERT_GE(stats.count, 1u);
  EXPECT_GE(stats.sum, static_cast<double>(stats.count));  // sizes >= 1
  EXPECT_GE(registry.GetHistogram("service.queue_wait_ns").count(), 1u);
}

}  // namespace
}  // namespace lsg
