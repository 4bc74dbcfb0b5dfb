// Shared types of the goodput benchmark (see perfbench/README.md).
#ifndef LEARNEDSQLGEN_PERFBENCH_PERFBENCH_H_
#define LEARNEDSQLGEN_PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "core/generator.h"
#include "obs/span_tracer.h"

namespace lsg {
namespace perfbench {

// ------------------------------------------------------------------ spans

/// One benchmark-side span: a call into a layer, tagged with the request
/// that caused it (0 for setup and re-drive work). obs::SpanTracer keeps
/// only a name per span, so request-scoped spans live here and are merged
/// with the program's own spans when the trace is written.
struct BenchSpan {
  const char* name = nullptr;  ///< static storage (string literal)
  uint64_t request_id = 0;
  int tid = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

/// Thread-safe append-only span buffer for the benchmark's own spans.
class BenchSpans {
 public:
  void Add(const char* name, uint64_t request_id, uint64_t start_ns,
           uint64_t duration_ns);
  std::vector<BenchSpan> Snapshot() const;

 private:
  mutable Mutex mu_;
  std::vector<BenchSpan> spans_ LSG_GUARDED_BY(mu_);
};

/// Drains obs::SpanTracer::Global() on a background thread while a traced
/// pass runs. The tracer is a bounded ring (per-token env.step spans
/// overflow it within a second), so it is polled and every span is kept
/// here; spans overwritten between polls are counted in dropped().
class ProgramSpanCollector {
 public:
  ProgramSpanCollector() = default;
  ~ProgramSpanCollector();
  ProgramSpanCollector(const ProgramSpanCollector&) = delete;
  ProgramSpanCollector& operator=(const ProgramSpanCollector&) = delete;

  /// Clears the global tracer and starts polling it.
  void Start();
  /// Final poll; joins the polling thread.
  void Stop();

  const std::vector<obs::SpanTracer::Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void Poll();

  std::vector<obs::SpanTracer::Span> spans_;
  uint64_t last_seq_ = 0;
  uint64_t dropped_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Per-name totals of a span set, with self time (duration minus the part
/// covered by direct children on the same thread) and the direct-child
/// totals per (parent, child) name pair.
struct SpanTable {
  struct Row {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  std::map<std::pair<std::string, std::string>, double> child_s;

  double Total(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  double Child(const std::string& parent, const std::string& child) const;
};

SpanTable BuildSpanTable(const std::vector<obs::SpanTracer::Span>& spans);

// --------------------------------------------------------------- re-drive

/// Result of re-driving one training run outside the library: the same
/// ActorCriticTrainer over a timing decorator around SqlGenEnvironment.
struct RedriveResult {
  bool match = false;        ///< epoch stats equal LearnedSqlGen::trace()
  std::string mismatch;      ///< first difference, when !match
  int epochs = 0;
  double train_s = 0.0;      ///< gen.train of the reference run
  double epoch_sum_s = 0.0;  ///< Σ rl.ac_epoch of the reference run
  double epoch_ms = 0.0;     ///< re-drive means per epoch ...
  double update_ms = 0.0;
  double step_ms = 0.0;
  double mask_ms = 0.0;
  double rollout_self_ms = 0.0;
  double mask_ns = 0.0;      ///< mean ValidActions() call
  double step_us = 0.0;      ///< mean Step() call
  uint64_t mask_calls = 0;
  uint64_t step_calls = 0;
};

/// Trains `c` once through LearnedSqlGen (the reference), then again
/// through a benchmark-side loop with timed mask/step calls, and checks
/// the two traces are equal. Must run with obs enabled and nothing else
/// recording spans.
RedriveResult Redrive(const Database* db, const LearnedSqlGenOptions& opts,
                      const Constraint& c);

// ---------------------------------------------------------------- checks

/// Re-checks served queries against the program's own layers. One checker
/// per thread (it caches one environment per constraint).
class OutputChecker {
 public:
  /// `pipeline` supplies the vocabulary, estimator and cost model of `db`;
  /// both must outlive the checker. `exec_engines` builds the reference
  /// Executor and the vectorized engine for Check's `exec` comparisons.
  OutputChecker(const LearnedSqlGen* pipeline, const Database* db,
                bool exec_engines);
  ~OutputChecker();
  OutputChecker(const OutputChecker&) = delete;
  OutputChecker& operator=(const OutputChecker&) = delete;

  /// Checks one query served for `c`: the SQL re-parses, the metric
  /// recomputed from the parsed AST with estimator feedback (the source the
  /// serving path uses) equals `metric`, and `satisfied` agrees with the
  /// constraint; with `exec`, both engines agree on its cardinality.
  /// Returns "" or the first failure.
  std::string Check(const Constraint& c, const std::string& sql,
                    double metric, bool satisfied, bool exec);

  uint64_t exec_checked() const { return exec_checked_; }

 private:
  const LearnedSqlGen* pipeline_;
  const Database* db_;
  std::map<std::string, std::unique_ptr<SqlGenEnvironment>> envs_;
  std::unique_ptr<ExecutionBackend> reference_;
  std::unique_ptr<ExecutionBackend> vectorized_;
  uint64_t exec_checked_ = 0;
};

}  // namespace perfbench
}  // namespace lsg

#endif  // LEARNEDSQLGEN_PERFBENCH_PERFBENCH_H_
