// Per-layer instruments of the goodput benchmark: the benchmark's own
// spans, the collector for the program's spans, the self-time table, the
// training re-drive and the output checker.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "perfbench/perfbench.h"
#include "rl/actor_critic_trainer.h"
#include "sql/parser.h"
#include "vexec/backend_factory.h"

namespace lsg {
namespace perfbench {

// ------------------------------------------------------------------ spans

void BenchSpans::Add(const char* name, uint64_t request_id, uint64_t start_ns,
                     uint64_t duration_ns) {
  BenchSpan s;
  s.name = name;
  s.request_id = request_id;
  s.tid = obs::ThreadId();
  s.start_ns = start_ns;
  s.duration_ns = duration_ns;
  MutexLock lock(&mu_);
  spans_.push_back(s);
}

std::vector<BenchSpan> BenchSpans::Snapshot() const {
  MutexLock lock(&mu_);
  return spans_;
}

ProgramSpanCollector::~ProgramSpanCollector() { Stop(); }

void ProgramSpanCollector::Start() {
  obs::SpanTracer::Global().Clear();
  spans_.clear();
  last_seq_ = 0;
  dropped_ = 0;
  stop_.store(false);
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Poll();
    }
  });
}

void ProgramSpanCollector::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  Poll();
}

void ProgramSpanCollector::Poll() {
  // Snapshot() is oldest first; anything at or below last_seq_ was taken
  // by an earlier poll, and a jump in seq means the ring wrapped past
  // spans no poll saw.
  for (const obs::SpanTracer::Span& s : obs::SpanTracer::Global().Snapshot()) {
    if (s.seq <= last_seq_) continue;
    dropped_ += s.seq - last_seq_ - 1;
    last_seq_ = s.seq;
    spans_.push_back(s);
  }
}

double SpanTable::Total(const std::string& name) const {
  auto it = rows.find(name);
  return it == rows.end() ? 0.0 : it->second.total_s;
}

uint64_t SpanTable::Count(const std::string& name) const {
  auto it = rows.find(name);
  return it == rows.end() ? 0 : it->second.count;
}

double SpanTable::Child(const std::string& parent,
                        const std::string& child) const {
  auto it = child_s.find({parent, child});
  return it == child_s.end() ? 0.0 : it->second;
}

SpanTable BuildSpanTable(const std::vector<obs::SpanTracer::Span>& spans) {
  std::vector<const obs::SpanTracer::Span*> order;
  order.reserve(spans.size());
  for (const auto& s : spans) order.push_back(&s);
  // Per thread, parents start no later than their children and outlast
  // them; ties on start put the longer (enclosing) span first.
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->duration_ns > b->duration_ns;
  });
  SpanTable table;
  std::vector<double> child_ns(order.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < order.size(); ++i) {
    const auto* s = order[i];
    while (!stack.empty()) {
      const auto* top = order[stack.back()];
      if (top->tid == s->tid &&
          s->start_ns + s->duration_ns <= top->start_ns + top->duration_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      const auto* parent = order[stack.back()];
      child_ns[stack.back()] += static_cast<double>(s->duration_ns);
      table.child_s[{parent->name, s->name}] += s->duration_ns * 1e-9;
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    SpanTable::Row& row = table.rows[order[i]->name];
    row.count += 1;
    row.total_s += order[i]->duration_ns * 1e-9;
    row.self_s +=
        (static_cast<double>(order[i]->duration_ns) - child_ns[i]) * 1e-9;
  }
  return table;
}

// --------------------------------------------------------------- re-drive

namespace {

/// Times every environment call the trainer makes; forwards unchanged.
class TimedEnvironment : public Environment {
 public:
  explicit TimedEnvironment(SqlGenEnvironment* inner) : inner_(inner) {}

  void Reset() override {
    const uint64_t t0 = Stopwatch::NowNanos();
    inner_->Reset();
    step_ns += Stopwatch::NowNanos() - t0;
  }
  const std::vector<uint8_t>& ValidActions() override {
    const uint64_t t0 = Stopwatch::NowNanos();
    const std::vector<uint8_t>& mask = inner_->ValidActions();
    mask_ns += Stopwatch::NowNanos() - t0;
    ++mask_calls;
    return mask;
  }
  StatusOr<EnvStepResult> Step(int action) override {
    const uint64_t t0 = Stopwatch::NowNanos();
    StatusOr<EnvStepResult> r = inner_->Step(action);
    step_ns += Stopwatch::NowNanos() - t0;
    ++step_calls;
    return r;
  }
  QueryAst TakeAst() override { return inner_->TakeAst(); }
  int vocab_size() const override { return inner_->vocab_size(); }

  uint64_t mask_ns = 0;
  uint64_t mask_calls = 0;
  uint64_t step_ns = 0;  ///< Step + Reset
  uint64_t step_calls = 0;

 private:
  SqlGenEnvironment* inner_;
};

std::string EpochDiff(int e, const EpochStats& want, const EpochStats& got) {
  auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  if (want.episodes != got.episodes || !same(want.mean_total_reward,
                                             got.mean_total_reward) ||
      !same(want.mean_final_reward, got.mean_final_reward) ||
      !same(want.mean_entropy, got.mean_entropy) ||
      !same(want.satisfied_frac, got.satisfied_frac) ||
      want.true_execution_feedback != got.true_execution_feedback) {
    return StrFormat("epoch %d: reference reward %.17g sat %.17g, re-drive "
                     "reward %.17g sat %.17g",
                     e, want.mean_total_reward, want.satisfied_frac,
                     got.mean_total_reward, got.satisfied_frac);
  }
  return "";
}

}  // namespace

RedriveResult Redrive(const Database* db, const LearnedSqlGenOptions& opts,
                      const Constraint& c) {
  RedriveResult out;
  auto ref = LearnedSqlGen::Create(db, opts);
  if (!ref.ok()) {
    out.mismatch = ref.status().ToString();
    return out;
  }
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Clear();
  Status trained = (*ref)->Train(c);
  if (!trained.ok()) {
    out.mismatch = trained.ToString();
    return out;
  }
  const int self_tid = obs::ThreadId();
  for (const auto& s : tracer.Snapshot()) {
    if (s.tid != self_tid) continue;
    if (std::strcmp(s.name, "gen.train") == 0) out.train_s += s.duration_ns * 1e-9;
    if (std::strcmp(s.name, "rl.ac_epoch") == 0) {
      out.epoch_sum_s += s.duration_ns * 1e-9;
    }
  }
  const std::vector<EpochStats>& want = (*ref)->trace();
  auto snap = (*ref)->MakeServingSnapshot();
  if (!snap.ok()) {
    out.mismatch = snap.status().ToString();
    return out;
  }

  // The same environment the pipeline trains on (its pre-switch options,
  // compiled FSM already resolved), the same trainer options, and the same
  // execution-feedback switch epoch as LearnedSqlGen::TrainFor.
  SqlGenEnvironment env(db, &(*ref)->vocab(), &(*ref)->estimator(),
                        &(*ref)->cost_model(), c, snap->env_opts);
  TimedEnvironment timed(&env);
  ActorCriticTrainer trainer(&timed, opts.trainer);
  const int epochs = opts.train_epochs;
  int switch_epoch = epochs;
  if (opts.feedback != FeedbackSource::kTrueExecution &&
      opts.true_feedback_tail > 0.0) {
    const double frac = std::min(opts.true_feedback_tail, 1.0);
    switch_epoch =
        epochs - std::min(epochs, static_cast<int>(std::ceil(epochs * frac)));
  }
  tracer.Clear();
  std::vector<double> epoch_ns;
  std::vector<double> env_ns;
  for (int e = 0; e < epochs; ++e) {
    if (e == switch_epoch) env.SetFeedbackSource(FeedbackSource::kTrueExecution);
    const uint64_t mask0 = timed.mask_ns;
    const uint64_t step0 = timed.step_ns;
    const uint64_t t0 = Stopwatch::NowNanos();
    auto st = trainer.TrainEpoch();
    epoch_ns.push_back(static_cast<double>(Stopwatch::NowNanos() - t0));
    env_ns.push_back(static_cast<double>(timed.mask_ns - mask0 +
                                         timed.step_ns - step0));
    if (!st.ok()) {
      out.mismatch = st.status().ToString();
      return out;
    }
    st->true_execution_feedback =
        env.feedback_source() == FeedbackSource::kTrueExecution;
    if (out.mismatch.empty()) {
      out.mismatch = e < static_cast<int>(want.size())
                         ? EpochDiff(e, want[e], *st)
                         : "re-drive ran more epochs than the reference";
    }
  }
  if (out.mismatch.empty() && want.size() != epoch_ns.size()) {
    out.mismatch = "epoch count differs from the reference";
  }
  out.match = out.mismatch.empty();

  double update_ns = 0.0;
  for (const auto& s : tracer.Snapshot()) {
    if (s.tid == self_tid && std::strcmp(s.name, "rl.ac_update") == 0) {
      update_ns += static_cast<double>(s.duration_ns);
    }
  }
  double epoch_total = 0.0;
  for (double ns : epoch_ns) epoch_total += ns;
  const double n = std::max(1, epochs);
  out.epochs = epochs;
  out.epoch_ms = epoch_total / n * 1e-6;
  out.update_ms = update_ns / n * 1e-6;
  out.mask_ms = static_cast<double>(timed.mask_ns) / n * 1e-6;
  out.step_ms = static_cast<double>(timed.step_ns) / n * 1e-6;
  out.rollout_self_ms = out.epoch_ms - out.update_ms - out.mask_ms - out.step_ms;
  out.mask_calls = timed.mask_calls;
  out.step_calls = timed.step_calls;
  out.mask_ns = timed.mask_calls == 0
                    ? 0.0
                    : static_cast<double>(timed.mask_ns) / timed.mask_calls;
  out.step_us = timed.step_calls == 0 ? 0.0
                                      : static_cast<double>(timed.step_ns) /
                                            timed.step_calls * 1e-3;
  return out;
}

// ---------------------------------------------------------------- checks

OutputChecker::OutputChecker(const LearnedSqlGen* pipeline, const Database* db,
                             bool exec_engines)
    : pipeline_(pipeline), db_(db) {
  if (exec_engines) {
    reference_ = vexec::MakeBackend(ExecutionBackendKind::kReference, db);
    vectorized_ = vexec::MakeBackend(ExecutionBackendKind::kVectorized, db);
  }
}

OutputChecker::~OutputChecker() = default;

std::string OutputChecker::Check(const Constraint& c, const std::string& sql,
                                 double metric, bool satisfied, bool exec) {
  auto ast = ParseSql(sql, db_->catalog());
  if (!ast.ok()) return "re-parse failed: " + ast.status().ToString();
  std::unique_ptr<SqlGenEnvironment>& env = envs_[c.ToString() + "|" +
                                                  FormatDouble(c.point) + "|" +
                                                  FormatDouble(c.lo) + "|" +
                                                  FormatDouble(c.hi)];
  if (env == nullptr) {
    env = std::make_unique<SqlGenEnvironment>(
        db_, &pipeline_->vocab(), &pipeline_->estimator(),
        &pipeline_->cost_model(), c, EnvironmentOptions());
  }
  const double recomputed = env->MetricOf(*ast);
  if (std::memcmp(&recomputed, &metric, sizeof(double)) != 0) {
    return StrFormat("metric mismatch: served %.17g, recomputed %.17g: %s",
                     metric, recomputed, sql.c_str());
  }
  if (c.Satisfied(recomputed) != satisfied) {
    return "satisfied flag disagrees with the constraint: " + sql;
  }
  if (exec && reference_ != nullptr) {
    ++exec_checked_;
    auto want = reference_->Cardinality(*ast);
    auto got = vectorized_->Cardinality(*ast);
    if (want.ok() != got.ok() || (want.ok() && *want != *got)) {
      return "executor and vexec disagree on cardinality: " + sql;
    }
  }
  return "";
}

}  // namespace perfbench
}  // namespace lsg
