#ifndef LEARNEDSQLGEN_CORE_ENVIRONMENT_H_
#define LEARNEDSQLGEN_CORE_ENVIRONMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/generation_fsm.h"
#include "optimizer/cost_model.h"
#include "optimizer/feedback_cache.h"
#include "rl/reward.h"
#include "rl/trajectory.h"
#include "vexec/vectorized_engine.h"

namespace lsg {

/// How the environment computes the metric feedback.
enum class FeedbackSource {
  /// Optimizer estimates (the paper's choice: "we do not use the real
  /// cardinality for the efficiency issue").
  kEstimator = 0,
  /// Actual execution against the database on the vectorized engine
  /// (feedback ablation and the true_feedback_tail curriculum).
  kTrueExecution = 1,
};

struct EnvironmentOptions {
  QueryProfile profile;
  FeedbackSource feedback = FeedbackSource::kEstimator;

  /// When false, only the completed query earns a reward (the sparse
  /// signal the paper's §4.2 Remark argues against) — ablation knob.
  bool dense_partial_rewards = true;

  /// Optional shared memo of estimator feedback keyed by AST fingerprint
  /// (see FeedbackCache): share one across episodes, trainers and service
  /// workers. Must outlive the environment and serve a single database.
  /// Ignored in true-execution mode (measured, not estimated, feedback).
  FeedbackCache* feedback_cache = nullptr;

  /// O(1) incremental estimates for the per-step feedback of the growing
  /// SELECT — bitwise identical to the full AST walk (cross-checked by the
  /// fuzz oracle, and on every step when LSG_CHECK_INCREMENTAL=1 is set).
  /// Disable to force full re-walks on every step.
  bool incremental_prefix_estimates = true;
};

/// The paper's environment (Figure 1): wraps the FSM (action masking), the
/// database's cost estimator (metric feedback) and the reward function.
/// Partial executable prefixes receive shaped rewards (§4.2 Remark: "simply
/// awarding the end reward ... results in a sparse training signal").
class SqlGenEnvironment : public Environment {
 public:
  /// All pointers must outlive the environment.
  SqlGenEnvironment(const Database* db, const Vocabulary* vocab,
                    const CardinalityEstimator* estimator,
                    const CostModel* cost_model, Constraint constraint,
                    EnvironmentOptions options);

  void Reset() override;
  const std::vector<uint8_t>& ValidActions() override;
  StatusOr<EnvStepResult> Step(int action) override;
  QueryAst TakeAst() override { return fsm_.TakeAst(); }
  int vocab_size() const override { return vocab_->size(); }

  /// Estimated (or executed) metric of an AST under this constraint's
  /// metric type. Returns 0 when execution fails (e.g. join blowup guard).
  double MetricOf(const QueryAst& ast) const;

  const Constraint& constraint() const { return reward_.constraint(); }
  const GenerationFsm& fsm() const { return fsm_; }

  /// Number of feedback evaluations so far (efficiency accounting).
  int64_t feedback_calls() const { return feedback_calls_; }

  /// Switches the feedback source mid-training (the mixed-feedback
  /// curriculum: cheap estimator feedback early, execution-grounded
  /// feedback for the tail epochs — LearnedSqlGenOptions::
  /// true_feedback_tail). Takes effect from the next metric evaluation.
  void SetFeedbackSource(FeedbackSource source) {
    options_.feedback = source;
  }
  FeedbackSource feedback_source() const { return options_.feedback; }

 private:
  /// Emits the completed episode's telemetry row to the global episode
  /// sink (no-op unless obs::Enabled() and a sink is installed).
  void RecordEpisodeRow(const EnvStepResult& final_step);

  /// Per-step feedback: the incremental prefix path when it applies,
  /// otherwise MetricOf (which consults the cache).
  double StepMetric();

  /// Records the estimate-vs-true feedback gap for a measured metric
  /// (obs registry: env.feedback_gap histogram + counters). No-op unless
  /// obs::Enabled() — the extra estimator walk is only paid when observed.
  void RecordFeedbackGap(const QueryAst& ast, double measured,
                         bool cardinality_metric) const;

  const Database* db_;
  const Vocabulary* vocab_;
  const CardinalityEstimator* estimator_;
  const CostModel* cost_model_;
  RewardFunction reward_;
  EnvironmentOptions options_;
  GenerationFsm fsm_;
  /// Answers true-execution feedback (and MetricOf true-cost runs). The
  /// reference Executor is its oracle, not an alternative engine.
  vexec::VectorizedEngine engine_;
  PrefixEstimator prefix_est_;
  bool check_incremental_;  ///< LSG_CHECK_INCREMENTAL=1 debug cross-check
  mutable int64_t feedback_calls_ = 0;

  // Per-episode telemetry accumulators (active only while obs::Enabled();
  // see src/obs/). The environment is the one place that sees every step
  // of every episode, for trainers and inference alike, so episode rows
  // are recorded here rather than in each driver.
  std::string constraint_str_;       ///< cached Constraint::ToString()
  double ep_reward_sum_ = 0.0;
  int ep_steps_ = 0;
  uint64_t ep_mask_width_sum_ = 0;
  uint64_t ep_mask_evals_ = 0;
  int64_t ep_feedback_calls_at_reset_ = 0;
  uint64_t ep_start_ns_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_ENVIRONMENT_H_
