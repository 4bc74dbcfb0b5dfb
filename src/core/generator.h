#ifndef LEARNEDSQLGEN_CORE_GENERATOR_H_
#define LEARNEDSQLGEN_CORE_GENERATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/workload.h"
#include "rl/actor_critic_trainer.h"
#include "rl/reinforce_trainer.h"

namespace lsg {

/// End-to-end configuration of the LearnedSQLGen pipeline.
struct LearnedSqlGenOptions {
  TrainerOptions trainer;
  QueryProfile profile;
  VocabularyOptions vocab;
  FeedbackSource feedback = FeedbackSource::kEstimator;

  /// Mixed-feedback curriculum: fraction of the training epochs (from the
  /// tail) that switch the environment to execution-grounded feedback
  /// (FeedbackSource::kTrueExecution). Early epochs keep the cheap
  /// estimator (+ cache) signal for exploration; the final
  /// ceil(train_epochs · true_feedback_tail) epochs ground the policy in
  /// measured cardinalities/costs from the vectorized engine.
  /// 0 disables the switch (paper default); 1 trains fully on execution.
  /// Ignored when `feedback` is already kTrueExecution.
  double true_feedback_tail = 0.0;

  /// Training epochs (batched updates) per constraint.
  int train_epochs = 80;

  /// Inference attempt budget per requested satisfied query.
  int attempts_factor = 50;

  /// Use plain REINFORCE instead of actor-critic (the §7.3 comparison).
  bool use_reinforce = false;

  /// Reward-shaping ablation: when false only complete queries earn
  /// rewards (§4.2 Remark).
  bool dense_partial_rewards = true;

  /// Optional shared feedback-estimation cache (must outlive the pipeline
  /// and serve this database only). The cache itself is thread-safe, so
  /// concurrent pipelines over the same database may share one.
  FeedbackCache* feedback_cache = nullptr;

  /// See EnvironmentOptions::incremental_prefix_estimates.
  bool incremental_prefix_estimates = true;

  uint64_t seed = 2024;
};

/// Immutable, copy-free view of a trained pipeline for the serving path.
/// Every pointer aliases state owned by the LearnedSqlGen that produced the
/// snapshot (kept alive by the caller — the service holds the registry
/// entry), and every referenced component is const or internally
/// thread-safe at inference, so one snapshot may drive any number of
/// concurrent decode lanes without touching the pipeline's mutex.
struct ServingSnapshot {
  const Database* db = nullptr;
  const Vocabulary* vocab = nullptr;
  const CardinalityEstimator* estimator = nullptr;
  const CostModel* cost_model = nullptr;
  const PolicyNetwork* actor = nullptr;
  /// Environment configuration the model was trained under; fresh per-lane
  /// environments are built from this.
  EnvironmentOptions env_opts;
  /// The constraint the entry's model was trained for — generation
  /// validates against this.
  Constraint constraint;
  int attempts_factor = 50;
  double train_seconds = 0.0;
  const std::vector<EpochStats>* trace = nullptr;
};

/// One generated query with its metadata. Move-only (owns the AST).
struct GeneratedQuery {
  std::string sql;
  double metric = 0.0;       ///< estimated card/cost
  bool satisfied = false;
  QueryFeatures features;
  QueryAst ast;              ///< for downstream execution / inspection
};

/// Outcome of a generation run.
struct GenerationReport {
  std::vector<GeneratedQuery> queries;
  int attempts = 0;
  int satisfied = 0;
  double accuracy = 0.0;        ///< satisfied / attempts
  double train_seconds = 0.0;
  double generate_seconds = 0.0;
  std::vector<EpochStats> trace;  ///< per-epoch training stats

  double total_seconds() const { return train_seconds + generate_seconds; }
};

/// The LearnedSQLGen system facade: builds the action space, statistics,
/// estimator and cost model for a database; trains the RL model for a
/// constraint (Algorithm 1/3); generates satisfying queries (Algorithm 2).
///
/// Thread-safety contract: one instance is single-threaded (Train and
/// Generate* mutate the trainer state and its RNG), but distinct instances
/// over the same const Database may run concurrently — the library keeps no
/// mutable global state beyond the thread-safe logger. The service layer
/// (src/service/) builds on exactly this contract: one pipeline per cached
/// constraint bucket, each guarded by its own lock.
class LearnedSqlGen {
 public:
  /// Builds the pipeline for `db` (must outlive the generator). Rejects
  /// dense extra network inputs (trainer.net.extra_input_dims != 0): the
  /// pipeline has no constraint features to feed them, and its decoder
  /// drives the standard one-hot model only.
  static StatusOr<std::unique_ptr<LearnedSqlGen>> Create(
      const Database* db, const LearnedSqlGenOptions& options);

  /// Trains a fresh model for the given constraint.
  Status Train(const Constraint& constraint);
  Status TrainFor(const Constraint& constraint, int epochs);

  /// Keeps generating until `n` satisfying queries are found or the attempt
  /// budget (n · attempts_factor) runs out. Report contains only the
  /// satisfying queries.
  StatusOr<GenerationReport> GenerateSatisfied(int n) {
    return GenerateSatisfied(n, nullptr);
  }

  /// Generates exactly `n` queries and reports the satisfied fraction
  /// (the paper's accuracy metric). Report contains all n queries.
  StatusOr<GenerationReport> GenerateBatch(int n) {
    return GenerateBatch(n, nullptr);
  }

  /// Caller-RNG variants: sampling draws from `rng` instead of the
  /// trainer's internal stream. The serving path derives one stream per
  /// request from (seed, request), making outputs independent of worker
  /// placement and batch composition.
  ///
  /// Every variant decodes through MakeServingSnapshot() and a one-lane
  /// BatchDecoder, so it returns exactly what the service returns for the
  /// same model and stream: queries are judged under the environment
  /// options the model was trained under before any execution-feedback
  /// switch (ServingSnapshot::env_opts).
  StatusOr<GenerationReport> GenerateSatisfied(int n, Rng* rng) {
    return Decode(n, /*batch_mode=*/false, rng);
  }
  StatusOr<GenerationReport> GenerateBatch(int n, Rng* rng) {
    return Decode(n, /*batch_mode=*/true, rng);
  }

  /// Publishes an immutable view of the trained pipeline for lock-free
  /// batched serving (see BatchDecoder). Fails only before Train/LoadModel.
  StatusOr<ServingSnapshot> MakeServingSnapshot() const;

  /// Saves the trained actor's parameters to a binary file.
  Status SaveModel(const std::string& path) const;

  /// Rebuilds the pipeline for `constraint` (without training) and loads a
  /// previously saved actor, so generation can resume across processes.
  Status LoadModel(const Constraint& constraint, const std::string& path);

  /// Per-epoch training trace of the last Train call (Figure 8c / 9c).
  const std::vector<EpochStats>& trace() const { return trace_; }
  double last_train_seconds() const { return train_seconds_; }

  const Vocabulary& vocab() const { return *vocab_; }
  const DatabaseStats& stats() const { return stats_; }
  const CardinalityEstimator& estimator() const { return *estimator_; }
  const CostModel& cost_model() const { return *cost_model_; }
  const LearnedSqlGenOptions& options() const { return options_; }

 private:
  LearnedSqlGen(const Database* db, const LearnedSqlGenOptions& options);

  /// Decodes one request on `rng` (the trainer's stream when null),
  /// advancing that stream exactly as far as the decode sampled.
  StatusOr<GenerationReport> Decode(int n, bool batch_mode, Rng* rng);

  /// Environment configuration derived from options_.
  EnvironmentOptions BuildEnvOptions() const;

  const Database* db_;
  LearnedSqlGenOptions options_;
  DatabaseStats stats_;
  std::optional<Vocabulary> vocab_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<SqlGenEnvironment> env_;
  /// Actor-critic, or REINFORCE under use_reinforce; null before training.
  std::unique_ptr<PolicyTrainer> trainer_;
  std::vector<EpochStats> trace_;
  double train_seconds_ = 0.0;
  /// Environment options and constraint of the last TrainFor (what a
  /// ServingSnapshot republishes).
  EnvironmentOptions env_opts_;
  Constraint constraint_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_GENERATOR_H_
