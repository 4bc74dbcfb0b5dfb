#include "core/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/batch_decoder.h"
#include "nn/serialize.h"
#include "obs/span_tracer.h"

namespace lsg {

LearnedSqlGen::LearnedSqlGen(const Database* db,
                             const LearnedSqlGenOptions& options)
    : db_(db), options_(options) {}

StatusOr<std::unique_ptr<LearnedSqlGen>> LearnedSqlGen::Create(
    const Database* db, const LearnedSqlGenOptions& options) {
  if (db == nullptr || db->num_tables() == 0) {
    return Status::InvalidArgument("LearnedSqlGen needs a non-empty database");
  }
  if (options.trainer.net.extra_input_dims != 0) {
    return Status::InvalidArgument(
        "LearnedSqlGen supports the standard one-hot model only "
        "(trainer.net.extra_input_dims must be 0)");
  }
  if (!options.profile.OpensAnyStatement()) {
    return Status::InvalidArgument(
        "QueryProfile opens no statement kind (allow_select, allow_insert, "
        "allow_update and allow_delete are all false)");
  }
  std::unique_ptr<LearnedSqlGen> gen(new LearnedSqlGen(db, options));
  gen->stats_ = DatabaseStats::Collect(*db);
  auto vocab = Vocabulary::Build(*db, options.vocab);
  if (!vocab.ok()) return vocab.status();
  gen->vocab_ = std::move(vocab).value();
  gen->estimator_ =
      std::make_unique<CardinalityEstimator>(db, &gen->stats_);
  gen->cost_model_ = std::make_unique<CostModel>(gen->estimator_.get());
  return gen;
}

Status LearnedSqlGen::Train(const Constraint& constraint) {
  return TrainFor(constraint, options_.train_epochs);
}

EnvironmentOptions LearnedSqlGen::BuildEnvOptions() const {
  EnvironmentOptions env_opts;
  env_opts.profile = options_.profile;
  env_opts.feedback = options_.feedback;
  env_opts.dense_partial_rewards = options_.dense_partial_rewards;
  env_opts.feedback_cache = options_.feedback_cache;
  env_opts.incremental_prefix_estimates =
      options_.incremental_prefix_estimates;
  return env_opts;
}

Status LearnedSqlGen::TrainFor(const Constraint& constraint, int epochs) {
  LSG_OBS_SPAN("gen.train");
  EnvironmentOptions env_opts = BuildEnvOptions();
  env_opts_ = env_opts;
  constraint_ = constraint;
  env_ = std::make_unique<SqlGenEnvironment>(db_, &*vocab_, estimator_.get(),
                                             cost_model_.get(), constraint,
                                             env_opts);
  trace_.clear();
  Stopwatch watch;

  // Mixed-feedback curriculum: the final ceil(epochs · true_feedback_tail)
  // epochs flip the environment to execution-grounded feedback. Epochs
  // before the switch keep the estimator (+ cache) signal.
  int switch_epoch = epochs;
  if (options_.feedback != FeedbackSource::kTrueExecution &&
      options_.true_feedback_tail > 0.0) {
    const double frac = std::min(options_.true_feedback_tail, 1.0);
    const int tail = std::min(
        epochs, static_cast<int>(std::ceil(epochs * frac)));
    switch_epoch = epochs - tail;
  }
  auto epoch_begin = [&](int e) {
    if (e == switch_epoch &&
        env_->feedback_source() != FeedbackSource::kTrueExecution) {
      env_->SetFeedbackSource(FeedbackSource::kTrueExecution);
      LSG_LOG(Info) << "epoch " << e << ": switching to execution-grounded "
                    << "feedback";
    }
  };
  auto record = [&](EpochStats st) {
    st.true_execution_feedback =
        env_->feedback_source() == FeedbackSource::kTrueExecution;
    trace_.push_back(st);
  };

  {
    // Network initialisation is ~3% of a short TPC-H train: a named stage
    // of gen.train (see lsgtrace's span-coverage check).
    LSG_OBS_SPAN("gen.build_trainer");
    if (options_.use_reinforce) {
      trainer_ =
          std::make_unique<ReinforceTrainer>(env_.get(), options_.trainer);
    } else {
      trainer_ =
          std::make_unique<ActorCriticTrainer>(env_.get(), options_.trainer);
    }
  }
  for (int e = 0; e < epochs; ++e) {
    epoch_begin(e);
    auto st = trainer_->TrainEpoch();
    if (!st.ok()) return st.status();
    record(*st);
  }
  // Inference uses the best checkpoint seen during training (guards
  // against late-training policy collapse).
  if (options_.trainer.keep_best_actor) trainer_->RestoreBestActor();
  train_seconds_ = watch.ElapsedSeconds();
  return Status::Ok();
}

Status LearnedSqlGen::SaveModel(const std::string& path) const {
  if (trainer_ == nullptr) {
    return Status::FailedPrecondition("no trained model to save");
  }
  return SaveParams(std::as_const(*trainer_).actor().Params(), path);
}

Status LearnedSqlGen::LoadModel(const Constraint& constraint,
                                const std::string& path) {
  // Build the trainer (0 epochs = no training) and overwrite its actor.
  LSG_RETURN_IF_ERROR(TrainFor(constraint, 0));
  return LoadParams(trainer_->actor().Params(), path);
}

StatusOr<GenerationReport> LearnedSqlGen::Decode(int n, bool batch_mode,
                                                 Rng* rng) {
  LSG_OBS_SPAN(batch_mode ? "gen.generate_batch" : "gen.generate_satisfied");
  LSG_ASSIGN_OR_RETURN(ServingSnapshot snap, MakeServingSnapshot());
  Rng& stream = rng != nullptr ? *rng : trainer_->rng();
  BatchDecodeItem item;
  item.n = n;
  item.batch_mode = batch_mode;
  item.rng = stream;
  BatchDecoder(&snap, /*max_lanes=*/1).Run({&item});
  stream = item.rng;
  if (!item.status.ok()) return item.status;
  return std::move(item.report);
}

StatusOr<ServingSnapshot> LearnedSqlGen::MakeServingSnapshot() const {
  if (trainer_ == nullptr) {
    return Status::FailedPrecondition("call Train before generating");
  }
  ServingSnapshot snap;
  snap.db = db_;
  snap.vocab = &*vocab_;
  snap.estimator = estimator_.get();
  snap.cost_model = cost_model_.get();
  snap.actor = &std::as_const(*trainer_).actor();
  snap.env_opts = env_opts_;
  snap.constraint = constraint_;
  snap.attempts_factor = options_.attempts_factor;
  snap.train_seconds = train_seconds_;
  snap.trace = &trace_;
  return snap;
}

}  // namespace lsg
