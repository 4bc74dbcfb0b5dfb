#include "rl/actor_critic_trainer.h"

#include "obs/span_tracer.h"

namespace lsg {

ActorCriticTrainer::ActorCriticTrainer(Environment* env,
                                       const TrainerOptions& options)
    : PolicyTrainer(env, options) {
  NetworkOptions net = options.net;
  net.seed = options.seed + 1;
  critic_ = std::make_unique<ValueNetwork>(env->vocab_size(), net);
  critic_opt_ = std::make_unique<Adam>(critic_->Params(), options.critic_lr);
}

StatusOr<EpochStats> ActorCriticTrainer::TrainEpoch() {
  LSG_OBS_SPAN("rl.ac_epoch");
  EpochStats stats;
  std::vector<PolicyNetwork::Episode> actor_eps(options_.batch_size);
  std::vector<ValueNetwork::Episode> critic_eps(options_.batch_size);
  std::vector<std::vector<double>> advantages(options_.batch_size);
  std::vector<std::vector<double>> dvalues(options_.batch_size);
  for (int b = 0; b < options_.batch_size; ++b) {
    ValueNetwork::Episode& critic_ep = critic_eps[b];
    critic_ep = critic_->BeginEpisode(/*train=*/true);
    critic_ep.extra = extra_;
    const CriticHook hook{
        [&](int prev) { critic_->StepValue(&critic_ep, prev); }, nullptr};
    auto traj = RolloutPolicy(env_, actor_.get(), &rng_, /*train=*/true,
                              &actor_eps[b], &hook, &extra_);
    if (!traj.ok()) return traj.status();
    TdAdvantages(traj->rewards, critic_ep.values, &advantages[b], &dvalues[b]);
    AddEpisode(*traj, actor_eps[b], &stats);
  }
  if (options_.normalize_advantages) NormalizeAdvantages(&advantages);
  {
    LSG_OBS_SPAN("rl.ac_update");
    UpdateActor(options_, actor_eps, advantages, actor_.get(),
                actor_opt_.get());
    // The critic's backward waits for the whole batch too: it reads only
    // the finished episodes, and nothing touches its parameters or
    // gradients before this step.
    critic_->AccumulateGradients(critic_eps, dvalues);
    ClipGradNorm(critic_->Params(), options_.grad_clip);
    critic_opt_->Step();
  }
  AverageStats(stats.episodes, &stats);
  EndEpoch(stats);
  return stats;
}

}  // namespace lsg
