#include "rl/reinforce_trainer.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"

namespace lsg {

void NormalizeAdvantages(std::vector<std::vector<double>>* adv) {
  size_t n = 0;
  double sum = 0.0;
  for (const auto& a : *adv) {
    for (double v : a) {
      sum += v;
      ++n;
    }
  }
  if (n < 2) return;
  double mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (const auto& a : *adv) {
    for (double v : a) sq += (v - mean) * (v - mean);
  }
  double stddev = std::sqrt(sq / static_cast<double>(n));
  if (stddev < 1e-8) return;
  for (auto& a : *adv) {
    for (double& v : a) v = (v - mean) / stddev;
  }
}

void AddEpisode(const Trajectory& traj, const PolicyNetwork::Episode& ep,
                EpochStats* stats) {
  stats->episodes += 1;
  stats->mean_total_reward += traj.TotalReward();
  stats->mean_final_reward += traj.rewards.empty() ? 0.0 : traj.rewards.back();
  stats->mean_entropy += PolicyNetwork::MeanEntropy(ep);
  stats->satisfied_frac += traj.satisfied ? 1.0 : 0.0;
}

void AverageStats(double n, EpochStats* stats) {
  stats->mean_total_reward /= n;
  stats->mean_final_reward /= n;
  stats->mean_entropy /= n;
  stats->satisfied_frac /= n;
}

void TdAdvantages(const std::vector<double>& rewards,
                  const std::vector<float>& values,
                  std::vector<double>* advantage,
                  std::vector<double>* dvalue) {
  const size_t T = rewards.size();
  LSG_CHECK(values.size() == T);
  advantage->resize(T);
  dvalue->resize(T);
  for (size_t t = 0; t < T; ++t) {
    double v_next = (t + 1 < T) ? values[t + 1] : 0.0;
    double td = rewards[t] + v_next - values[t];
    (*advantage)[t] = td;
    (*dvalue)[t] = -td;
  }
}

void UpdateActor(const TrainerOptions& options,
                 const std::vector<PolicyNetwork::Episode>& episodes,
                 const std::vector<std::vector<double>>& advantages,
                 PolicyNetwork* actor, Adam* opt) {
  actor->AccumulateGradients(episodes, advantages, options.entropy_coef);
  ClipGradNorm(actor->Params(), options.grad_clip);
  opt->Step();
}

StatusOr<Trajectory> RolloutPolicy(Environment* env, PolicyNetwork* actor,
                                   Rng* rng, bool train,
                                   PolicyNetwork::Episode* ep_out,
                                   const CriticHook* critic,
                                   const std::vector<float>* extra) {
  env->Reset();
  PolicyNetwork::Episode ep = actor->BeginEpisode(train);
  if (extra != nullptr) ep.extra = *extra;
  Trajectory traj;
  int prev = actor->bos_index();
  for (int step = 0; step < kMaxEpisodeSteps; ++step) {
    const std::vector<uint8_t>& mask = env->ValidActions();
    const PolicyNetwork::CompactDistribution* dist = nullptr;
    LSG_RETURN_IF_ERROR(actor->TryNextDistribution(&ep, mask, &dist));
    if (critic != nullptr && critic->value) critic->value(prev);
    int a = actor->SampleAction(*dist, rng);
    actor->RecordAction(&ep, a);
    auto sr = env->Step(a);
    if (!sr.ok()) return sr.status();
    if (critic != nullptr && critic->observe) critic->observe(a, sr->reward);
    traj.actions.push_back(a);
    traj.rewards.push_back(sr->reward);
    prev = a;
    if (sr->done) {
      traj.completed = true;
      traj.satisfied = sr->satisfied;
      traj.final_metric = sr->metric;
      traj.ast = env->TakeAst();
      break;
    }
  }
  if (!traj.completed) {
    return Status::Internal("episode exceeded the hard step cap");
  }
  if (ep_out != nullptr) *ep_out = std::move(ep);
  return traj;
}

PolicyTrainer::PolicyTrainer(Environment* env, const TrainerOptions& options)
    : env_(env), options_(options), rng_(options.seed) {
  LSG_CHECK(env != nullptr);
  NetworkOptions net = options.net;
  net.seed = options.seed;
  actor_ = std::make_unique<PolicyNetwork>(env->vocab_size(), net);
  actor_opt_ = std::make_unique<Adam>(actor_->Params(), options.actor_lr);
}

StatusOr<Trajectory> PolicyTrainer::Generate(Rng* rng) {
  return RolloutPolicy(env_, actor_.get(), rng, /*train=*/false, nullptr,
                       nullptr, &extra_);
}

void PolicyTrainer::EndEpoch(const EpochStats& stats) {
  if (options_.keep_best_actor) {
    double score = stats.satisfied_frac + 0.01 * stats.mean_final_reward;
    if (score > best_score_) {
      best_score_ = score;
      best_actor_.Save(actor_->Params());
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Counter& epochs = reg.GetCounter("rl.epochs");
    static obs::Counter& episodes = reg.GetCounter("rl.episodes");
    epochs.Inc();
    episodes.Add(static_cast<uint64_t>(stats.episodes));
    reg.GetGauge("rl.mean_total_reward").Set(stats.mean_total_reward);
    reg.GetGauge("rl.satisfied_frac").Set(stats.satisfied_frac);
    reg.GetGauge("rl.mean_entropy").Set(stats.mean_entropy);
  }
}

ReinforceTrainer::ReinforceTrainer(Environment* env,
                                   const TrainerOptions& options)
    : PolicyTrainer(env, options) {}

StatusOr<EpochStats> ReinforceTrainer::TrainEpoch() {
  LSG_OBS_SPAN("rl.reinforce_epoch");
  EpochStats stats;
  std::vector<PolicyNetwork::Episode> episodes(options_.batch_size);
  std::vector<std::vector<double>> advantages(options_.batch_size);
  for (int b = 0; b < options_.batch_size; ++b) {
    auto traj = RolloutPolicy(env_, actor_.get(), &rng_, /*train=*/true,
                              &episodes[b], nullptr, &extra_);
    if (!traj.ok()) return traj.status();
    advantages[b] = traj->RewardToGo();
    AddEpisode(*traj, episodes[b], &stats);
  }
  if (options_.normalize_advantages) NormalizeAdvantages(&advantages);
  {
    LSG_OBS_SPAN("rl.reinforce_update");
    UpdateActor(options_, episodes, advantages, actor_.get(),
                actor_opt_.get());
  }
  AverageStats(stats.episodes, &stats);
  EndEpoch(stats);
  return stats;
}

}  // namespace lsg
