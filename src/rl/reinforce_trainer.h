#ifndef LEARNEDSQLGEN_RL_REINFORCE_TRAINER_H_
#define LEARNEDSQLGEN_RL_REINFORCE_TRAINER_H_

#include <functional>
#include <memory>

#include "nn/adam.h"
#include "rl/policy_network.h"
#include "rl/trajectory.h"

namespace lsg {

/// Hyper-parameters shared by the RL trainers (paper §7.1 defaults).
struct TrainerOptions {
  int batch_size = 8;          ///< trajectories per update (Algorithm 3 l.3)
  double entropy_coef = 0.01;  ///< λ of Eq. 4
  float actor_lr = 1e-3f;
  float critic_lr = 3e-3f;
  double grad_clip = 5.0;
  /// Standardize advantages across each batch before the actor update
  /// (mean 0, stddev 1). An implementation detail on top of the paper's
  /// Algorithm 3 that markedly stabilizes training (see DESIGN.md).
  bool normalize_advantages = true;
  /// Snapshot the actor whenever an epoch achieves the best satisfied
  /// fraction so far; RestoreBestActor() rolls back to it before
  /// inference. Guards against late-training policy collapse.
  bool keep_best_actor = true;
  uint64_t seed = 1234;
  NetworkOptions net;
};

/// Standardizes `adv` in place across all steps of a batch (no-op for
/// fewer than two entries or zero variance).
void NormalizeAdvantages(std::vector<std::vector<double>>* adv);

/// Aggregates over one training epoch (= one batch update).
struct EpochStats {
  int episodes = 0;
  double mean_total_reward = 0.0;  ///< mean Σ_t r_t per trajectory
  double mean_final_reward = 0.0;  ///< mean reward of the completed query
  double mean_entropy = 0.0;
  double satisfied_frac = 0.0;     ///< fraction of episodes meeting C
  /// True when this epoch's rewards came from execution-grounded feedback
  /// (the mixed-feedback curriculum tail) rather than estimator feedback.
  bool true_execution_feedback = false;
};

/// Adds one finished episode to the running sums in `stats`.
void AddEpisode(const Trajectory& traj, const PolicyNetwork::Episode& ep,
                EpochStats* stats);

/// Turns the running sums in `stats` into means over `n`.
void AverageStats(double n, EpochStats* stats);

/// TD(0) targets of one episode: advantage_t = r_t + V(s_{t+1}) − V(s_t)
/// with a terminal V of 0, and the critic gradient dvalue_t = −advantage_t
/// (∂ 0.5·td² / ∂V(s_t) with the target held fixed).
void TdAdvantages(const std::vector<double>& rewards,
                  const std::vector<float>& values,
                  std::vector<double>* advantage, std::vector<double>* dvalue);

/// One policy-gradient update: accumulates every episode's gradients in
/// batch order, clips them and applies one optimizer step.
void UpdateActor(const TrainerOptions& options,
                 const std::vector<PolicyNetwork::Episode>& episodes,
                 const std::vector<std::vector<double>>& advantages,
                 PolicyNetwork* actor, Adam* opt);

/// Optional critic riding along a RolloutPolicy episode. `value` runs once
/// per step, after the actor's distribution and before sampling, with the
/// previous token (the BOS index first). `observe` runs after each
/// environment step with the step's action and reward. Either may be empty.
struct CriticHook {
  std::function<void(int prev_token)> value;
  std::function<void(int action, double reward)> observe;
};

/// The one scalar episode loop: samples one episode with the policy against
/// the environment, calling `critic` (if any) at every step. `extra` (if
/// any) is the dense constraint-feature tail of the actor's inputs. When
/// `train` is true the actor episode (with caches) is stored into `ep_out`.
StatusOr<Trajectory> RolloutPolicy(Environment* env, PolicyNetwork* actor,
                                   Rng* rng, bool train,
                                   PolicyNetwork::Episode* ep_out,
                                   const CriticHook* critic = nullptr,
                                   const std::vector<float>* extra = nullptr);

/// What the single-actor trainers share: the environment, the actor and its
/// optimizer, the trainer's sampling stream, the keep-best checkpoint and
/// inference through RolloutPolicy.
class PolicyTrainer {
 public:
  virtual ~PolicyTrainer() = default;
  PolicyTrainer(const PolicyTrainer&) = delete;
  PolicyTrainer& operator=(const PolicyTrainer&) = delete;

  /// Runs one batch of episodes and applies one update.
  virtual StatusOr<EpochStats> TrainEpoch() = 0;

  /// Inference: generates one query with the current policy (no learning).
  StatusOr<Trajectory> Generate() { return Generate(&rng_); }

  /// Inference with a caller-owned RNG stream. A critic is never stepped
  /// at inference, so this consumes exactly the actor's samples.
  StatusOr<Trajectory> Generate(Rng* rng);

  /// Rolls the actor back to its best checkpoint (keep_best_actor).
  /// Returns false if no checkpoint exists yet.
  bool RestoreBestActor() { return best_actor_.Restore(actor_->Params()); }

  PolicyNetwork& actor() { return *actor_; }
  const PolicyNetwork& actor() const { return *actor_; }
  const TrainerOptions& options() const { return options_; }
  /// The trainer's own sampling stream (used by Generate()).
  Rng& rng() { return rng_; }

  /// Per-episode constraint features for the AC-extend baseline; empty for
  /// the standard model. Copied into every episode's network inputs.
  void set_extra_features(std::vector<float> extra) {
    extra_ = std::move(extra);
  }

  /// Swaps the environment (AC-extend trains one network across multiple
  /// constraint tasks, each with its own environment). The vocab size must
  /// match the construction-time environment.
  void set_environment(Environment* env) { env_ = env; }

 protected:
  PolicyTrainer(Environment* env, const TrainerOptions& options);

  /// Epoch epilogue: updates the keep-best checkpoint and publishes the
  /// rl.* metrics.
  void EndEpoch(const EpochStats& stats);

  Environment* env_;
  TrainerOptions options_;
  Rng rng_;
  std::unique_ptr<PolicyNetwork> actor_;
  std::unique_ptr<Adam> actor_opt_;
  std::vector<float> extra_;

 private:
  ParamSnapshot best_actor_;
  double best_score_ = -1.0;
};

/// Plain REINFORCE (Williams 1992) with reward-to-go coefficients and no
/// baseline — the comparison algorithm of §7.3 / Figure 8. Entropy
/// regularization matches the actor-critic setup so the only difference is
/// the missing critic baseline.
class ReinforceTrainer : public PolicyTrainer {
 public:
  ReinforceTrainer(Environment* env, const TrainerOptions& options);

  StatusOr<EpochStats> TrainEpoch() override;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_REINFORCE_TRAINER_H_
