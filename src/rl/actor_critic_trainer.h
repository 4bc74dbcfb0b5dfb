#ifndef LEARNEDSQLGEN_RL_ACTOR_CRITIC_TRAINER_H_
#define LEARNEDSQLGEN_RL_ACTOR_CRITIC_TRAINER_H_

#include <memory>

#include "nn/adam.h"
#include "rl/reinforce_trainer.h"
#include "rl/value_network.h"

namespace lsg {

/// The paper's main trainer (§4.3, Algorithm 3): actor-critic with TD(0)
/// advantage A(s_t, a_t) = r_t + V(s_{t+1}) − V(s_t) and entropy
/// regularization. The critic's V value is the variance-reducing baseline.
class ActorCriticTrainer : public PolicyTrainer {
 public:
  ActorCriticTrainer(Environment* env, const TrainerOptions& options);

  /// Runs one batch of episodes and applies one update to both networks.
  StatusOr<EpochStats> TrainEpoch() override;

 private:
  std::unique_ptr<ValueNetwork> critic_;
  std::unique_ptr<Adam> critic_opt_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_ACTOR_CRITIC_TRAINER_H_
