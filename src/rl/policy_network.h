#ifndef LEARNEDSQLGEN_RL_POLICY_NETWORK_H_
#define LEARNEDSQLGEN_RL_POLICY_NETWORK_H_

#include <cstdint>
#include <vector>

#include "nn/adam.h"
#include "nn/linear.h"
#include "nn/lstm.h"

namespace lsg {

/// Shared architecture knobs for the actor and critic (paper §7.1: 2-layer
/// LSTM with 30 cell units, dropout 0.3, lr 1e-3 actor / 3e-3 critic).
struct NetworkOptions {
  int hidden_dim = 30;
  int num_layers = 2;
  float dropout = 0.3f;
  uint64_t seed = 7;
  /// Extra dense input dims appended after the one-hot token (AC-extend
  /// encodes the constraint bounds this way; 0 for the standard model).
  int extra_input_dims = 0;
};

/// The actor: one-hot token sequence -> LSTM stack -> Linear(|A|) ->
/// FSM-masked softmax policy π_θ(a|s) (paper §4.3).
class PolicyNetwork {
 public:
  PolicyNetwork(int vocab_size, const NetworkOptions& options);

  int vocab_size() const { return vocab_size_; }
  /// Input index used for the beginning-of-sequence step.
  int bos_index() const { return vocab_size_; }

  /// Compact masked action distribution for one step: probs[k] is the
  /// probability of vocabulary index idx[k], for the (typically few)
  /// FSM-valid tokens only. A full-vocabulary masked softmax would hold an
  /// exact +0.0 at every other index, and such a zero can change neither
  /// the softmax sums, a cumulative sample walk, the entropy, nor any
  /// gradient accumulator (DESIGN.md, "Training path"), so the compact form
  /// is all training and decoding need, without the dead ~99% of the
  /// output layer. Reuse one instance per lane slot across decode steps to
  /// keep the heap quiet.
  struct CompactDistribution {
    std::vector<int> idx;      ///< masked vocabulary indices, ascending
    std::vector<float> probs;  ///< probabilities over idx
  };

  /// Per-episode rollout state; holds everything needed for BPTT.
  struct Episode {
    LstmStack::State state;
    std::vector<LstmStack::StepCache> caches;
    std::vector<CompactDistribution> dists;  ///< masked π per step
    std::vector<int> actions;
    std::vector<float> extra;                ///< dense constraint dims
    bool train = false;
  };

  Episode BeginEpisode(bool train) const;

  /// Advances the LSTM over the previous action (BOS on the first call) and
  /// returns the masked action distribution for the next step. The returned
  /// reference lives in `ep` until the next call. Aborts on a degenerate
  /// masked logit row; rollouts use TryNextDistribution instead.
  const CompactDistribution& NextDistribution(Episode* ep,
                                              const std::vector<uint8_t>& mask);

  /// Non-aborting NextDistribution: an empty mask or a degenerate masked
  /// logit row comes back as kInternal (the episode is then unusable)
  /// instead of taking the process down. On success `*out` points at the
  /// distribution inside `ep`. Only the masked head rows are projected
  /// (Linear::ForwardRows) and softmaxed (TryCompactSoftmaxInPlace).
  Status TryNextDistribution(Episode* ep, const std::vector<uint8_t>& mask,
                             const CompactDistribution** out);

  /// Inference-only batched step: advances `batch` independent episodes one
  /// token each through a single batched LSTM forward, then projects only
  /// each lane's masked head rows into dists[b] (see CompactDistribution
  /// for the bitwise contract with TryNextDistribution). Requires
  /// extra_input_dims == 0 and !train on every lane (the serving model).
  /// statuses[b] receives the lane's masked-softmax status (a kInternal
  /// lane's dists entry is unspecified and the lane must be dropped).
  void NextDistributionBatch(Episode* const* lanes,
                             const std::vector<uint8_t>* const* masks,
                             int batch, CompactDistribution* dists,
                             Status* statuses) const;

  /// Records the sampled action (must follow NextDistribution).
  void RecordAction(Episode* ep, int action) const { ep->actions.push_back(action); }

  /// Samples a vocabulary index from a masked distribution with one
  /// Categorical draw over its support.
  int SampleAction(const CompactDistribution& d, Rng* rng) const;

  /// Arg-max action (greedy decoding); the lowest index wins ties.
  int GreedyAction(const CompactDistribution& d) const;

  /// Accumulates policy-gradient + entropy-regularization gradients for a
  /// batch of finished episodes: maximizes Σ_t [A_t log π(a_t|s_t) +
  /// λ H(π(·|s_t))] (Eq. 4), advantages[b] per step of episodes[b]. The
  /// head's backward touches each step's support rows only, the episodes'
  /// BPTT runs side by side (LstmStack::Backward), and every parameter
  /// receives its terms in the order of one episode after another. Call
  /// optimizer Step() afterwards.
  void AccumulateGradients(const std::vector<Episode>& episodes,
                           const std::vector<std::vector<double>>& advantages,
                           double entropy_coef);

  /// Mean policy entropy over the episode's steps (diagnostics).
  static double MeanEntropy(const Episode& ep);

  std::vector<ParamTensor*> Params();
  std::vector<const ParamTensor*> Params() const;

 private:
  int vocab_size_;
  NetworkOptions options_;
  Rng rng_;
  LstmStack lstm_;
  Linear head_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_POLICY_NETWORK_H_
