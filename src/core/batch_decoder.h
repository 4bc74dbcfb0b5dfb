#ifndef LEARNEDSQLGEN_CORE_BATCH_DECODER_H_
#define LEARNEDSQLGEN_CORE_BATCH_DECODER_H_

#include <cstdint>
#include <vector>

#include "core/generator.h"

namespace lsg {

/// One generation request inside a decode batch. Inputs mirror the service
/// request (n, batch-vs-satisfied semantics, the request's RNG stream);
/// outputs land in `status`/`report` when the item retires.
struct BatchDecodeItem {
  int n = 0;
  /// true → GenerateBatch semantics (exactly n attempts, keep everything);
  /// false → GenerateSatisfied semantics (until n satisfied or the
  /// n·attempts_factor budget runs out, keep satisfied only).
  bool batch_mode = false;
  /// This request's private sampling stream, advanced in place by every
  /// sample the decode draws. The service seeds it from (seed, request) so
  /// batch-mates cannot perturb it; LearnedSqlGen copies in the caller's
  /// (or the trainer's) stream and copies the advanced state back.
  Rng rng;

  Status status;
  GenerationReport report;
};

/// Ragged cross-request decoder: drives a group of generation requests
/// against one immutable ServingSnapshot, advancing every in-flight episode
/// one token per step through a single batched LSTM forward
/// (PolicyNetwork::NextDistributionBatch). Each item owns a private
/// environment, RNG stream and episode, so its sampled queries are
/// bitwise-identical to running its episodes one at a time through
/// RolloutPolicy(train=false) on the same stream — batching changes
/// wall-clock only. This is the only inference loop: LearnedSqlGen's
/// Generate* run it with one lane. Items join a lane as slots free up and
/// leave when their budget completes (ragged batching); a degenerate
/// softmax row or environment error fails only that item.
class BatchDecoder {
 public:
  struct Stats {
    uint64_t steps = 0;       ///< batched forward steps executed
    uint64_t lane_steps = 0;  ///< Σ active lanes over those steps
    int peak_lanes = 0;
  };

  /// `snapshot` must outlive the decoder and every Run call.
  BatchDecoder(const ServingSnapshot* snapshot, int max_lanes);

  /// Runs every item to completion (filling item->status / item->report).
  Stats Run(const std::vector<BatchDecodeItem*>& items);

 private:
  struct Lane;

  /// Starts `item` in a fresh lane; returns nullptr if the item finished
  /// without needing any episode (see ItemDone).
  std::unique_ptr<Lane> StartItem(BatchDecodeItem* item);
  static void BeginAttempt(const PolicyNetwork& actor, Lane* lane);
  /// True once `item` met its n (or, in satisfied mode, its attempt
  /// budget).
  bool ItemDone(const BatchDecodeItem& item) const;
  static void FinishItem(Lane* lane);

  const ServingSnapshot* snap_;
  int max_lanes_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_BATCH_DECODER_H_
