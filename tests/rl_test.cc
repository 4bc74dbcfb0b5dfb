#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/string_util.h"
#include "rl/actor_critic_trainer.h"
#include "rl/meta_critic.h"
#include "rl/policy_network.h"
#include "rl/reinforce_trainer.h"
#include "rl/reward.h"
#include "rl/trajectory.h"
#include "rl/value_network.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- reward

TEST(ConstraintTest, PointSatisfactionWithTolerance) {
  Constraint c = Constraint::Point(ConstraintMetric::kCardinality, 1000);
  EXPECT_TRUE(c.Satisfied(1000));
  EXPECT_TRUE(c.Satisfied(950));   // within ±10%
  EXPECT_TRUE(c.Satisfied(1100));
  EXPECT_FALSE(c.Satisfied(1101));
  EXPECT_FALSE(c.Satisfied(899));
}

TEST(ConstraintTest, RangeSatisfaction) {
  Constraint c = Constraint::Range(ConstraintMetric::kCost, 1000, 2000);
  EXPECT_TRUE(c.Satisfied(1000));
  EXPECT_TRUE(c.Satisfied(2000));
  EXPECT_TRUE(c.Satisfied(1500));
  EXPECT_FALSE(c.Satisfied(999));
  EXPECT_FALSE(c.Satisfied(2001));
}

TEST(ConstraintTest, ToStringReadable) {
  EXPECT_EQ(Constraint::Point(ConstraintMetric::kCardinality, 1000).ToString(),
            "Card=1K");
  EXPECT_EQ(Constraint::Range(ConstraintMetric::kCost, 1000, 2000).ToString(),
            "Cost in [1K,2K]");
}

TEST(RewardTest, PaperExample3PointConstraint) {
  // Card = 10,000; ĉ = 100 -> 0.01; ĉ = 11,000 -> ~0.909 ("0.9" in §4.2).
  RewardFunction r(Constraint::Point(ConstraintMetric::kCardinality, 10000));
  EXPECT_NEAR(r.Reward(true, 100), 0.01, 1e-9);
  EXPECT_NEAR(r.Reward(true, 11000), 10000.0 / 11000.0, 1e-9);
}

TEST(RewardTest, PaperExample4RangeConstraint) {
  // Card = [1K, 2K]; ĉ = 1.5K -> 1; ĉ = 10K -> 0.2 (§4.2 Example 4).
  RewardFunction r(
      Constraint::Range(ConstraintMetric::kCardinality, 1000, 2000));
  EXPECT_DOUBLE_EQ(r.Reward(true, 1500), 1.0);
  EXPECT_NEAR(r.Reward(true, 10000), 0.2, 1e-9);
}

TEST(RewardTest, NonExecutableGetsZero) {
  RewardFunction r(Constraint::Point(ConstraintMetric::kCardinality, 10));
  EXPECT_DOUBLE_EQ(r.Reward(false, 10), 0.0);
}

TEST(RewardTest, ZeroMetricGetsZero) {
  RewardFunction r(Constraint::Point(ConstraintMetric::kCardinality, 10));
  EXPECT_DOUBLE_EQ(r.Reward(true, 0), 0.0);
}

TEST(RewardTest, RangeBelowUsesLeftBound) {
  RewardFunction r(
      Constraint::Range(ConstraintMetric::kCardinality, 1000, 2000));
  // ĉ = 500: max(min(0.5, 2), min(0.25, 4)) = 0.5.
  EXPECT_NEAR(r.Reward(true, 500), 0.5, 1e-9);
}

TEST(RewardTest, RewardIncreasesTowardTarget) {
  RewardFunction r(Constraint::Point(ConstraintMetric::kCost, 100));
  double prev = 0;
  for (double m : {1.0, 10.0, 50.0, 90.0, 100.0}) {
    double v = r.Reward(true, m);
    EXPECT_GT(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

// ------------------------------------------------------------ trajectory

TEST(TrajectoryTest, RewardToGo) {
  Trajectory t;
  t.rewards = {1.0, 0.0, 2.0};
  auto rtg = t.RewardToGo();
  ASSERT_EQ(rtg.size(), 3u);
  EXPECT_DOUBLE_EQ(rtg[0], 3.0);
  EXPECT_DOUBLE_EQ(rtg[1], 2.0);
  EXPECT_DOUBLE_EQ(rtg[2], 2.0);
  EXPECT_DOUBLE_EQ(t.TotalReward(), 3.0);
}

// -------------------------------------------------------------- toy env

/// Sequence-matching toy environment: emit exactly 3 symbols from {0,1,2}
/// then EOF (id 3). Rewards are dense, like the paper's environment
/// (executable partial queries earn shaped rewards): each correct symbol
/// earns 1/3, and the EOF step repeats the overall match fraction.
class ToyEnv : public Environment {
 public:
  explicit ToyEnv(std::vector<int> target) : target_(std::move(target)) {}

  void Reset() override {
    emitted_.clear();
    match_ = 0;
  }

  const std::vector<uint8_t>& ValidActions() override {
    mask_.assign(4, 0);
    if (emitted_.size() < target_.size()) {
      mask_[0] = mask_[1] = mask_[2] = 1;
    } else {
      mask_[3] = 1;  // EOF
    }
    return mask_;
  }

  StatusOr<EnvStepResult> Step(int action) override {
    EnvStepResult r;
    if (action == 3) {
      r.reward = static_cast<double>(match_) / target_.size();
      r.done = true;
      r.executable = true;
      r.metric = r.reward;
      r.satisfied = match_ == static_cast<int>(target_.size());
    } else {
      const bool hit = action == target_[emitted_.size()];
      if (hit) ++match_;
      r.reward = hit ? 1.0 / target_.size() : 0.0;
      r.executable = true;
      r.metric = static_cast<double>(match_) / target_.size();
      emitted_.push_back(action);
    }
    return r;
  }

  QueryAst TakeAst() override { return QueryAst(); }
  int vocab_size() const override { return 4; }

 private:
  std::vector<int> target_;
  std::vector<int> emitted_;
  std::vector<uint8_t> mask_;
  int match_ = 0;
};

TrainerOptions FastOptions(uint64_t seed) {
  TrainerOptions o;
  o.batch_size = 8;
  o.seed = seed;
  o.actor_lr = 3e-3f;
  o.critic_lr = 9e-3f;
  o.net.hidden_dim = 16;
  o.net.num_layers = 1;
  o.net.dropout = 0.0f;
  return o;
}

TEST(ActorCriticTrainerTest, LearnsToySequence) {
  ToyEnv env({2, 0, 1});
  ActorCriticTrainer trainer(&env, FastOptions(5));
  double first = 0, last = 0;
  for (int e = 0; e < 150; ++e) {
    auto st = trainer.TrainEpoch();
    ASSERT_TRUE(st.ok());
    if (e == 0) first = st->mean_final_reward;
    last = st->mean_final_reward;
  }
  EXPECT_GT(last, first);
  EXPECT_GT(last, 0.7);  // near-perfect sequence reproduction
}

TEST(ActorCriticTrainerTest, GenerateUsesLearnedPolicy) {
  ToyEnv env({1, 1, 1});
  ActorCriticTrainer trainer(&env, FastOptions(6));
  for (int e = 0; e < 150; ++e) ASSERT_TRUE(trainer.TrainEpoch().ok());
  int satisfied = 0;
  for (int i = 0; i < 50; ++i) {
    auto t = trainer.Generate();
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t->completed);
    EXPECT_EQ(t->actions.size(), 4u);  // 3 symbols + EOF
    if (t->satisfied) ++satisfied;
  }
  EXPECT_GT(satisfied, 30);
}

TEST(ReinforceTrainerTest, LearnsToySequence) {
  ToyEnv env({0, 2, 1});
  ReinforceTrainer trainer(&env, FastOptions(7));
  double last = 0;
  for (int e = 0; e < 200; ++e) {
    auto st = trainer.TrainEpoch();
    ASSERT_TRUE(st.ok());
    last = st->mean_final_reward;
  }
  EXPECT_GT(last, 0.6);
}

TEST(TrainerComparisonTest, ActorCriticConvergesAtLeastAsWell) {
  // The paper's §7.3 claim in miniature: with the same budget the
  // actor-critic reaches a final reward no worse than REINFORCE (allowing
  // a small stochastic slack).
  double ac_sum = 0, rf_sum = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    ToyEnv env1({2, 1, 0}), env2({2, 1, 0});
    ActorCriticTrainer ac(&env1, FastOptions(seed));
    ReinforceTrainer rf(&env2, FastOptions(seed));
    double ac_last = 0, rf_last = 0;
    for (int e = 0; e < 120; ++e) {
      auto s1 = ac.TrainEpoch();
      auto s2 = rf.TrainEpoch();
      ASSERT_TRUE(s1.ok() && s2.ok());
      ac_last = s1->mean_final_reward;
      rf_last = s2->mean_final_reward;
    }
    ac_sum += ac_last;
    rf_sum += rf_last;
  }
  EXPECT_GT(ac_sum, rf_sum - 0.3);
}

// -------------------------------------------------------------- networks

TEST(PolicyNetworkTest, DistributionRespectsMask) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(5, o);
  auto ep = net.BeginEpisode(false);
  std::vector<uint8_t> mask = {1, 0, 1, 0, 0};
  const PolicyNetwork::CompactDistribution& d = net.NextDistribution(&ep, mask);
  EXPECT_EQ(d.idx, (std::vector<int>{0, 2}));
  ASSERT_EQ(d.probs.size(), 2u);
  EXPECT_NEAR(d.probs[0] + d.probs[1], 1.f, 1e-5);
}

TEST(PolicyNetworkTest, SamplingHonorsMask) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(6, o);
  Rng rng(3);
  auto ep = net.BeginEpisode(false);
  std::vector<uint8_t> mask = {0, 0, 1, 0, 1, 0};
  const PolicyNetwork::CompactDistribution& d = net.NextDistribution(&ep, mask);
  for (int i = 0; i < 200; ++i) {
    int a = net.SampleAction(d, &rng);
    EXPECT_TRUE(a == 2 || a == 4);
  }
}

TEST(PolicyNetworkTest, GreedyPicksArgmax) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(4, o);
  PolicyNetwork::CompactDistribution d;
  d.idx = {0, 1, 3};
  d.probs = {0.1f, 0.6f, 0.3f};
  EXPECT_EQ(net.GreedyAction(d), 1);
  d.probs = {0.2f, 0.3f, 0.5f};
  EXPECT_EQ(net.GreedyAction(d), 3);
}

TEST(PolicyNetworkTest, EntropyDiagnostic) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(4, o);
  auto ep = net.BeginEpisode(false);
  std::vector<uint8_t> mask = {1, 1, 1, 1};
  net.NextDistribution(&ep, mask);
  double h = PolicyNetwork::MeanEntropy(ep);
  EXPECT_GT(h, 0.0);
  EXPECT_LE(h, std::log(4.0) + 1e-6);
}

TEST(PolicyNetworkTest, GradientPushesTowardRewardedAction) {
  // One-step episode with positive advantage on action 2: after the update,
  // the probability of action 2 must rise.
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.dropout = 0.0f;
  PolicyNetwork net(4, o);
  Adam opt(net.Params(), 0.05f);
  std::vector<uint8_t> mask = {1, 1, 1, 1};
  float before;
  {
    auto ep = net.BeginEpisode(false);
    before = net.NextDistribution(&ep, mask).probs[2];
  }
  for (int iter = 0; iter < 5; ++iter) {
    std::vector<PolicyNetwork::Episode> eps(1, net.BeginEpisode(true));
    net.NextDistribution(&eps[0], mask);
    net.RecordAction(&eps[0], 2);
    net.AccumulateGradients(eps, {{1.0}}, 0.0);
    opt.Step();
  }
  auto ep = net.BeginEpisode(false);
  float after = net.NextDistribution(&ep, mask).probs[2];
  EXPECT_GT(after, before);
}

TEST(ValueNetworkTest, FitsConstantTarget) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.dropout = 0.0f;
  ValueNetwork net(4, o);
  Adam opt(net.Params(), 0.02f);
  // Train V(s0) toward 0.7 using the same input each time.
  float v = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<ValueNetwork::Episode> eps(1, net.BeginEpisode(true));
    v = net.StepValue(&eps[0], net.bos_index());
    net.AccumulateGradients(eps, {{v - 0.7}});
    opt.Step();
  }
  EXPECT_NEAR(v, 0.7f, 0.05f);
}

TEST(ValueNetworkTest, TracksInputs) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  ValueNetwork net(4, o);
  auto ep = net.BeginEpisode(false);
  net.StepValue(&ep, net.bos_index());
  net.StepValue(&ep, 1);
  EXPECT_EQ(ep.values.size(), 2u);
  EXPECT_EQ(ep.inputs.size(), 2u);
  EXPECT_EQ(ep.inputs[0], net.bos_index());
}

TEST(ExtraFeatureTest, AcExtendInputChangesDistribution) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.extra_input_dims = 2;
  o.dropout = 0.0f;
  PolicyNetwork net(4, o);
  std::vector<uint8_t> mask = {1, 1, 1, 1};
  auto ep1 = net.BeginEpisode(false);
  ep1.extra = {0.0f, 0.0f};
  auto p1 = net.NextDistribution(&ep1, mask).probs;
  auto ep2 = net.BeginEpisode(false);
  ep2.extra = {5.0f, -5.0f};
  auto p2 = net.NextDistribution(&ep2, mask).probs;
  double diff = 0;
  for (int i = 0; i < 4; ++i) diff += std::abs(p1[i] - p2[i]);
  EXPECT_GT(diff, 1e-4);
}

// ---------------------------------------------------------- batched BPTT

// The training update runs the episodes' backward passes side by side.
// Lanes differ in length (1 to 45 steps, so lanes finish at different time
// slices), dropout is on, and AC-extend's dense constraint tail feeds
// layer 0 in the extra_input_dims runs. Every parameter gradient must be
// bitwise what accumulating the same episodes one at a time, in order,
// gives: lane independence and the episode-major order of every sum.
const std::vector<int> kRaggedLengths = {1, 43, 7, 1, 45};

std::vector<uint32_t> GradBits(const std::vector<ParamTensor*>& params) {
  std::vector<uint32_t> out;
  for (const ParamTensor* p : params) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      uint32_t b;
      std::memcpy(&b, &p->grad.data()[i], sizeof(b));
      out.push_back(b);
    }
  }
  return out;
}

size_t NonZero(const std::vector<uint32_t>& bits) {
  size_t n = 0;
  for (uint32_t b : bits) n += (b << 1) != 0;
  return n;
}

NetworkOptions BpttOptions(int extra_dims) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 2;
  o.dropout = 0.3f;
  o.extra_input_dims = extra_dims;
  o.seed = 41;
  return o;
}

TEST(BatchedBpttTest, ActorLanesMatchOneAtATimeBitwise) {
  const int vocab = 12;
  for (int extra : {0, 2}) {
    PolicyNetwork batched(vocab, BpttOptions(extra));
    PolicyNetwork single(vocab, BpttOptions(extra));  // same init
    Rng rng(5);
    std::vector<PolicyNetwork::Episode> eps;
    std::vector<std::vector<double>> adv;
    int dropped = 0;
    for (int len : kRaggedLengths) {
      PolicyNetwork::Episode ep = batched.BeginEpisode(/*train=*/true);
      if (extra > 0) ep.extra = {0.5f, -1.25f};
      adv.emplace_back();
      for (int t = 0; t < len; ++t) {
        std::vector<uint8_t> mask(vocab, 0);
        for (uint8_t& m : mask) m = rng.Next() % 3 == 0;
        mask[rng.Next() % vocab] = 1;
        const auto& dist = batched.NextDistribution(&ep, mask);
        batched.RecordAction(&ep, batched.SampleAction(dist, &rng));
        adv.back().push_back(rng.Normal(0.0, 1.0));
        for (float m : ep.caches.back().dropout_mask[1]) dropped += m == 0.f;
      }
      eps.push_back(std::move(ep));
    }
    ASSERT_GT(dropped, 0);
    batched.AccumulateGradients(eps, adv, 0.01);
    for (size_t b = 0; b < eps.size(); ++b) {
      single.AccumulateGradients({eps[b]}, {adv[b]}, 0.01);
    }
    const std::vector<uint32_t> got = GradBits(batched.Params());
    EXPECT_GT(NonZero(got), got.size() / 4) << "extra=" << extra;
    EXPECT_EQ(got, GradBits(single.Params())) << "extra=" << extra;
  }
}

TEST(BatchedBpttTest, CriticLanesMatchOneAtATimeBitwise) {
  const int vocab = 12;
  for (int extra : {0, 2}) {
    ValueNetwork batched(vocab, BpttOptions(extra));
    ValueNetwork single(vocab, BpttOptions(extra));
    Rng rng(6);
    std::vector<ValueNetwork::Episode> eps;
    std::vector<std::vector<double>> dvalues;
    for (int len : kRaggedLengths) {
      ValueNetwork::Episode ep = batched.BeginEpisode(/*train=*/true);
      if (extra > 0) ep.extra = {2.0f, 0.75f};
      dvalues.emplace_back();
      int token = batched.bos_index();
      for (int t = 0; t < len; ++t) {
        batched.StepValue(&ep, token);
        token = static_cast<int>(rng.Next() % vocab);
        dvalues.back().push_back(rng.Normal(0.0, 1.0));
      }
      eps.push_back(std::move(ep));
    }
    batched.AccumulateGradients(eps, dvalues);
    for (size_t b = 0; b < eps.size(); ++b) {
      single.AccumulateGradients({eps[b]}, {dvalues[b]});
    }
    const std::vector<uint32_t> got = GradBits(batched.Params());
    EXPECT_GT(NonZero(got), got.size() / 4) << "extra=" << extra;
    EXPECT_EQ(got, GradBits(single.Params())) << "extra=" << extra;
  }
}

// ---------------------------------------------------------------- golden

// Exact EpochStats of every trainer on the toy environment, captured
// before the trainers' episode loops were merged into RolloutPolicy. Any
// change to RNG consumption or to the order of float operations in the
// rollout, advantage or update path changes these bits. Dropout is on and
// the stack has two layers so every per-network RNG stream is exercised;
// the AC-extend run covers the dense constraint-feature inputs.
uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void AppendStats(const EpochStats& s, std::vector<uint64_t>* out) {
  out->push_back(static_cast<uint64_t>(s.episodes));
  out->push_back(Bits(s.mean_total_reward));
  out->push_back(Bits(s.mean_final_reward));
  out->push_back(Bits(s.mean_entropy));
  out->push_back(Bits(s.satisfied_frac));
}

TrainerOptions GoldenOptions(uint64_t seed) {
  TrainerOptions o = FastOptions(seed);
  o.batch_size = 4;
  o.net.hidden_dim = 8;
  o.net.num_layers = 2;
  o.net.dropout = 0.3f;
  return o;
}

TEST(TrainerGoldenTest, EpochStatsBitsUnchanged) {
  std::vector<uint64_t> got;
  auto record = [&got](const StatusOr<EpochStats>& st) {
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    AppendStats(*st, &got);
  };
  auto record_generate = [&got](const StatusOr<Trajectory>& t) {
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    for (int a : t->actions) got.push_back(static_cast<uint64_t>(a));
  };
  {
    ToyEnv env({2, 0, 1});
    ActorCriticTrainer ac(&env, GoldenOptions(31));
    for (int e = 0; e < 3; ++e) record(ac.TrainEpoch());
    record_generate(ac.Generate());
    Rng rng(5);
    record_generate(ac.Generate(&rng));
  }
  {
    ToyEnv env({1, 2, 0});
    TrainerOptions o = GoldenOptions(32);
    o.net.extra_input_dims = 2;
    ActorCriticTrainer acx(&env, o);
    acx.set_extra_features({0.5f, -1.0f});
    for (int e = 0; e < 3; ++e) record(acx.TrainEpoch());
    record_generate(acx.Generate());
  }
  {
    ToyEnv env({0, 2, 1});
    ReinforceTrainer rf(&env, GoldenOptions(33));
    for (int e = 0; e < 3; ++e) record(rf.TrainEpoch());
    record_generate(rf.Generate());
  }
  {
    ToyEnv t1({2, 1, 0}), t2({0, 0, 1}), fresh({1, 0, 2});
    MetaCritic::Options mo;
    mo.hidden_dim = 8;
    mo.action_embed_dim = 4;
    mo.encoder_dim = 4;
    mo.fusion_dim = 8;
    MetaCriticTrainer meta({&t1, &t2}, GoldenOptions(34), mo);
    for (int e = 0; e < 3; ++e) record(meta.PretrainEpoch());
    auto adapted = meta.Adapt(&fresh, 3);
    ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();
    for (const EpochStats& st : *adapted) AppendStats(st, &got);
    record_generate(meta.GenerateWithAdapted(&fresh));
  }
  const std::vector<uint64_t> want = {
      // actor-critic: 3 epochs, Generate(), Generate(&rng)
      0x0000000000000004ULL, 0x3ff5555555555555ULL, 0x3fe5555555555555ULL,
      0x3fea5da531000000ULL, 0x3fd0000000000000ULL, 0x0000000000000004ULL,
      0x3fe0000000000000ULL, 0x3fd0000000000000ULL, 0x3fea5d95ae000000ULL,
      0x0000000000000000ULL, 0x0000000000000004ULL, 0x3fe5555555555555ULL,
      0x3fd5555555555555ULL, 0x3fea5d6d62000000ULL, 0x0000000000000000ULL,
      0x0000000000000001ULL, 0x0000000000000002ULL, 0x0000000000000000ULL,
      0x0000000000000003ULL, 0x0000000000000000ULL, 0x0000000000000001ULL,
      0x0000000000000001ULL, 0x0000000000000003ULL,
      // AC-extend: 3 epochs, Generate()
      0x0000000000000004ULL, 0x3fd5555555555555ULL, 0x3fc5555555555555ULL,
      0x3fea547a2e000000ULL, 0x0000000000000000ULL, 0x0000000000000004ULL,
      0x3fefffffffffffffULL, 0x3fdfffffffffffffULL, 0x3fea552482000000ULL,
      0x0000000000000000ULL, 0x0000000000000004ULL, 0x3fe0000000000000ULL,
      0x3fd0000000000000ULL, 0x3fea519251000000ULL, 0x0000000000000000ULL,
      0x0000000000000002ULL, 0x0000000000000000ULL, 0x0000000000000002ULL,
      0x0000000000000003ULL,
      // REINFORCE: 3 epochs, Generate()
      0x0000000000000004ULL, 0x3fe5555555555555ULL, 0x3fd5555555555555ULL,
      0x3fea5d29f6000000ULL, 0x0000000000000000ULL, 0x0000000000000004ULL,
      0x3fd5555555555555ULL, 0x3fc5555555555555ULL, 0x3fea5cc999000000ULL,
      0x0000000000000000ULL, 0x0000000000000004ULL, 0x3feaaaaaaaaaaaaaULL,
      0x3fdaaaaaaaaaaaaaULL, 0x3fea5d39cf000000ULL, 0x0000000000000000ULL,
      0x0000000000000001ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
      0x0000000000000003ULL,
      // meta-critic: 3 PretrainEpoch, Adapt(3), GenerateWithAdapted
      0x0000000000000008ULL, 0x3feaaaaaaaaaaaaaULL, 0x3fdaaaaaaaaaaaaaULL,
      0x3fea5bfe03800000ULL, 0x3fc0000000000000ULL, 0x0000000000000008ULL,
      0x3fe5555555555555ULL, 0x3fd5555555555555ULL, 0x3fea5ab6d4800000ULL,
      0x3fc0000000000000ULL, 0x0000000000000008ULL, 0x3fe5555555555555ULL,
      0x3fd5555555555555ULL, 0x3fea5a7699800000ULL, 0x0000000000000000ULL,
      0x0000000000000004ULL, 0x3feaaaaaaaaaaaaaULL, 0x3fdaaaaaaaaaaaaaULL,
      0x3fea5d1072000000ULL, 0x0000000000000000ULL, 0x0000000000000004ULL,
      0x3ff2aaaaaaaaaaaaULL, 0x3fe2aaaaaaaaaaaaULL, 0x3fea5d0ead000000ULL,
      0x0000000000000000ULL, 0x0000000000000004ULL, 0x3fe0000000000000ULL,
      0x3fd0000000000000ULL, 0x3fea5d0117000000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000002ULL, 0x0000000000000000ULL,
      0x0000000000000003ULL,
  };
  std::string dump;
  for (uint64_t v : got) dump += StrFormat("0x%016llxULL,\n",
                                          static_cast<unsigned long long>(v));
  EXPECT_EQ(got, want) << dump;
}

}  // namespace
}  // namespace lsg
