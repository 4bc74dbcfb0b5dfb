#include "rl/policy_network.h"

#include <cmath>

#include "common/logging.h"

namespace lsg {

PolicyNetwork::PolicyNetwork(int vocab_size, const NetworkOptions& options)
    : vocab_size_(vocab_size),
      options_(options),
      rng_(options.seed),
      lstm_(vocab_size + 1 + options.extra_input_dims, options.hidden_dim,
            options.num_layers, options.dropout, &rng_),
      head_(options.hidden_dim, vocab_size, &rng_) {}

PolicyNetwork::Episode PolicyNetwork::BeginEpisode(bool train) const {
  Episode ep;
  ep.state = lstm_.InitialState();
  ep.train = train;
  return ep;
}

const PolicyNetwork::CompactDistribution& PolicyNetwork::NextDistribution(
    Episode* ep, const std::vector<uint8_t>& mask) {
  const CompactDistribution* out = nullptr;
  Status st = TryNextDistribution(ep, mask, &out);
  LSG_CHECK(st.ok()) << st.ToString();
  return *out;
}

Status PolicyNetwork::TryNextDistribution(Episode* ep,
                                          const std::vector<uint8_t>& mask,
                                          const CompactDistribution** out) {
  const int prev =
      ep->actions.empty() ? bos_index() : ep->actions.back();
  LstmStack::StepCache* cache = nullptr;
  if (ep->train) {
    ep->caches.emplace_back();
    cache = &ep->caches.back();
  }
  const std::vector<float>* top;
  if (options_.extra_input_dims > 0) {
    // Dense input: one-hot + constraint feature tail.
    std::vector<float> x(vocab_size_ + 1 + options_.extra_input_dims, 0.f);
    x[prev] = 1.f;
    for (int i = 0; i < options_.extra_input_dims &&
                    i < static_cast<int>(ep->extra.size()); ++i) {
      x[vocab_size_ + 1 + i] = ep->extra[i];
    }
    top = &lstm_.StepDense(x.data(), &ep->state, cache, ep->train, &rng_);
  } else {
    top = &lstm_.Step(prev, &ep->state, cache, ep->train, &rng_);
  }
  LSG_CHECK(static_cast<int>(mask.size()) == vocab_size_);
  CompactDistribution& d = ep->dists.emplace_back();
  for (int i = 0; i < vocab_size_; ++i) {
    if (mask[i]) d.idx.push_back(i);
  }
  d.probs.resize(d.idx.size());
  head_.ForwardRows(top->data(), 1, d.idx.data(),
                    static_cast<int>(d.idx.size()), d.probs.data());
  LSG_RETURN_IF_ERROR(
      TryCompactSoftmaxInPlace(d.probs.data(), d.probs.size()));
  *out = &d;
  return Status::Ok();
}

void PolicyNetwork::NextDistributionBatch(
    Episode* const* lanes, const std::vector<uint8_t>* const* masks, int batch,
    CompactDistribution* dists, Status* statuses) const {
  LSG_CHECK(options_.extra_input_dims == 0)
      << "batched decode supports the standard one-hot model only";
  std::vector<int> tokens(batch);
  std::vector<LstmStack::State*> states(batch);
  for (int b = 0; b < batch; ++b) {
    LSG_CHECK(!lanes[b]->train);
    tokens[b] =
        lanes[b]->actions.empty() ? bos_index() : lanes[b]->actions.back();
    states[b] = &lanes[b]->state;
  }
  std::vector<float> top_panel;
  lstm_.StepBatch(tokens.data(), states.data(), batch, &top_panel);
  // The FSM admits only a handful of tokens per step (mean mask width ~9
  // of ~2800 on the paper workloads), so the head projects just each
  // lane's masked rows — identical per-row dot products against the
  // lane's panel column — and the softmax runs on the compacted support.
  // Eval episodes never materialize the full distribution: nothing replays
  // their history the way AccumulateGradients replays train episodes, and
  // sampling only needs the masked entries.
  for (int b = 0; b < batch; ++b) {
    CompactDistribution& d = dists[b];
    const std::vector<uint8_t>& mask = *masks[b];
    LSG_CHECK(static_cast<int>(mask.size()) == vocab_size_);
    d.idx.clear();
    for (int i = 0; i < vocab_size_; ++i) {
      if (mask[i]) d.idx.push_back(i);
    }
    if (d.idx.empty()) {
      statuses[b] = Status::Internal("masked softmax with empty mask");
      continue;
    }
    d.probs.resize(d.idx.size());
    head_.ForwardRows(top_panel.data() + b, batch, d.idx.data(),
                      static_cast<int>(d.idx.size()), d.probs.data());
    statuses[b] = TryCompactSoftmaxInPlace(d.probs.data(), d.probs.size());
  }
}

int PolicyNetwork::SampleAction(const CompactDistribution& d,
                                Rng* rng) const {
  size_t k = rng->Categorical(d.probs.data(), d.probs.size());
  if (k >= d.probs.size()) {
    // All-zero guard (unreachable after a successful softmax).
    return GreedyAction(d);
  }
  return d.idx[k];
}

int PolicyNetwork::GreedyAction(const CompactDistribution& d) const {
  size_t best = 0;
  for (size_t i = 1; i < d.probs.size(); ++i) {
    if (d.probs[i] > d.probs[best]) best = i;
  }
  return d.idx[best];
}

void PolicyNetwork::AccumulateGradients(
    const std::vector<Episode>& episodes,
    const std::vector<std::vector<double>>& advantages, double entropy_coef) {
  LSG_CHECK(advantages.size() == episodes.size());
  const int H = options_.hidden_dim;
  std::vector<std::vector<float>> dtop(episodes.size());
  std::vector<LstmStack::BpttLane> lanes;
  std::vector<float> dlogits;
  for (size_t b = 0; b < episodes.size(); ++b) {
    const Episode& ep = episodes[b];
    LSG_CHECK(ep.train);
    const size_t T = ep.actions.size();
    LSG_CHECK(advantages[b].size() == T);
    LSG_CHECK(ep.caches.size() == T && ep.dists.size() == T);
    dtop[b].assign(T * H, 0.f);
    for (size_t t = 0; t < T; ++t) {
      const CompactDistribution& d = ep.dists[t];
      const int a = ep.actions[t];
      const float adv = static_cast<float>(advantages[b][t]);

      // Entropy of the masked distribution.
      float entropy = 0.f;
      for (float p : d.probs) {
        if (p > 0.f) entropy -= p * std::log(p);
      }

      // dL/dz_i for L = -(A log π(a) + λ H), on the support only: every
      // masked-out logit's gradient is zero.
      dlogits.resize(d.idx.size());
      for (size_t k = 0; k < d.idx.size(); ++k) {
        const float p = d.probs[k];
        float g = adv * (p - (d.idx[k] == a ? 1.f : 0.f));
        if (entropy_coef > 0.0 && p > 0.f) {
          g += static_cast<float>(entropy_coef) * p * (std::log(p) + entropy);
        }
        dlogits[k] = g;
      }
      const std::vector<float>& top_h = ep.caches[t].layers.back().h;
      head_.BackwardRows(top_h.data(), d.idx.data(),
                         static_cast<int>(d.idx.size()), dlogits.data(),
                         dtop[b].data() + t * H);
    }
    lanes.push_back({&ep.caches, &dtop[b]});
  }
  lstm_.Backward(lanes);
}

double PolicyNetwork::MeanEntropy(const Episode& ep) {
  if (ep.dists.empty()) return 0.0;
  double total = 0.0;
  for (const CompactDistribution& d : ep.dists) {
    double h = 0.0;
    for (float x : d.probs) {
      if (x > 0.f) h -= x * std::log(x);
    }
    total += h;
  }
  return total / static_cast<double>(ep.dists.size());
}

std::vector<ParamTensor*> PolicyNetwork::Params() {
  std::vector<ParamTensor*> out = lstm_.Params();
  for (ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<const ParamTensor*> PolicyNetwork::Params() const {
  std::vector<const ParamTensor*> out = lstm_.Params();
  for (const ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

}  // namespace lsg
