#include "rl/value_network.h"

#include "common/logging.h"

namespace lsg {

ValueNetwork::ValueNetwork(int vocab_size, const NetworkOptions& options)
    : vocab_size_(vocab_size),
      options_(options),
      rng_(options.seed + 0x5EED),
      lstm_(vocab_size + 1 + options.extra_input_dims, options.hidden_dim,
            options.num_layers, options.dropout, &rng_),
      head_(options.hidden_dim, 1, &rng_) {}

ValueNetwork::Episode ValueNetwork::BeginEpisode(bool train) const {
  Episode ep;
  ep.state = lstm_.InitialState();
  ep.train = train;
  return ep;
}

float ValueNetwork::StepValue(Episode* ep, int input_token) {
  LstmStack::StepCache* cache = nullptr;
  if (ep->train) {
    ep->caches.emplace_back();
    cache = &ep->caches.back();
  }
  const std::vector<float>* top;
  if (options_.extra_input_dims > 0) {
    std::vector<float> x(vocab_size_ + 1 + options_.extra_input_dims, 0.f);
    x[input_token] = 1.f;
    for (int i = 0; i < options_.extra_input_dims &&
                    i < static_cast<int>(ep->extra.size()); ++i) {
      x[vocab_size_ + 1 + i] = ep->extra[i];
    }
    top = &lstm_.StepDense(x.data(), &ep->state, cache, ep->train, &rng_);
  } else {
    top = &lstm_.Step(input_token, &ep->state, cache, ep->train, &rng_);
  }
  float v = 0.f;
  head_.Forward(top->data(), &v);
  ep->values.push_back(v);
  ep->inputs.push_back(input_token);
  return v;
}

void ValueNetwork::AccumulateGradients(
    const std::vector<Episode>& episodes,
    const std::vector<std::vector<double>>& dvalues) {
  LSG_CHECK(dvalues.size() == episodes.size());
  const int H = options_.hidden_dim;
  std::vector<std::vector<float>> dtop(episodes.size());
  std::vector<LstmStack::BpttLane> lanes;
  for (size_t b = 0; b < episodes.size(); ++b) {
    const Episode& ep = episodes[b];
    LSG_CHECK(ep.train);
    const size_t T = ep.values.size();
    LSG_CHECK(dvalues[b].size() == T && ep.caches.size() == T);
    dtop[b].assign(T * H, 0.f);
    for (size_t t = 0; t < T; ++t) {
      float dv = static_cast<float>(dvalues[b][t]);
      const std::vector<float>& top_h = ep.caches[t].layers.back().h;
      head_.Backward(top_h.data(), &dv, dtop[b].data() + t * H);
    }
    lanes.push_back({&ep.caches, &dtop[b]});
  }
  lstm_.Backward(lanes);
}

std::vector<ParamTensor*> ValueNetwork::Params() {
  std::vector<ParamTensor*> out = lstm_.Params();
  for (ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

}  // namespace lsg
