#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lsg {

namespace {
inline float Sigmoid(float x) { return 1.f / (1.f + std::exp(-x)); }
}  // namespace

LstmCell::LstmCell(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_("lstm.wx", Matrix::Xavier(4 * hidden_dim, input_dim, rng)),
      wh_("lstm.wh", Matrix::Xavier(4 * hidden_dim, hidden_dim, rng)),
      b_("lstm.b", Matrix::Zeros(4 * hidden_dim, 1)) {
  // Forget-gate bias init to 1: standard trick for stable early training.
  for (int i = hidden_dim; i < 2 * hidden_dim; ++i) b_.value.data()[i] = 1.f;
}

void LstmCell::Gates(const float* pre, Cache* cache) const {
  const int h = hidden_dim_;
  cache->i.resize(h);
  cache->f.resize(h);
  cache->g.resize(h);
  cache->o.resize(h);
  cache->c.resize(h);
  cache->h.resize(h);
  for (int k = 0; k < h; ++k) {
    cache->i[k] = Sigmoid(pre[k]);
    cache->f[k] = Sigmoid(pre[h + k]);
    cache->g[k] = std::tanh(pre[2 * h + k]);
    cache->o[k] = Sigmoid(pre[3 * h + k]);
    cache->c[k] = cache->f[k] * cache->c_prev[k] + cache->i[k] * cache->g[k];
    cache->h[k] = cache->o[k] * std::tanh(cache->c[k]);
  }
}

void LstmCell::Forward(const float* x, const float* h_prev,
                       const float* c_prev, Cache* cache) const {
  cache->onehot = -1;
  cache->x.assign(x, x + input_dim_);
  cache->h_prev.assign(h_prev, h_prev + hidden_dim_);
  cache->c_prev.assign(c_prev, c_prev + hidden_dim_);
  std::vector<float> pre(4 * hidden_dim_);
  MatVec(wx_.value, x, pre.data());
  MatVecAccum(wh_.value, h_prev, pre.data());
  const float* b = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) pre[k] += b[k];
  Gates(pre.data(), cache);
}

void LstmCell::ForwardOneHot(int idx, const float* h_prev, const float* c_prev,
                             Cache* cache) const {
  LSG_DCHECK(idx >= 0 && idx < input_dim_);
  cache->onehot = idx;
  cache->x.clear();
  cache->h_prev.assign(h_prev, h_prev + hidden_dim_);
  cache->c_prev.assign(c_prev, c_prev + hidden_dim_);
  std::vector<float> pre(4 * hidden_dim_);
  // Wx * e_idx = column idx of Wx.
  for (int k = 0; k < 4 * hidden_dim_; ++k) pre[k] = wx_.value.at(k, idx);
  MatVecAccum(wh_.value, h_prev, pre.data());
  const float* b = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) pre[k] += b[k];
  Gates(pre.data(), cache);
}

void LstmCell::GatesBatch(const float* pre, const float* c_prev, int batch,
                          float* h_out, float* c_out) const {
  const int h = hidden_dim_;
  for (int k = 0; k < h; ++k) {
    for (int b = 0; b < batch; ++b) {
      const float ig = Sigmoid(pre[static_cast<size_t>(k) * batch + b]);
      const float fg = Sigmoid(pre[static_cast<size_t>(h + k) * batch + b]);
      const float gg = std::tanh(pre[static_cast<size_t>(2 * h + k) * batch + b]);
      const float og = Sigmoid(pre[static_cast<size_t>(3 * h + k) * batch + b]);
      const float ck =
          fg * c_prev[static_cast<size_t>(k) * batch + b] + ig * gg;
      c_out[static_cast<size_t>(k) * batch + b] = ck;
      h_out[static_cast<size_t>(k) * batch + b] = og * std::tanh(ck);
    }
  }
}

void LstmCell::ForwardOneHotBatch(const int* idx, const float* h_prev,
                                  const float* c_prev, int batch, float* h_out,
                                  float* c_out) const {
  std::vector<float> pre(static_cast<size_t>(4 * hidden_dim_) * batch);
  // Column gathers of Wx, one per lane: Wx * e_idx[b].
  for (int k = 0; k < 4 * hidden_dim_; ++k) {
    float* ps = pre.data() + static_cast<size_t>(k) * batch;
    for (int b = 0; b < batch; ++b) {
      LSG_DCHECK(idx[b] >= 0 && idx[b] < input_dim_);
      ps[b] = wx_.value.at(k, idx[b]);
    }
  }
  MatMatAccum(wh_.value, h_prev, batch, pre.data());
  const float* bias = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) {
    float* ps = pre.data() + static_cast<size_t>(k) * batch;
    for (int b = 0; b < batch; ++b) ps[b] += bias[k];
  }
  GatesBatch(pre.data(), c_prev, batch, h_out, c_out);
}

void LstmCell::ForwardBatch(const float* x_panel, const float* h_prev,
                            const float* c_prev, int batch, float* h_out,
                            float* c_out) const {
  std::vector<float> pre(static_cast<size_t>(4 * hidden_dim_) * batch);
  MatMat(wx_.value, x_panel, batch, pre.data());
  MatMatAccum(wh_.value, h_prev, batch, pre.data());
  const float* bias = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) {
    float* ps = pre.data() + static_cast<size_t>(k) * batch;
    for (int b = 0; b < batch; ++b) ps[b] += bias[k];
  }
  GatesBatch(pre.data(), c_prev, batch, h_out, c_out);
}

void LstmCell::Backward(const Cache& cache, const float* dh, const float* dc,
                        float* dh_prev, float* dc_prev, float* dx_or_null) {
  const int h = hidden_dim_;
  std::vector<float> dpre(4 * h);
  std::copy(dc, dc + h, dc_prev);
  std::fill(dh_prev, dh_prev + h, 0.f);
  const Cache* c = &cache;
  // The one-hot input's gradient is never read (tokens are not learnable).
  BackwardBatch(&c, 1, dh, dc_prev, dpre.data(), dh_prev,
                cache.onehot >= 0 ? nullptr : dx_or_null);
  AccumulateParamGrads(dpre.data(), &c, 1);
}

void LstmCell::BackwardBatch(const Cache* const* caches, int batch,
                             const float* dh, float* dc, float* dpre,
                             float* dh_prev, float* dx_or_null) const {
  const int h = hidden_dim_;
  const size_t gate = static_cast<size_t>(h) * batch;  // one gate's rows
  std::fill(dpre, dpre + 4 * gate, 0.f);
  for (int b = 0; b < batch; ++b) {
    if (caches[b] == nullptr) continue;
    const Cache& cache = *caches[b];
    for (int k = 0; k < h; ++k) {
      const size_t at = static_cast<size_t>(k) * batch + b;
      const float tc = std::tanh(cache.c[k]);
      const float do_ = dh[at] * tc;
      const float dck = dc[at] + dh[at] * cache.o[k] * (1.f - tc * tc);
      const float di = dck * cache.g[k];
      const float df = dck * cache.c_prev[k];
      const float dg = dck * cache.i[k];
      dc[at] = dck * cache.f[k];
      dpre[at] = di * cache.i[k] * (1.f - cache.i[k]);
      dpre[at + gate] = df * cache.f[k] * (1.f - cache.f[k]);
      dpre[at + 2 * gate] = dg * (1.f - cache.g[k] * cache.g[k]);
      dpre[at + 3 * gate] = do_ * cache.o[k] * (1.f - cache.o[k]);
    }
  }
  MatTMatAccum(wh_.value, dpre, batch, dh_prev);
  if (dx_or_null != nullptr) MatTMatAccum(wx_.value, dpre, batch, dx_or_null);
}

void LstmCell::AccumulateParamGrads(const float* dpre_t,
                                    const Cache* const* caches, int n) {
  const int rows = 4 * hidden_dim_;
  if (caches[0]->onehot >= 0) {
    // Wx * e_idx touched one column: scatter each step's dpre into it.
    for (int k = 0; k < n; ++k) {
      LSG_DCHECK(caches[k]->onehot >= 0);
      for (int r = 0; r < rows; ++r) {
        wx_.grad.at(r, caches[k]->onehot) +=
            dpre_t[static_cast<size_t>(r) * n + k];
      }
    }
  } else {
    std::vector<const float*> x(n);
    for (int k = 0; k < n; ++k) x[k] = caches[k]->x.data();
    OuterAccumBatch(&wx_.grad, dpre_t, x.data(), n);
  }
  std::vector<const float*> h_prev(n);
  for (int k = 0; k < n; ++k) h_prev[k] = caches[k]->h_prev.data();
  OuterAccumBatch(&wh_.grad, dpre_t, h_prev.data(), n);
  float* db = b_.grad.data();
  for (int r = 0; r < rows; ++r) {
    const float* terms = dpre_t + static_cast<size_t>(r) * n;
    for (int k = 0; k < n; ++k) db[r] += terms[k];
  }
}

LstmStack::LstmStack(int input_dim, int hidden_dim, int num_layers,
                     float dropout, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), dropout_(dropout) {
  LSG_CHECK(num_layers >= 1);
  cells_.reserve(num_layers);
  cells_.emplace_back(input_dim, hidden_dim, rng);
  for (int l = 1; l < num_layers; ++l) {
    cells_.emplace_back(hidden_dim, hidden_dim, rng);
  }
}

LstmStack::State LstmStack::InitialState() const {
  State s;
  s.h.assign(cells_.size(), std::vector<float>(hidden_dim_, 0.f));
  s.c.assign(cells_.size(), std::vector<float>(hidden_dim_, 0.f));
  return s;
}

const std::vector<float>& LstmStack::Step(int onehot_idx, State* state,
                                          StepCache* cache, bool train,
                                          Rng* rng) {
  return StepImpl(onehot_idx, nullptr, state, cache, train, rng);
}

const std::vector<float>& LstmStack::StepDense(const float* x, State* state,
                                               StepCache* cache, bool train,
                                               Rng* rng) {
  return StepImpl(-1, x, state, cache, train, rng);
}

const std::vector<float>& LstmStack::StepImpl(int onehot_idx, const float* x0,
                                              State* state, StepCache* cache,
                                              bool train, Rng* rng) {
  StepCache local;
  StepCache* sc = cache != nullptr ? cache : &local;
  sc->layers.resize(cells_.size());
  sc->dropout_mask.assign(cells_.size(), {});

  std::vector<float> input;
  for (size_t l = 0; l < cells_.size(); ++l) {
    LstmCell::Cache& cc = sc->layers[l];
    if (l == 0) {
      if (x0 != nullptr) {
        cells_[0].Forward(x0, state->h[0].data(), state->c[0].data(), &cc);
      } else {
        cells_[0].ForwardOneHot(onehot_idx, state->h[0].data(),
                                state->c[0].data(), &cc);
      }
    } else {
      input = sc->layers[l - 1].h;
      if (train && dropout_ > 0.f) {
        std::vector<float>& mask = sc->dropout_mask[l];
        mask.resize(hidden_dim_);
        const float keep = 1.f - dropout_;
        for (int k = 0; k < hidden_dim_; ++k) {
          mask[k] = rng->Bernoulli(keep) ? 1.f / keep : 0.f;
          input[k] *= mask[k];
        }
      }
      cells_[l].Forward(input.data(), state->h[l].data(), state->c[l].data(),
                        &cc);
    }
    state->h[l] = cc.h;
    state->c[l] = cc.c;
  }
  return state->h.back();
}

void LstmStack::StepBatch(const int* tokens, State* const* states, int batch,
                          std::vector<float>* top_h_panel) const {
  LSG_CHECK(batch > 0);
  const int H = hidden_dim_;
  const size_t panel = static_cast<size_t>(H) * batch;
  std::vector<float> h_prev(panel);
  std::vector<float> c_prev(panel);
  std::vector<float> h_out(panel);
  std::vector<float> c_out(panel);
  std::vector<float> input;  // previous layer's h panel (no dropout: serving)
  for (size_t l = 0; l < cells_.size(); ++l) {
    for (int k = 0; k < H; ++k) {
      const size_t base = static_cast<size_t>(k) * batch;
      for (int b = 0; b < batch; ++b) {
        h_prev[base + b] = states[b]->h[l][k];
        c_prev[base + b] = states[b]->c[l][k];
      }
    }
    if (l == 0) {
      cells_[0].ForwardOneHotBatch(tokens, h_prev.data(), c_prev.data(), batch,
                                   h_out.data(), c_out.data());
    } else {
      cells_[l].ForwardBatch(input.data(), h_prev.data(), c_prev.data(), batch,
                             h_out.data(), c_out.data());
    }
    for (int k = 0; k < H; ++k) {
      const size_t base = static_cast<size_t>(k) * batch;
      for (int b = 0; b < batch; ++b) {
        states[b]->h[l][k] = h_out[base + b];
        states[b]->c[l][k] = c_out[base + b];
      }
    }
    input = h_out;
  }
  *top_h_panel = std::move(input);
}

void LstmStack::Backward(const std::vector<BpttLane>& lanes) {
  const int L = static_cast<int>(cells_.size());
  const int H = hidden_dim_;
  const int B = static_cast<int>(lanes.size());
  // Deferred weight-gradient terms: column offset[b] + s holds lane b's
  // slice s (step len[b]-1-s), so columns run episode-major in `lanes`
  // order, each episode from its last step to its first.
  std::vector<int> len(B), offset(B);
  int n = 0, slices = 0;
  for (int b = 0; b < B; ++b) {
    len[b] = static_cast<int>(lanes[b].caches->size());
    LSG_CHECK(lanes[b].dtop->size() == static_cast<size_t>(len[b]) * H);
    offset[b] = n;
    n += len[b];
    slices = std::max(slices, len[b]);
  }
  if (n == 0) return;
  std::vector<std::vector<float>> terms(
      L, std::vector<float>(static_cast<size_t>(4 * H) * n));
  std::vector<std::vector<const LstmCell::Cache*>> term_cache(
      L, std::vector<const LstmCell::Cache*>(n));

  // Feature-major lane panels: the gradient flowing back in time into each
  // layer's h and c, and this slice's scratch.
  const size_t panel = static_cast<size_t>(H) * B;
  std::vector<std::vector<float>> dh_time(L, std::vector<float>(panel, 0.f));
  std::vector<std::vector<float>> dc_time(L, std::vector<float>(panel, 0.f));
  std::vector<float> dh(panel), dx(panel), dpre(4 * panel);
  std::vector<const LstmCell::Cache*> slice(B);
  for (int s = 0; s < slices; ++s) {
    for (int l = L - 1; l >= 0; --l) {
      // Gradient into this layer's h at each unfinished lane's step.
      for (int b = 0; b < B; ++b) {
        slice[b] = nullptr;
        const int t = len[b] - 1 - s;
        if (t < 0) continue;
        const StepCache& sc = (*lanes[b].caches)[t];
        slice[b] = &sc.layers[l];
        for (int k = 0; k < H; ++k) {
          const size_t at = static_cast<size_t>(k) * B + b;
          dh[at] = dh_time[l][at];
          if (l == L - 1) {
            dh[at] += (*lanes[b].dtop)[static_cast<size_t>(t) * H + k];
          } else {
            // Input gradient of layer l+1 passes through its dropout mask.
            const std::vector<float>& mask = sc.dropout_mask[l + 1];
            float g = dx[at];
            if (!mask.empty()) g *= mask[k];
            dh[at] += g;
          }
          dh_time[l][at] = 0.f;
          if (l > 0) dx[at] = 0.f;
        }
      }
      cells_[l].BackwardBatch(slice.data(), B, dh.data(), dc_time[l].data(),
                              dpre.data(), dh_time[l].data(),
                              l > 0 ? dx.data() : nullptr);
      for (int b = 0; b < B; ++b) {
        if (slice[b] == nullptr) continue;
        const int col = offset[b] + s;
        term_cache[l][col] = slice[b];
        for (int r = 0; r < 4 * H; ++r) {
          terms[l][static_cast<size_t>(r) * n + col] =
              dpre[static_cast<size_t>(r) * B + b];
        }
      }
    }
  }
  for (int l = 0; l < L; ++l) {
    cells_[l].AccumulateParamGrads(terms[l].data(), term_cache[l].data(), n);
  }
}

std::vector<ParamTensor*> LstmStack::Params() {
  std::vector<ParamTensor*> out;
  for (LstmCell& c : cells_) {
    for (ParamTensor* p : c.Params()) out.push_back(p);
  }
  return out;
}

std::vector<const ParamTensor*> LstmStack::Params() const {
  std::vector<const ParamTensor*> out;
  for (const LstmCell& c : cells_) {
    for (const ParamTensor* p : c.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace lsg
