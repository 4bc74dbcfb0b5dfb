#include "nn/adam.h"

#include <cmath>

namespace lsg {

Adam::Adam(std::vector<ParamTensor*> params, float lr, float beta1,
           float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ParamTensor* p : params_) {
    m_.push_back(Matrix::Zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Matrix::Zeros(p->value.rows(), p->value.cols()));
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.f - std::pow(beta2_, static_cast<float>(t_));
  // Locals, not members: a store through m/v/w/g could alias a member, and
  // the reloads would keep the loop scalar. Built with the host's vector
  // ISA and no contraction (src/CMakeLists.txt), each lane computes the
  // same IEEE operations as the scalar expression.
  const float b1 = beta1_, b2 = beta2_, lr = lr_, eps = eps_;
  for (size_t i = 0; i < params_.size(); ++i) {
    ParamTensor* p = params_[i];
    float* w = p->value.data();
    float* g = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const size_t n = p->value.size();
    for (size_t k = 0; k < n; ++k) {
      m[k] = b1 * m[k] + (1.f - b1) * g[k];
      v[k] = b2 * v[k] + (1.f - b2) * g[k] * g[k];
      const float mhat = m[k] / bc1;
      const float vhat = v[k] / bc2;
      w[k] -= lr * mhat / (std::sqrt(vhat) + eps);
      g[k] = 0.f;
    }
  }
}

void Adam::ZeroGrad() {
  for (ParamTensor* p : params_) p->grad.Zero();
}

}  // namespace lsg
