#include "nn/matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace lsg {

Matrix Matrix::Randn(int rows, int cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  float stddev = std::sqrt(2.0f / static_cast<float>(rows + cols));
  return Randn(rows, cols, stddev, rng);
}

void MatVec(const Matrix& w, const float* x, float* y) {
  const int r = w.rows();
  const int c = w.cols();
  const float* wd = w.data();
  for (int i = 0; i < r; ++i) {
    float acc = 0.f;
    const float* row = wd + static_cast<size_t>(i) * c;
    for (int j = 0; j < c; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

void MatVecAccum(const Matrix& w, const float* x, float* y) {
  const int r = w.rows();
  const int c = w.cols();
  const float* wd = w.data();
  for (int i = 0; i < r; ++i) {
    float acc = 0.f;
    const float* row = wd + static_cast<size_t>(i) * c;
    for (int j = 0; j < c; ++j) acc += row[j] * x[j];
    y[i] += acc;
  }
}

namespace {

// Lanes per register tile. 16 floats span two AVX-512 / four SSE vectors;
// small enough that the accumulators stay in registers at -O2.
constexpr int kLaneBlock = 16;

// One row-major sweep over a lane tile [b0, b0+kWidth). For each output
// row the tile keeps kWidth independent accumulators and walks features in
// ascending-j order, so lane b's sum reassociates nothing relative to
// MatVec; the bb loop is stride-1 over the panel. kWidth is a template
// parameter on purpose: GCC's SLP vectorizer (on at -O2) only fires on
// constant-trip-count lane loops — a runtime `width` leaves the whole
// kernel scalar. GCC only emits FMA contractions when the target ISA has
// them, and the baseline x86-64 build (SSE2) does not, so vector mul+add
// keeps scalar rounding and the bitwise-oracle contract holds.
template <bool kAccum, int kWidth>
void MatMatTile(const float* wd, int rows, int cols, const float* x_panel,
                int batch, int b0, float* y_panel) {
  float acc[kWidth];
  for (int i = 0; i < rows; ++i) {
    const float* row = wd + static_cast<size_t>(i) * cols;
#pragma GCC unroll 16
    for (int bb = 0; bb < kWidth; ++bb) acc[bb] = 0.f;
    for (int j = 0; j < cols; ++j) {
      const float wj = row[j];
      const float* xs = x_panel + static_cast<size_t>(j) * batch + b0;
      // Fully unrolled so the kWidth accumulators live in vector registers
      // across the j sweep; a rolled bb loop makes GCC spill them to the
      // stack every iteration.
#pragma GCC unroll 16
      for (int bb = 0; bb < kWidth; ++bb) acc[bb] += wj * xs[bb];
    }
    float* ys = y_panel + static_cast<size_t>(i) * batch + b0;
    if (kAccum) {
#pragma GCC unroll 16
      for (int bb = 0; bb < kWidth; ++bb) ys[bb] += acc[bb];
    } else {
#pragma GCC unroll 16
      for (int bb = 0; bb < kWidth; ++bb) ys[bb] = acc[bb];
    }
  }
}

// Greedy power-of-two tiling: every lane lands in exactly one fixed-width
// tile, so its accumulation order is identical no matter how the batch
// splits (16+8+4+… vs one 16-tile vs MatVec).
template <bool kAccum>
void MatMatImpl(const Matrix& w, const float* x_panel, int batch,
                float* y_panel) {
  const float* wd = w.data();
  const int rows = w.rows();
  const int cols = w.cols();
  int b0 = 0;
  for (; b0 + kLaneBlock <= batch; b0 += kLaneBlock) {
    MatMatTile<kAccum, kLaneBlock>(wd, rows, cols, x_panel, batch, b0,
                                   y_panel);
  }
  if (b0 + 8 <= batch) {
    MatMatTile<kAccum, 8>(wd, rows, cols, x_panel, batch, b0, y_panel);
    b0 += 8;
  }
  if (b0 + 4 <= batch) {
    MatMatTile<kAccum, 4>(wd, rows, cols, x_panel, batch, b0, y_panel);
    b0 += 4;
  }
  if (b0 + 2 <= batch) {
    MatMatTile<kAccum, 2>(wd, rows, cols, x_panel, batch, b0, y_panel);
    b0 += 2;
  }
  if (b0 < batch) {
    MatMatTile<kAccum, 1>(wd, rows, cols, x_panel, batch, b0, y_panel);
  }
}

}  // namespace

void MatMat(const Matrix& w, const float* x_panel, int batch, float* y_panel) {
  LSG_CHECK(batch > 0);
  if (batch == 1) {
    MatVec(w, x_panel, y_panel);
    return;
  }
  MatMatImpl<false>(w, x_panel, batch, y_panel);
}

void MatMatAccum(const Matrix& w, const float* x_panel, int batch,
                 float* y_panel) {
  LSG_CHECK(batch > 0);
  if (batch == 1) {
    MatVecAccum(w, x_panel, y_panel);
    return;
  }
  MatMatImpl<true>(w, x_panel, batch, y_panel);
}

namespace {

// Where a dy entry is ±0 its product is replaced by +0 through a bit mask,
// which vectorizes where a branch or a select does not. Adding +0 leaves
// an accumulator that is not -0 unchanged, so this is a scalar loop's
// `if (dy == 0) continue;`, even where the other factor is non-finite and
// the product would be NaN.
inline uint32_t KeepMask(float dy) {
  return (std::bit_cast<uint32_t>(dy) << 1) != 0 ? ~0u : 0u;
}

inline float MaskedProduct(float a, float dy, uint32_t keep) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(a * dy) & keep);
}

// Register tile of MatTMatAccum: kJ output features x kW lanes, live
// across the ascending row sweep. The kJ independent add chains per lane
// hide the add latency; each lane's dy row slice is loaded once per row.
template <int kJ, int kW>
void MatTMatTile(const float* wd, int rows, int cols, int j0,
                 const float* dy, int batch, int b0, float* dx) {
  float acc[kJ][kW];
#pragma GCC unroll 4
  for (int jj = 0; jj < kJ; ++jj) {
    const float* xs = dx + static_cast<size_t>(j0 + jj) * batch + b0;
#pragma GCC unroll 16
    for (int bb = 0; bb < kW; ++bb) acc[jj][bb] = xs[bb];
  }
  for (int i = 0; i < rows; ++i) {
    const float* w = wd + static_cast<size_t>(i) * cols + j0;
    const float* gs = dy + static_cast<size_t>(i) * batch + b0;
    uint32_t keep[kW];
#pragma GCC unroll 16
    for (int bb = 0; bb < kW; ++bb) keep[bb] = KeepMask(gs[bb]);
#pragma GCC unroll 4
    for (int jj = 0; jj < kJ; ++jj) {
#pragma GCC unroll 16
      for (int bb = 0; bb < kW; ++bb) {
        acc[jj][bb] += MaskedProduct(w[jj], gs[bb], keep[bb]);
      }
    }
  }
#pragma GCC unroll 4
  for (int jj = 0; jj < kJ; ++jj) {
    float* xs = dx + static_cast<size_t>(j0 + jj) * batch + b0;
#pragma GCC unroll 16
    for (int bb = 0; bb < kW; ++bb) xs[bb] = acc[jj][bb];
  }
}

template <int kW>
void MatTMatLanes(const float* wd, int rows, int cols, const float* dy,
                  int batch, int b0, float* dx) {
  int j0 = 0;
  for (; j0 + 4 <= cols; j0 += 4) {
    MatTMatTile<4, kW>(wd, rows, cols, j0, dy, batch, b0, dx);
  }
  for (; j0 < cols; ++j0) {
    MatTMatTile<1, kW>(wd, rows, cols, j0, dy, batch, b0, dx);
  }
}

// Register tile of OuterAccumBatch: kI rows x kW columns, live across the
// k sweep; x_k's column slice is loaded once per k for all kI rows.
template <int kI, int kW>
void OuterAccumTile(float* wd, int cols, int i0, int j0, const float* dy_t,
                    const float* const* x, int n) {
  float acc[kI][kW];
#pragma GCC unroll 4
  for (int ii = 0; ii < kI; ++ii) {
    const float* row = wd + static_cast<size_t>(i0 + ii) * cols + j0;
#pragma GCC unroll 16
    for (int jj = 0; jj < kW; ++jj) acc[ii][jj] = row[jj];
  }
  for (int k = 0; k < n; ++k) {
    const float* xs = x[k] + j0;
#pragma GCC unroll 4
    for (int ii = 0; ii < kI; ++ii) {
      const float g = dy_t[static_cast<size_t>(i0 + ii) * n + k];
      const uint32_t keep = KeepMask(g);
#pragma GCC unroll 16
      for (int jj = 0; jj < kW; ++jj) {
        acc[ii][jj] += MaskedProduct(xs[jj], g, keep);
      }
    }
  }
#pragma GCC unroll 4
  for (int ii = 0; ii < kI; ++ii) {
    float* row = wd + static_cast<size_t>(i0 + ii) * cols + j0;
#pragma GCC unroll 16
    for (int jj = 0; jj < kW; ++jj) row[jj] = acc[ii][jj];
  }
}

template <int kI>
void OuterAccumRows(float* wd, int cols, int i0, const float* dy_t,
                    const float* const* x, int n) {
  int j0 = 0;
  for (; j0 + kLaneBlock <= cols; j0 += kLaneBlock) {
    OuterAccumTile<kI, kLaneBlock>(wd, cols, i0, j0, dy_t, x, n);
  }
  if (j0 + 8 <= cols) {
    OuterAccumTile<kI, 8>(wd, cols, i0, j0, dy_t, x, n);
    j0 += 8;
  }
  if (j0 + 4 <= cols) {
    OuterAccumTile<kI, 4>(wd, cols, i0, j0, dy_t, x, n);
    j0 += 4;
  }
  if (j0 + 2 <= cols) {
    OuterAccumTile<kI, 2>(wd, cols, i0, j0, dy_t, x, n);
    j0 += 2;
  }
  if (j0 < cols) OuterAccumTile<kI, 1>(wd, cols, i0, j0, dy_t, x, n);
}

}  // namespace

void MatTMatAccum(const Matrix& w, const float* dy_panel, int batch,
                  float* dx_panel) {
  const float* wd = w.data();
  const int rows = w.rows();
  const int cols = w.cols();
  // Eight-lane tiles (the default training batch is one), then single
  // lanes, whose four column chains still hide the add latency.
  int b0 = 0;
  for (; b0 + 8 <= batch; b0 += 8) {
    MatTMatLanes<8>(wd, rows, cols, dy_panel, batch, b0, dx_panel);
  }
  for (; b0 < batch; ++b0) {
    MatTMatLanes<1>(wd, rows, cols, dy_panel, batch, b0, dx_panel);
  }
}

void OuterAccumBatch(Matrix* dw, const float* dy_t, const float* const* x,
                     int n) {
  float* wd = dw->data();
  const int rows = dw->rows();
  const int cols = dw->cols();
  int i0 = 0;
  for (; i0 + 4 <= rows; i0 += 4) OuterAccumRows<4>(wd, cols, i0, dy_t, x, n);
  for (; i0 < rows; ++i0) OuterAccumRows<1>(wd, cols, i0, dy_t, x, n);
}

Status TryCompactSoftmaxInPlace(float* v, size_t n) {
  if (n == 0) return Status::Internal("masked softmax with empty mask");
  float mx = -1e30f;
  for (size_t i = 0; i < n; ++i) mx = std::max(mx, v[i]);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::exp(v[i] - mx);
    sum += v[i];
  }
  // An all--inf row makes mx = -inf, every exp(x - mx) NaN and the
  // partition sum NaN; a single -inf with mx finite can still underflow the
  // sum to zero. Either way dividing would poison the distribution, so the
  // caller gets a structured error instead of a crash.
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return Status::Internal("masked softmax with degenerate logits (sum=" +
                            std::to_string(sum) + ")");
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(v[i] / sum);
  }
  return Status::Ok();
}

void ParamSnapshot::Save(const std::vector<ParamTensor*>& params) {
  values_.clear();
  values_.reserve(params.size());
  for (const ParamTensor* p : params) values_.push_back(p->value);
}

bool ParamSnapshot::Restore(const std::vector<ParamTensor*>& params) const {
  if (values_.empty()) return false;
  LSG_CHECK(values_.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    LSG_CHECK(values_[i].size() == params[i]->value.size());
    params[i]->value = values_[i];
  }
  return true;
}

double ClipGradNorm(const std::vector<ParamTensor*>& params, double max_norm) {
  constexpr size_t kBlock = 16;
  double sq = 0.0;
  for (const ParamTensor* p : params) {
    const float* g = p->grad.data();
    const size_t n = p->grad.size();
    size_t i0 = 0;
    for (; i0 + kBlock <= n; i0 += kBlock) {
      uint32_t bits = 0;  // all but the sign: 0 only if every entry is ±0
#pragma GCC unroll 16
      for (size_t i = 0; i < kBlock; ++i) {
        bits |= std::bit_cast<uint32_t>(g[i0 + i]) << 1;
      }
      if (bits == 0) continue;
      for (size_t i = i0; i < i0 + kBlock; ++i) {
        sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
      }
    }
    for (size_t i = i0; i < n; ++i) {
      sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (ParamTensor* p : params) {
      float* g = p->grad.data();
      for (size_t i = 0; i < p->grad.size(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

}  // namespace lsg
