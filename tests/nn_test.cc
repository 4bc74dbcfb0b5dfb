#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "nn/adam.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "nn/serialize.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- matrix

TEST(MatrixTest, ZerosAndShape) {
  Matrix m = Matrix::Zeros(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.f);
}

TEST(MatrixTest, RandnStatistics) {
  Rng rng(5);
  Matrix m = Matrix::Randn(50, 50, 0.5f, &rng);
  double sum = 0, sq = 0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sq += m.data()[i] * m.data()[i];
  }
  double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sq / n), 0.5, 0.03);
}

TEST(MatrixTest, MatVec) {
  Matrix w(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  for (int i = 0; i < 6; ++i) w.data()[i] = static_cast<float>(i + 1);
  float x[3] = {1, 1, 1};
  float y[2];
  MatVec(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 6.f);
  EXPECT_FLOAT_EQ(y[1], 15.f);
  MatVecAccum(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.f);
}

TEST(MatrixTest, MatTMatAccumOneLane) {
  Matrix w(2, 3);
  for (int i = 0; i < 6; ++i) w.data()[i] = static_cast<float>(i + 1);
  float dy[2] = {1, 1};
  float dx[3] = {0, 0, 0};
  MatTMatAccum(w, dy, 1, dx);
  EXPECT_FLOAT_EQ(dx[0], 5.f);   // 1+4
  EXPECT_FLOAT_EQ(dx[1], 7.f);   // 2+5
  EXPECT_FLOAT_EQ(dx[2], 9.f);   // 3+6
}

TEST(MatrixTest, OuterAccumBatchOneTerm) {
  Matrix dw = Matrix::Zeros(2, 2);
  float dy[2] = {1, 2};
  float x[2] = {3, 4};
  const float* xs = x;
  OuterAccumBatch(&dw, dy, &xs, 1);
  EXPECT_FLOAT_EQ(dw.at(0, 0), 3.f);
  EXPECT_FLOAT_EQ(dw.at(0, 1), 4.f);
  EXPECT_FLOAT_EQ(dw.at(1, 0), 6.f);
  EXPECT_FLOAT_EQ(dw.at(1, 1), 8.f);
}

TEST(SoftmaxTest, SumsToOne) {
  std::vector<float> v = {1.f, 2.f, 3.f};
  ASSERT_TRUE(TryCompactSoftmaxInPlace(v.data(), v.size()).ok());
  float sum = v[0] + v[1] + v[2];
  EXPECT_NEAR(sum, 1.f, 1e-6);
  EXPECT_GT(v[2], v[1]);
  EXPECT_GT(v[1], v[0]);
}

TEST(SoftmaxTest, StableWithLargeLogits) {
  std::vector<float> v = {1000.f, 1001.f};
  ASSERT_TRUE(TryCompactSoftmaxInPlace(v.data(), v.size()).ok());
  EXPECT_NEAR(v[0] + v[1], 1.f, 1e-6);
  EXPECT_FALSE(std::isnan(v[0]));
}

// Full-row masked softmax: the reference for TryCompactSoftmaxInPlace,
// which runs the same max / exp / partition-sum / divide sequence over the
// masked entries alone. Masked-out entries come back as exact zeros.
Status ReferenceMaskedSoftmax(std::vector<float>* v,
                              const std::vector<uint8_t>& mask) {
  float mx = -1e30f;
  bool any = false;
  for (size_t i = 0; i < v->size(); ++i) {
    if (mask[i]) {
      mx = std::max(mx, (*v)[i]);
      any = true;
    }
  }
  if (!any) return Status::Internal("masked softmax with empty mask");
  double sum = 0.0;
  for (size_t i = 0; i < v->size(); ++i) {
    if (mask[i]) {
      (*v)[i] = std::exp((*v)[i] - mx);
      sum += (*v)[i];
    } else {
      (*v)[i] = 0.f;
    }
  }
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return Status::Internal("masked softmax with degenerate logits");
  }
  for (size_t i = 0; i < v->size(); ++i) {
    (*v)[i] = static_cast<float>((*v)[i] / sum);
  }
  return Status::Ok();
}

// The masked entries of `v`, in ascending index order.
std::vector<float> Compact(const std::vector<float>& v,
                           const std::vector<uint8_t>& mask) {
  std::vector<float> out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (mask[i]) out.push_back(v[i]);
  }
  return out;
}

TEST(MaskedSoftmaxTest, MaskedEntriesZero) {
  std::vector<float> v = {5.f, 1.f, 2.f, 3.f};
  std::vector<uint8_t> mask = {0, 1, 1, 0};
  std::vector<float> compact = Compact(v, mask);
  ASSERT_TRUE(ReferenceMaskedSoftmax(&v, mask).ok());
  EXPECT_FLOAT_EQ(v[0], 0.f);
  EXPECT_FLOAT_EQ(v[3], 0.f);
  EXPECT_NEAR(v[1] + v[2], 1.f, 1e-6);
  EXPECT_GT(v[2], v[1]);
  ASSERT_TRUE(TryCompactSoftmaxInPlace(compact.data(), compact.size()).ok());
  EXPECT_EQ(compact, Compact(v, mask));
}

TEST(MaskedSoftmaxTest, AllNegInfMaskedRowIsStructuredError) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {-inf, -inf, -inf};
  std::vector<uint8_t> mask = {1, 1, 0};
  std::vector<float> compact = Compact(v, mask);
  Status st = ReferenceMaskedSoftmax(&v, mask);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  st = TryCompactSoftmaxInPlace(compact.data(), compact.size());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(MaskedSoftmaxTest, EmptyMaskIsStructuredError) {
  std::vector<float> v = {1.f, 2.f};
  std::vector<uint8_t> mask = {0, 0};
  Status st = ReferenceMaskedSoftmax(&v, mask);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  st = TryCompactSoftmaxInPlace(v.data(), 0);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(MaskedSoftmaxTest, CompactMatchesFullRowReferenceBitwise) {
  Rng rng(101);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = 1 + static_cast<int>(rng.Next() % 9);
    std::vector<float> logits(n);
    std::vector<uint8_t> mask(n, 0);
    bool any = false;
    for (int i = 0; i < n; ++i) {
      logits[i] = static_cast<float>(rng.Normal(0.0, 3.0));
      mask[i] = static_cast<uint8_t>(rng.Next() % 2);
      any = any || mask[i];
    }
    if (!any) mask[0] = 1;
    std::vector<float> full = logits;
    std::vector<float> compact = Compact(logits, mask);
    ASSERT_TRUE(ReferenceMaskedSoftmax(&full, mask).ok());
    ASSERT_TRUE(TryCompactSoftmaxInPlace(compact.data(), compact.size()).ok());
    const std::vector<float> want = Compact(full, mask);
    ASSERT_EQ(compact.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(std::memcmp(&compact[k], &want[k], sizeof(float)), 0)
          << "iter " << iter << " entry " << k;
    }
  }
}

// ------------------------------------------------------- batched GEMM

// Differential oracle for the blocked MatMat path: random ragged shapes,
// every lane compared bitwise against a row-by-row MatVec over the same
// vector. Any reassociation or contraction in the batched kernel fails
// this with exact-equality diffs.
TEST(MatMatTest, MatchesMatVecBitwiseAcrossRaggedShapes) {
  Rng rng(4242);
  const int batches[] = {1, 2, 3, 16, 17};
  const int rows_set[] = {1, 3, 7, 29, 120};
  const int cols_set[] = {1, 5, 13, 30, 61};
  for (int batch : batches) {
    for (int rows : rows_set) {
      for (int cols : cols_set) {
        Matrix w = Matrix::Randn(rows, cols, 1.f, &rng);
        // Feature-major panel: x_panel[j * batch + b].
        std::vector<float> x_panel(static_cast<size_t>(cols) * batch);
        for (float& v : x_panel) v = static_cast<float>(rng.Normal(0.0, 2.0));
        std::vector<float> y_panel(static_cast<size_t>(rows) * batch, -7.f);
        MatMat(w, x_panel.data(), batch, y_panel.data());

        std::vector<float> x(cols);
        std::vector<float> y(rows);
        for (int b = 0; b < batch; ++b) {
          for (int j = 0; j < cols; ++j) x[j] = x_panel[j * batch + b];
          MatVec(w, x.data(), y.data());
          for (int i = 0; i < rows; ++i) {
            ASSERT_EQ(y[i], y_panel[static_cast<size_t>(i) * batch + b])
                << "B=" << batch << " r=" << rows << " c=" << cols
                << " lane=" << b << " row=" << i;
          }
        }
      }
    }
  }
}

TEST(MatMatTest, AccumMatchesMatVecAccumBitwise) {
  Rng rng(777);
  const int batches[] = {1, 2, 3, 16, 17};
  for (int batch : batches) {
    const int rows = 31, cols = 17;
    Matrix w = Matrix::Randn(rows, cols, 1.f, &rng);
    std::vector<float> x_panel(static_cast<size_t>(cols) * batch);
    for (float& v : x_panel) v = static_cast<float>(rng.Normal(0.0, 1.0));
    std::vector<float> y_panel(static_cast<size_t>(rows) * batch);
    for (float& v : y_panel) v = static_cast<float>(rng.Normal(0.0, 1.0));
    std::vector<float> y_ref_panel = y_panel;
    MatMatAccum(w, x_panel.data(), batch, y_panel.data());

    std::vector<float> x(cols);
    std::vector<float> y(rows);
    for (int b = 0; b < batch; ++b) {
      for (int j = 0; j < cols; ++j) x[j] = x_panel[j * batch + b];
      for (int i = 0; i < rows; ++i) {
        y[i] = y_ref_panel[static_cast<size_t>(i) * batch + b];
      }
      MatVecAccum(w, x.data(), y.data());
      for (int i = 0; i < rows; ++i) {
        ASSERT_EQ(y[i], y_panel[static_cast<size_t>(i) * batch + b])
            << "B=" << batch << " lane=" << b << " row=" << i;
      }
    }
  }
}

TEST(LinearRowsTest, ForwardRowsMatchesForwardBitwise) {
  Rng rng(55);
  Linear lin(13, 9, &rng);
  const int batch = 5;
  std::vector<float> x_panel(13 * batch);
  for (float& v : x_panel) v = static_cast<float>(rng.Normal(0.0, 1.0));
  const std::vector<int> rows = {0, 3, 4, 8};
  std::vector<float> x(13), y(9), y_rows(rows.size());
  for (int b = 0; b < batch; ++b) {
    for (int j = 0; j < 13; ++j) x[j] = x_panel[j * batch + b];
    lin.Forward(x.data(), y.data());
    // A panel column (stride batch) and the extracted vector (stride 1).
    const std::pair<const float*, int> inputs[] = {
        {x_panel.data() + b, batch}, {x.data(), 1}};
    for (const auto& [xs, stride] : inputs) {
      lin.ForwardRows(xs, stride, rows.data(), static_cast<int>(rows.size()),
                      y_rows.data());
      for (size_t k = 0; k < rows.size(); ++k) {
        ASSERT_EQ(y[rows[k]], y_rows[k]) << "lane " << b << " row " << k;
      }
    }
  }
}

TEST(LstmStackBatchTest, StepBatchMatchesSequentialStepsBitwise) {
  Rng rng(91);
  const int vocab = 11, hid = 6, layers = 2;
  LstmStack stack(vocab, hid, layers, /*dropout=*/0.3f, &rng);
  Rng dummy(0);
  const int batch = 5;
  const int steps = 12;
  Rng tok_rng(2026);

  // Sequential reference: each lane advanced alone through Step().
  std::vector<LstmStack::State> seq(batch, stack.InitialState());
  // Batched: same initial states through StepBatch().
  std::vector<LstmStack::State> bat(batch, stack.InitialState());
  std::vector<LstmStack::State*> bat_ptrs(batch);
  for (int b = 0; b < batch; ++b) bat_ptrs[b] = &bat[b];

  std::vector<int> tokens(batch);
  std::vector<float> top_panel;
  for (int t = 0; t < steps; ++t) {
    for (int b = 0; b < batch; ++b) {
      tokens[b] = static_cast<int>(tok_rng.Next() % vocab);
    }
    std::vector<std::vector<float>> seq_top(batch);
    for (int b = 0; b < batch; ++b) {
      seq_top[b] = stack.Step(tokens[b], &seq[b], nullptr, false, &dummy);
    }
    stack.StepBatch(tokens.data(), bat_ptrs.data(), batch, &top_panel);
    for (int b = 0; b < batch; ++b) {
      for (int l = 0; l < layers; ++l) {
        for (int k = 0; k < hid; ++k) {
          ASSERT_EQ(seq[b].h[l][k], bat[b].h[l][k])
              << "t=" << t << " lane=" << b << " layer=" << l;
          ASSERT_EQ(seq[b].c[l][k], bat[b].c[l][k])
              << "t=" << t << " lane=" << b << " layer=" << l;
        }
      }
      for (int k = 0; k < hid; ++k) {
        ASSERT_EQ(seq_top[b][k], top_panel[static_cast<size_t>(k) * batch + b]);
      }
    }
  }
}

TEST(ClipGradNormTest, RescalesAboveThreshold) {
  ParamTensor p("p", Matrix::Zeros(1, 4));
  for (int i = 0; i < 4; ++i) p.grad.data()[i] = 3.f;  // norm 6
  double norm = ClipGradNorm({&p}, 3.0);
  EXPECT_NEAR(norm, 6.0, 1e-5);
  double after = 0;
  for (int i = 0; i < 4; ++i) after += p.grad.data()[i] * p.grad.data()[i];
  EXPECT_NEAR(std::sqrt(after), 3.0, 1e-5);
}

TEST(ClipGradNormTest, NoRescaleBelowThreshold) {
  ParamTensor p("p", Matrix::Zeros(1, 2));
  p.grad.data()[0] = 1.f;
  ClipGradNorm({&p}, 10.0);
  EXPECT_FLOAT_EQ(p.grad.data()[0], 1.f);
}

// ------------------------------------------------- numerical gradients

/// Central-difference gradient of `loss` w.r.t. one parameter entry.
template <typename LossFn>
double NumericalGrad(float* entry, double eps, const LossFn& loss) {
  float orig = *entry;
  *entry = static_cast<float>(orig + eps);
  double up = loss();
  *entry = static_cast<float>(orig - eps);
  double down = loss();
  *entry = orig;
  return (up - down) / (2.0 * eps);
}

TEST(LinearGradientTest, MatchesNumerical) {
  Rng rng(11);
  Linear lin(4, 3, &rng);
  std::vector<float> x = {0.5f, -1.0f, 0.25f, 2.0f};
  std::vector<float> c = {1.0f, -2.0f, 0.5f};  // loss = dot(y, c)

  auto loss = [&]() {
    float y[3];
    lin.Forward(x.data(), y);
    return static_cast<double>(y[0] * c[0] + y[1] * c[1] + y[2] * c[2]);
  };

  std::vector<float> dx(4, 0.f);
  lin.Backward(x.data(), c.data(), dx.data());

  auto params = lin.Params();
  for (ParamTensor* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      double num = NumericalGrad(&p->value.data()[i], 1e-3, loss);
      EXPECT_NEAR(p->grad.data()[i], num, 5e-3)
          << p->name << "[" << i << "]";
    }
  }
  // Input gradient = W^T c; check numerically too.
  for (int i = 0; i < 4; ++i) {
    double num = NumericalGrad(&x[i], 1e-3, loss);
    EXPECT_NEAR(dx[i], num, 5e-3);
  }
}

TEST(LstmCellGradientTest, MatchesNumerical) {
  Rng rng(13);
  const int in = 3, hid = 4;
  LstmCell cell(in, hid, &rng);
  std::vector<float> x = {0.3f, -0.7f, 1.1f};
  std::vector<float> h0 = {0.1f, -0.2f, 0.05f, 0.4f};
  std::vector<float> c0 = {0.2f, 0.1f, -0.3f, 0.0f};
  std::vector<float> ch = {1.f, -1.f, 0.5f, 2.f};
  std::vector<float> cc = {0.3f, 0.7f, -0.2f, 1.f};

  auto loss = [&]() {
    LstmCell::Cache cache;
    cell.Forward(x.data(), h0.data(), c0.data(), &cache);
    double l = 0;
    for (int k = 0; k < hid; ++k) {
      l += cache.h[k] * ch[k] + cache.c[k] * cc[k];
    }
    return l;
  };

  LstmCell::Cache cache;
  cell.Forward(x.data(), h0.data(), c0.data(), &cache);
  std::vector<float> dh_prev(hid), dc_prev(hid), dx(in, 0.f);
  cell.Backward(cache, ch.data(), cc.data(), dh_prev.data(), dc_prev.data(),
                dx.data());

  for (ParamTensor* p : cell.Params()) {
    // Sample entries to keep the test fast while covering all tensors.
    for (size_t i = 0; i < p->value.size(); i += 3) {
      double num = NumericalGrad(&p->value.data()[i], 1e-3, loss);
      EXPECT_NEAR(p->grad.data()[i], num, 2e-2) << p->name << "[" << i << "]";
    }
  }
  for (int i = 0; i < in; ++i) {
    double num = NumericalGrad(&x[i], 1e-3, loss);
    EXPECT_NEAR(dx[i], num, 2e-2);
  }
  for (int i = 0; i < hid; ++i) {
    double num_h = NumericalGrad(&h0[i], 1e-3, loss);
    EXPECT_NEAR(dh_prev[i], num_h, 2e-2);
    double num_c = NumericalGrad(&c0[i], 1e-3, loss);
    EXPECT_NEAR(dc_prev[i], num_c, 2e-2);
  }
}

TEST(LstmCellGradientTest, OneHotPathMatchesDense) {
  Rng rng(17);
  const int in = 5, hid = 3;
  LstmCell cell(in, hid, &rng);
  std::vector<float> h0(hid, 0.1f), c0(hid, -0.1f);
  // Dense one-hot input.
  std::vector<float> x(in, 0.f);
  x[2] = 1.f;
  LstmCell::Cache dense, onehot;
  cell.Forward(x.data(), h0.data(), c0.data(), &dense);
  cell.ForwardOneHot(2, h0.data(), c0.data(), &onehot);
  for (int k = 0; k < hid; ++k) {
    EXPECT_FLOAT_EQ(dense.h[k], onehot.h[k]);
    EXPECT_FLOAT_EQ(dense.c[k], onehot.c[k]);
  }
}

TEST(LstmStackGradientTest, BpttMatchesNumerical) {
  Rng rng(19);
  const int vocab = 6, hid = 4, layers = 2;
  LstmStack stack(vocab, hid, layers, /*dropout=*/0.f, &rng);
  std::vector<int> tokens = {1, 4, 2};
  // Row t: the loss weights of the top hidden state after step t.
  std::vector<float> coef = {
      1.f, 0.f, -1.f, 0.5f,
      0.f, 2.f, 0.f, -0.5f,
      1.f, 1.f, 1.f, 1.f,
  };

  Rng dummy(0);
  auto loss = [&]() {
    LstmStack::State st = stack.InitialState();
    double l = 0;
    for (size_t t = 0; t < tokens.size(); ++t) {
      const std::vector<float>& h =
          stack.Step(tokens[t], &st, nullptr, false, &dummy);
      for (int k = 0; k < hid; ++k) l += h[k] * coef[t * hid + k];
    }
    return l;
  };

  // Forward with caches, then BPTT.
  LstmStack::State st = stack.InitialState();
  std::vector<LstmStack::StepCache> caches(tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    stack.Step(tokens[t], &st, &caches[t], true, &dummy);
  }
  stack.Backward({{&caches, &coef}});

  int checked = 0;
  for (ParamTensor* p : stack.Params()) {
    for (size_t i = 0; i < p->value.size(); i += 7) {
      double num = NumericalGrad(&p->value.data()[i], 1e-3, loss);
      EXPECT_NEAR(p->grad.data()[i], num, 3e-2) << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GE(checked, 40);
}

TEST(LstmStackGradientTest, BpttThroughDropoutMatchesNumerical) {
  // Every loss evaluation replays the same dropout masks (same stream), so
  // the numerical gradient checks the backward routing through them.
  Rng init(23);
  const int vocab = 5, hid = 4, layers = 3;
  LstmStack stack(vocab, hid, layers, /*dropout=*/0.5f, &init);
  const std::vector<int> tokens = {2, 0, 4, 1};
  std::vector<float> coef(tokens.size() * hid);
  for (size_t i = 0; i < coef.size(); ++i) {
    coef[i] = static_cast<float>(static_cast<int>(i % 5) - 2);
  }
  auto run = [&](std::vector<LstmStack::StepCache>* caches) {
    Rng masks(77);
    LstmStack::State st = stack.InitialState();
    double l = 0;
    for (size_t t = 0; t < tokens.size(); ++t) {
      const std::vector<float>& h = stack.Step(
          tokens[t], &st, caches != nullptr ? &(*caches)[t] : nullptr,
          /*train=*/true, &masks);
      for (int k = 0; k < hid; ++k) l += h[k] * coef[t * hid + k];
    }
    return l;
  };
  std::vector<LstmStack::StepCache> caches(tokens.size());
  run(&caches);
  int dropped = 0;
  for (const LstmStack::StepCache& sc : caches) {
    for (float m : sc.dropout_mask[1]) dropped += m == 0.f;
  }
  EXPECT_GT(dropped, 0);
  stack.Backward({{&caches, &coef}});
  for (ParamTensor* p : stack.Params()) {
    for (size_t i = 0; i < p->value.size(); i += 5) {
      double num = NumericalGrad(&p->value.data()[i], 1e-3,
                                 [&] { return run(nullptr); });
      EXPECT_NEAR(p->grad.data()[i], num, 3e-2) << p->name << "[" << i << "]";
    }
  }
}

// ------------------------------------------------------------- dropout

TEST(LstmStackDropoutTest, EvalStepsDrawNoMask) {
  Rng rng(23);
  LstmStack stack(4, 8, 2, /*dropout=*/0.5f, &rng);
  LstmStack::State st = stack.InitialState();
  LstmStack::StepCache cache;
  stack.Step(1, &st, &cache, /*train=*/false, &rng);
  for (const std::vector<float>& mask : cache.dropout_mask) {
    EXPECT_TRUE(mask.empty());
  }
}

TEST(LstmStackDropoutTest, TrainingZeroesAndRescales) {
  Rng rng(29);
  const int hid = 500;
  LstmStack stack(4, hid, 2, /*dropout=*/0.3f, &rng);
  LstmStack::State st = stack.InitialState();
  int zeros = 0, total = 0;
  for (int t = 0; t < 40; ++t) {
    LstmStack::StepCache cache;
    stack.Step(t % 4, &st, &cache, /*train=*/true, &rng);
    EXPECT_TRUE(cache.dropout_mask[0].empty());  // no dropout below layer 0
    ASSERT_EQ(cache.dropout_mask[1].size(), static_cast<size_t>(hid));
    for (float m : cache.dropout_mask[1]) {
      ++total;
      if (m == 0.f) {
        ++zeros;
      } else {
        EXPECT_FLOAT_EQ(m, 1.f / 0.7f);  // inverted dropout keeps the mean
      }
    }
  }
  EXPECT_NEAR(zeros / static_cast<double>(total), 0.3, 0.02);
}

// ------------------------------------------------------ training kernels

// Scalar references for the vectorized training kernels: the loops they
// replaced, run here without -march=native. The bitwise comparisons below
// fail on any reassociation, contraction or changed zero skip.
void RefMatTVecAccum(const Matrix& w, const float* dy, float* dx) {
  for (int i = 0; i < w.rows(); ++i) {
    const float g = dy[i];
    if (g == 0.f) continue;
    for (int j = 0; j < w.cols(); ++j) dx[j] += w.at(i, j) * g;
  }
}

void RefOuterAccum(Matrix* dw, const float* dy, const float* x) {
  for (int i = 0; i < dw->rows(); ++i) {
    const float g = dy[i];
    if (g == 0.f) continue;
    for (int j = 0; j < dw->cols(); ++j) dw->at(i, j) += g * x[j];
  }
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// A gradient-like value: mostly normal, with exact zeros of both signs and
// denormals mixed in.
float MixedValue(Rng* rng) {
  switch (rng->Next() % 8) {
    case 0: return 0.f;
    case 1: return -0.f;
    case 2: return (rng->Next() % 2 ? 1.f : -1.f) * 3e-41f;  // denormal
    default: return static_cast<float>(rng->Normal(0.0, 1.0));
  }
}

TEST(KernelTest, MatTMatAccumMatchesPerLaneReferenceBitwise) {
  Rng rng(61);
  for (int batch : {1, 2, 3, 5, 8, 9, 16, 17}) {
    for (int rows : {1, 5, 120}) {
      for (int cols : {1, 3, 30, 37}) {
        Matrix w = Matrix::Randn(rows, cols, 1.f, &rng);
        std::vector<float> dy(static_cast<size_t>(rows) * batch);
        for (float& v : dy) v = MixedValue(&rng);
        // A non-finite weight in a row no lane reads: the zero skip must
        // keep it out of every sum.
        for (int b = 0; b < batch; ++b) dy[b] = 0.f;
        w.at(0, 0) = std::numeric_limits<float>::infinity();
        std::vector<float> dx(static_cast<size_t>(cols) * batch);
        for (float& v : dx) v = rng.Next() % 3 ? 0.f : 1.5f;
        std::vector<float> want = dx;
        MatTMatAccum(w, dy.data(), batch, dx.data());
        std::vector<float> g(rows), x(cols);
        for (int b = 0; b < batch; ++b) {
          for (int i = 0; i < rows; ++i) g[i] = dy[i * batch + b];
          for (int j = 0; j < cols; ++j) x[j] = want[j * batch + b];
          RefMatTVecAccum(w, g.data(), x.data());
          for (int j = 0; j < cols; ++j) {
            ASSERT_TRUE(SameBits(x[j], dx[j * batch + b]))
                << "B=" << batch << " r=" << rows << " c=" << cols
                << " lane=" << b << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(KernelTest, OuterAccumBatchMatchesSequentialReferenceBitwise) {
  Rng rng(67);
  for (int n : {1, 7, 50}) {
    for (int rows : {1, 3, 4, 120}) {
      for (int cols : {1, 2, 30, 37, 100}) {
        std::vector<float> dy_t(static_cast<size_t>(rows) * n);
        for (float& v : dy_t) v = MixedValue(&rng);
        std::vector<std::vector<float>> xs(n, std::vector<float>(cols));
        std::vector<const float*> x(n);
        for (int k = 0; k < n; ++k) {
          for (float& v : xs[k]) v = MixedValue(&rng);
          x[k] = xs[k].data();
        }
        // A non-finite input under a zero gradient is skipped, not NaN.
        dy_t[0] = 0.f;
        xs[0][0] = std::numeric_limits<float>::infinity();
        Matrix dw = Matrix::Randn(rows, cols, 1.f, &rng);
        for (size_t i = 0; i < dw.size(); i += 3) dw.data()[i] = 0.f;
        Matrix want = dw;
        OuterAccumBatch(&dw, dy_t.data(), x.data(), n);
        std::vector<float> dy(rows);
        for (int k = 0; k < n; ++k) {
          for (int i = 0; i < rows; ++i) dy[i] = dy_t[i * n + k];
          RefOuterAccum(&want, dy.data(), x[k]);
        }
        for (size_t i = 0; i < dw.size(); ++i) {
          ASSERT_TRUE(SameBits(want.data()[i], dw.data()[i]))
              << "n=" << n << " r=" << rows << " c=" << cols << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelTest, BackwardRowsMatchesFullBackwardBitwise) {
  Rng rng(71);
  Linear full(7, 11, &rng);
  Linear rows_only = full;
  const std::vector<int> rows = {1, 2, 6, 10};
  for (int step = 0; step < 4; ++step) {
    std::vector<float> x(7), dy_rows(rows.size()), dy(11, 0.f);
    for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
    for (size_t k = 0; k < rows.size(); ++k) {
      dy_rows[k] = MixedValue(&rng);
      dy[rows[k]] = dy_rows[k];
    }
    std::vector<float> dx_full(7, 0.f), dx_rows(7, 0.f);
    full.Backward(x.data(), dy.data(), dx_full.data());
    rows_only.BackwardRows(x.data(), rows.data(),
                           static_cast<int>(rows.size()), dy_rows.data(),
                           dx_rows.data());
    for (int j = 0; j < 7; ++j) ASSERT_TRUE(SameBits(dx_full[j], dx_rows[j]));
  }
  auto pf = full.Params();
  auto pr = rows_only.Params();
  for (size_t p = 0; p < pf.size(); ++p) {
    for (size_t i = 0; i < pf[p]->grad.size(); ++i) {
      ASSERT_TRUE(SameBits(pf[p]->grad.data()[i], pr[p]->grad.data()[i]))
          << pf[p]->name << "[" << i << "]";
    }
  }
}

// Sequential double sum of squares over every entry, as ClipGradNorm did
// before it skipped all-zero blocks.
double RefClip(const std::vector<ParamTensor*>& params, double max_norm) {
  double sq = 0.0;
  for (const ParamTensor* p : params) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      const double g = p->grad.data()[i];
      sq += g * g;
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (ParamTensor* p : params) {
      for (size_t i = 0; i < p->grad.size(); ++i) p->grad.data()[i] *= scale;
    }
  }
  return norm;
}

TEST(ClipGradNormTest, ZeroSkipMatchesSequentialReference) {
  Rng rng(73);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int trial = 0; trial < 6; ++trial) {
    // One-hot-like sparse columns, an all-zero tensor, a tensor of -0.0,
    // sizes off the 16-float block, and (trial 5) a NaN.
    std::vector<ParamTensor> ps;
    ps.emplace_back("sparse", Matrix::Zeros(9, 37));
    ps.emplace_back("zeros", Matrix::Zeros(3, 21));
    ps.emplace_back("negzero", Matrix::Zeros(1, 40));
    ps.emplace_back("dense", Matrix::Zeros(5, 7));
    for (int r = 0; r < 9; ++r) ps[0].grad.at(r, 5 + trial) = MixedValue(&rng);
    for (size_t i = 0; i < ps[2].grad.size(); ++i) ps[2].grad.data()[i] = -0.f;
    for (size_t i = 0; i < ps[3].grad.size(); ++i) {
      ps[3].grad.data()[i] = MixedValue(&rng) * (trial + 1);
    }
    if (trial == 5) ps[0].grad.at(4, 30) = nan;
    std::vector<ParamTensor> ref = ps;
    std::vector<ParamTensor*> got_ptrs, ref_ptrs;
    for (size_t i = 0; i < ps.size(); ++i) {
      got_ptrs.push_back(&ps[i]);
      ref_ptrs.push_back(&ref[i]);
    }
    const double got = ClipGradNorm(got_ptrs, 2.0);
    const double want = RefClip(ref_ptrs, 2.0);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "trial " << trial;
    if (trial == 5) {
      EXPECT_TRUE(std::isnan(got));
    }
    for (size_t p = 0; p < ps.size(); ++p) {
      for (size_t i = 0; i < ps[p].grad.size(); ++i) {
        ASSERT_TRUE(SameBits(ps[p].grad.data()[i], ref[p].grad.data()[i]))
            << "trial " << trial << " " << ps[p].name << "[" << i << "]";
      }
    }
  }
}

// ---------------------------------------------------------------- adam

TEST(AdamTest, MinimizesQuadratic) {
  ParamTensor w("w", Matrix::Zeros(1, 1));
  w.value.data()[0] = 10.f;
  Adam opt({&w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    // d/dw 0.5 (w - 3)^2 = w - 3
    w.grad.data()[0] = w.value.data()[0] - 3.f;
    opt.Step();
  }
  EXPECT_NEAR(w.value.data()[0], 3.f, 0.05);
  EXPECT_EQ(opt.steps(), 500);
}

TEST(AdamTest, StepZeroesGradients) {
  ParamTensor w("w", Matrix::Zeros(1, 1));
  Adam opt({&w}, 0.01f);
  w.grad.data()[0] = 1.f;
  opt.Step();
  EXPECT_FLOAT_EQ(w.grad.data()[0], 0.f);
}

TEST(AdamTest, VectorizedStepMatchesScalarReferenceBitwise) {
  // Sizes off the vector width, and gradients with zeros of both signs
  // and denormals, over several steps (the bias corrections change).
  Rng rng(79);
  const float lr = 1e-3f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  std::vector<ParamTensor> ps;
  for (int n : {1, 15, 17, 33, 1003}) {
    ps.emplace_back("p", Matrix::Randn(1, n, 0.5f, &rng));
  }
  std::vector<ParamTensor*> ptrs;
  for (ParamTensor& p : ps) ptrs.push_back(&p);
  Adam opt(ptrs, lr, b1, b2, eps);
  std::vector<std::vector<float>> w, m, v;
  for (const ParamTensor& p : ps) {
    w.emplace_back(p.value.data(), p.value.data() + p.value.size());
    m.emplace_back(p.value.size(), 0.f);
    v.emplace_back(p.value.size(), 0.f);
  }
  for (int t = 1; t <= 4; ++t) {
    const float bc1 = 1.f - std::pow(b1, static_cast<float>(t));
    const float bc2 = 1.f - std::pow(b2, static_cast<float>(t));
    for (size_t p = 0; p < ps.size(); ++p) {
      for (size_t k = 0; k < ps[p].grad.size(); ++k) {
        const float g = MixedValue(&rng);
        ps[p].grad.data()[k] = g;
        m[p][k] = b1 * m[p][k] + (1.f - b1) * g;
        v[p][k] = b2 * v[p][k] + (1.f - b2) * g * g;
        const float mhat = m[p][k] / bc1;
        const float vhat = v[p][k] / bc2;
        w[p][k] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
    opt.Step();
    for (size_t p = 0; p < ps.size(); ++p) {
      for (size_t k = 0; k < ps[p].value.size(); ++k) {
        ASSERT_TRUE(SameBits(w[p][k], ps[p].value.data()[k]))
            << "step " << t << " tensor " << p << " k=" << k;
        ASSERT_TRUE(SameBits(0.f, ps[p].grad.data()[k]));
      }
    }
  }
}

TEST(AdamTest, ZeroGradDiscards) {
  ParamTensor w("w", Matrix::Zeros(1, 1));
  Adam opt({&w}, 0.01f);
  w.grad.data()[0] = 1.f;
  float before = w.value.data()[0];
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(w.grad.data()[0], 0.f);
  EXPECT_FLOAT_EQ(w.value.data()[0], before);
}

// ------------------------------------------------------------- serialize

TEST(SerializeTest, RoundTrip) {
  Rng rng(31);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng);
  std::string path = std::filesystem::temp_directory_path() /
                     "lsg_serialize_test.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  ASSERT_TRUE(LoadParams(b.Params(), path).ok());
  auto pa = a.Params();
  auto pb = b.Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t k = 0; k < pa[i]->value.size(); ++k) {
      EXPECT_FLOAT_EQ(pa[i]->value.data()[k], pb[i]->value.data()[k]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(37);
  Linear a(3, 2, &rng);
  Linear b(4, 2, &rng);
  std::string path = std::filesystem::temp_directory_path() /
                     "lsg_serialize_mismatch.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  EXPECT_FALSE(LoadParams(b.Params(), path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileRejected) {
  Rng rng(41);
  Linear a(2, 2, &rng);
  EXPECT_EQ(LoadParams(a.Params(), "/nonexistent/dir/x.bin").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lsg
