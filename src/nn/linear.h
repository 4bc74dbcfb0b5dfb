#ifndef LEARNEDSQLGEN_NN_LINEAR_H_
#define LEARNEDSQLGEN_NN_LINEAR_H_

#include <vector>

#include "nn/matrix.h"

namespace lsg {

/// Fully connected layer y = Wx + b with explicit backward.
class Linear {
 public:
  Linear(int input_dim, int output_dim, Rng* rng);

  int input_dim() const { return w_.value.cols(); }
  int output_dim() const { return w_.value.rows(); }

  /// y must have room for output_dim floats.
  void Forward(const float* x, float* y) const;

  /// Sparse-row forward: y[k] = Forward(x)[rows[k]] for each of the nrows
  /// requested output rows, reading x at the given stride (a feature-major
  /// panel column when x_stride > 1, a plain vector at stride 1). Each row
  /// is the same ascending-j dot product plus bias as Forward, so the
  /// requested entries are bitwise-identical to a full forward — the
  /// serving decode path asks for the handful of FSM-valid vocabulary rows
  /// instead of the whole output layer.
  void ForwardRows(const float* x, int x_stride, const int* rows, int nrows,
                   float* y) const;

  /// Accumulates parameter gradients and (optionally) input gradients into
  /// accumulators that do not hold -0.0 (see MatTMatAccum). `x` must be
  /// the forward input that produced `dy`.
  void Backward(const float* x, const float* dy, float* dx_or_null);

  /// Sparse-row Backward: dy[k] is the output gradient of row rows[k]
  /// (ascending), every other row's being zero. Accumulates parameter
  /// gradients and dx += W^T dy over the listed rows only, bitwise equal to
  /// Backward over the full zero-filled dy (a zero row adds nothing to
  /// accumulators that start at +0, and Backward skips it anyway).
  void BackwardRows(const float* x, const int* rows, int nrows,
                    const float* dy, float* dx);

  std::vector<ParamTensor*> Params() { return {&w_, &b_}; }
  std::vector<const ParamTensor*> Params() const { return {&w_, &b_}; }

 private:
  ParamTensor w_;
  ParamTensor b_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_LINEAR_H_
