// Row-major dense matrix with the small set of operations the GNN engine
// needs: matmul, elementwise activations, row softmax, argmax, reductions.
#ifndef ROBOGEXP_LA_MATRIX_H_
#define ROBOGEXP_LA_MATRIX_H_

#include <cstdint>
#include <vector>

#include "src/util/common.h"
#include "src/util/rng.h"

namespace robogexp {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), 0.0) {
    RCW_CHECK(rows >= 0 && cols >= 0);
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& at(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double at(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  double* Row(int64_t r) { return data_.data() + r * cols_; }
  const double* Row(int64_t r) const { return data_.data() + r * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Glorot/Xavier-uniform initialization (deterministic given rng).
  static Matrix Xavier(int64_t rows, int64_t cols, Rng* rng);

  /// C = A * B (thread-parallel over rows of A).
  static Matrix Multiply(const Matrix& a, const Matrix& b);

  /// C = A^T * B.
  static Matrix TransposeMultiply(const Matrix& a, const Matrix& b);

  /// C = A * B^T.
  static Matrix MultiplyTransposed(const Matrix& a, const Matrix& b);

  Matrix Transposed() const;

  void AddInPlace(const Matrix& other, double scale = 1.0);
  void ScaleInPlace(double s);

  /// ReLU in place; returns the pre-activation mask needed for backprop
  /// (1.0 where input > 0) when mask != nullptr.
  void ReluInPlace(Matrix* mask = nullptr);

  /// Row-wise softmax in place (numerically stabilized).
  void SoftmaxRowsInPlace();

  /// Adds a row-vector bias (1 x cols) to every row.
  void AddRowVectorInPlace(const Matrix& bias);

  /// argmax over a row.
  int64_t ArgmaxRow(int64_t r) const;

  double FrobeniusNorm() const;

  bool AllFinite() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

/// out[0, b.cols()) += row[0, b.rows()) · b. Zero entries of `row` are
/// skipped and the products accumulate in ascending k: Matrix::Multiply and
/// the GNN forwards share this order, so their results agree bit for bit.
void AddRowTimes(const double* row, const Matrix& b, double* out);

/// Row-wise cross-entropy loss and gradient for softmax outputs.
/// `probs` are post-softmax probabilities; rows listed in `targets` pairs
/// (row index, class). Returns mean loss; writes dLoss/dLogits into `grad`
/// (same shape as probs, zero rows for untrained rows).
double SoftmaxCrossEntropy(const Matrix& probs,
                           const std::vector<std::pair<int64_t, int>>& targets,
                           Matrix* grad);

}  // namespace robogexp

#endif  // ROBOGEXP_LA_MATRIX_H_
