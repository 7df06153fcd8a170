#include "src/la/matrix.h"

#include <algorithm>
#include <cmath>

#include "src/util/thread_pool.h"

namespace robogexp {

Matrix Matrix::Xavier(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  const double bound = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (int64_t i = 0; i < rows * cols; ++i) {
    m.data_[static_cast<size_t>(i)] = rng->Uniform(-bound, bound);
  }
  return m;
}

Matrix Matrix::Multiply(const Matrix& a, const Matrix& b) {
  RCW_CHECK(a.cols_ == b.rows_);
  Matrix c(a.rows_, b.cols_);
  ParallelFor(DefaultPool(), a.rows_, [&](int64_t i) {
    AddRowTimes(a.Row(i), b, c.Row(i));
  }, /*min_grain=*/16);
  return c;
}

void AddRowTimes(const double* row, const Matrix& b, double* out) {
  const int64_t m = b.cols();
  // The nonzero positions of each block of 64 are listed first, without a
  // branch per entry: feature rows and ReLU outputs are sparse, and a
  // data-dependent skip mispredicts about once per nonzero.
  int nonzero[64] = {};
  for (int64_t base = 0; base < b.rows(); base += 64) {
    const int64_t end = std::min<int64_t>(b.rows(), base + 64);
    int n = 0;
    for (int64_t p = base; p < end; ++p) {
      nonzero[n] = static_cast<int>(p - base);
      n += row[p] != 0.0;
    }
    for (int i = 0; i < n; ++i) {
      const int64_t p = base + nonzero[i];
      const double av = row[p];
      const double* brow = b.Row(p);
      for (int64_t j = 0; j < m; ++j) out[j] += av * brow[j];
    }
  }
}

Matrix Matrix::TransposeMultiply(const Matrix& a, const Matrix& b) {
  RCW_CHECK(a.rows_ == b.rows_);
  Matrix c(a.cols_, b.cols_);
  // c[p, j] = sum_i a[i, p] * b[i, j]; parallelize over columns of a.
  ParallelFor(DefaultPool(), a.cols_, [&](int64_t p) {
    double* crow = c.Row(p);
    for (int64_t i = 0; i < a.rows_; ++i) {
      const double av = a.at(i, p);
      if (av == 0.0) continue;
      const double* brow = b.Row(i);
      for (int64_t j = 0; j < b.cols_; ++j) crow[j] += av * brow[j];
    }
  }, /*min_grain=*/16);
  return c;
}

Matrix Matrix::MultiplyTransposed(const Matrix& a, const Matrix& b) {
  RCW_CHECK(a.cols_ == b.cols_);
  Matrix c(a.rows_, b.rows_);
  ParallelFor(DefaultPool(), a.rows_, [&](int64_t i) {
    const double* arow = a.Row(i);
    double* crow = c.Row(i);
    for (int64_t j = 0; j < b.rows_; ++j) {
      const double* brow = b.Row(j);
      double s = 0.0;
      for (int64_t p = 0; p < a.cols_; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }, /*min_grain=*/16);
  return c;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t j = 0; j < cols_; ++j) t.at(j, i) = at(i, j);
  }
  return t;
}

void Matrix::AddInPlace(const Matrix& other, double scale) {
  RCW_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::ScaleInPlace(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::ReluInPlace(Matrix* mask) {
  if (mask != nullptr) *mask = Matrix(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    if (data_[i] > 0.0) {
      if (mask != nullptr) mask->data_[i] = 1.0;
    } else {
      data_[i] = 0.0;
    }
  }
}

void Matrix::SoftmaxRowsInPlace() {
  for (int64_t r = 0; r < rows_; ++r) {
    double* row = Row(r);
    double mx = row[0];
    for (int64_t c = 1; c < cols_; ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < cols_; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (int64_t c = 0; c < cols_; ++c) row[c] /= sum;
  }
}

void Matrix::AddRowVectorInPlace(const Matrix& bias) {
  RCW_CHECK(bias.rows() == 1 && bias.cols() == cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    double* row = Row(r);
    for (int64_t c = 0; c < cols_; ++c) row[c] += bias.at(0, c);
  }
}

int64_t Matrix::ArgmaxRow(int64_t r) const {
  const double* row = Row(r);
  int64_t best = 0;
  for (int64_t c = 1; c < cols_; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double SoftmaxCrossEntropy(const Matrix& probs,
                           const std::vector<std::pair<int64_t, int>>& targets,
                           Matrix* grad) {
  RCW_CHECK(grad != nullptr);
  *grad = Matrix(probs.rows(), probs.cols());
  if (targets.empty()) return 0.0;
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(targets.size());
  for (const auto& [row, cls] : targets) {
    const double p = std::max(probs.at(row, cls), 1e-15);
    loss -= std::log(p);
    // d(mean CE)/d(logit) = (softmax - onehot) / n for rows with targets.
    for (int64_t c = 0; c < probs.cols(); ++c) {
      grad->at(row, c) += (probs.at(row, c) - (c == cls ? 1.0 : 0.0)) * inv_n;
    }
  }
  return loss * inv_n;
}

}  // namespace robogexp
