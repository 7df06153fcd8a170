#include "src/la/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace robogexp {
namespace {

Matrix Fill(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(static_cast<int64_t>(rows.size()),
           static_cast<int64_t>(rows.begin()->size()));
  int64_t r = 0;
  for (const auto& row : rows) {
    int64_t c = 0;
    for (double v : row) m.at(r, c++) = v;
    ++r;
  }
  return m;
}

TEST(Matrix, MultiplySmallKnown) {
  const Matrix a = Fill({{1, 2}, {3, 4}});
  const Matrix b = Fill({{5, 6}, {7, 8}});
  const Matrix c = Matrix::Multiply(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(Matrix, TransposeMultiplyAgreesWithExplicitTranspose) {
  Rng rng(3);
  const Matrix a = Matrix::Xavier(7, 5, &rng);
  const Matrix b = Matrix::Xavier(7, 4, &rng);
  const Matrix c1 = Matrix::TransposeMultiply(a, b);
  const Matrix c2 = Matrix::Multiply(a.Transposed(), b);
  ASSERT_EQ(c1.rows(), c2.rows());
  for (int64_t i = 0; i < c1.rows(); ++i) {
    for (int64_t j = 0; j < c1.cols(); ++j) {
      EXPECT_NEAR(c1.at(i, j), c2.at(i, j), 1e-12);
    }
  }
}

TEST(Matrix, MultiplyTransposedAgrees) {
  Rng rng(5);
  const Matrix a = Matrix::Xavier(6, 8, &rng);
  const Matrix b = Matrix::Xavier(3, 8, &rng);
  const Matrix c1 = Matrix::MultiplyTransposed(a, b);
  const Matrix c2 = Matrix::Multiply(a, b.Transposed());
  for (int64_t i = 0; i < c1.rows(); ++i) {
    for (int64_t j = 0; j < c1.cols(); ++j) {
      EXPECT_NEAR(c1.at(i, j), c2.at(i, j), 1e-12);
    }
  }
}

TEST(Matrix, LargeParallelMultiplyMatchesSerialReference) {
  Rng rng(7);
  // 150 inner columns span three of AddRowTimes' 64-entry blocks; a third
  // of the entries are zeros, half of them negative, as in sparse features
  // and ReLU outputs.
  Matrix a = Matrix::Xavier(120, 150, &rng);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t p = i % 3; p < a.cols(); p += 3) {
      a.at(i, p) = p % 2 == 0 ? 0.0 : -0.0;
    }
  }
  const Matrix b = Matrix::Xavier(150, 40, &rng);
  const Matrix c = Matrix::Multiply(a, b);
  // Serial reference: the nonzero products in ascending k, bit for bit.
  for (int64_t i = 0; i < 120; ++i) {
    for (int64_t j = 0; j < 40; ++j) {
      double s = 0;
      for (int64_t p = 0; p < 150; ++p) {
        if (a.at(i, p) != 0.0) s += a.at(i, p) * b.at(p, j);
      }
      EXPECT_EQ(c.at(i, j), s) << i << "," << j;
    }
  }
}

TEST(Matrix, ReluMasksNegatives) {
  Matrix m = Fill({{-1, 2}, {3, -4}});
  Matrix mask;
  m.ReluInPlace(&mask);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2);
  EXPECT_DOUBLE_EQ(mask.at(0, 0), 0);
  EXPECT_DOUBLE_EQ(mask.at(1, 0), 1);
}

TEST(Matrix, SoftmaxRowsSumToOne) {
  Matrix m = Fill({{1, 2, 3}, {1000, 1001, 999}});  // tests stabilization
  m.SoftmaxRowsInPlace();
  for (int64_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 3; ++c) {
      ASSERT_TRUE(std::isfinite(m.at(r, c)));
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(m.at(0, 2), m.at(0, 0));
}

TEST(Matrix, ArgmaxRowPicksFirstOnStrictMax) {
  const Matrix m = Fill({{0.1, 0.9, 0.5}});
  EXPECT_EQ(m.ArgmaxRow(0), 1);
}

TEST(Matrix, AddRowVector) {
  Matrix m = Fill({{1, 1}, {2, 2}});
  const Matrix bias = Fill({{10, 20}});
  m.AddRowVectorInPlace(bias);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 22);
}

TEST(Matrix, XavierBoundsAndDeterminism) {
  Rng r1(11), r2(11);
  const Matrix a = Matrix::Xavier(20, 30, &r1);
  const Matrix b = Matrix::Xavier(20, 30, &r2);
  const double bound = std::sqrt(6.0 / 50.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a.at(i, j), b.at(i, j));
      EXPECT_LE(std::fabs(a.at(i, j)), bound);
    }
  }
}

TEST(Matrix, SoftmaxCrossEntropyGradientIsSoftmaxMinusOnehot) {
  Matrix logits = Fill({{2.0, 1.0, 0.0}, {0.0, 0.0, 0.0}});
  Matrix probs = logits;
  probs.SoftmaxRowsInPlace();
  Matrix grad;
  const double loss = SoftmaxCrossEntropy(probs, {{0, 0}, {1, 2}}, &grad);
  EXPECT_GT(loss, 0.0);
  // Row 0, class 0: (p - 1)/2.
  EXPECT_NEAR(grad.at(0, 0), (probs.at(0, 0) - 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(grad.at(0, 1), probs.at(0, 1) / 2.0, 1e-12);
  EXPECT_NEAR(grad.at(1, 2), (probs.at(1, 2) - 1.0) / 2.0, 1e-12);
  // Gradient rows sum to ~0 for rows with a target.
  double rowsum = grad.at(0, 0) + grad.at(0, 1) + grad.at(0, 2);
  EXPECT_NEAR(rowsum, 0.0, 1e-12);
}

TEST(Matrix, FrobeniusAndFiniteChecks) {
  Matrix m = Fill({{3, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_TRUE(m.AllFinite());
  m.at(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(m.AllFinite());
}

}  // namespace
}  // namespace robogexp
