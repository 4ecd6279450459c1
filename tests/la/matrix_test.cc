#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/init.h"
#include "la/matrix.h"

namespace semtag::la {
namespace {

/// Builds a matrix from nested rows of equal length.
Matrix FromRows(const std::vector<std::vector<float>>& rows) {
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.At(1, 2), 1.5f);
  m.At(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = FromRows({{1, 2}, {3, 4}});
  Matrix b = FromRows({{10, 20}, {30, 40}});
  a.Add(b);
  EXPECT_FLOAT_EQ(a(1, 1), 44.0f);
  a.Sub(b);
  EXPECT_FLOAT_EQ(a(1, 1), 4.0f);
  a.Mul(b);
  EXPECT_FLOAT_EQ(a(0, 0), 10.0f);
  a.Scale(0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 5.0f);
  a.Axpy(2.0f, b);
  EXPECT_FLOAT_EQ(a(0, 1), 20.0f + 40.0f * 1.0f + 0.0f);
}

TEST(MatrixTest, Reductions) {
  Matrix m = FromRows({{-1, 2}, {3, -4}});
  EXPECT_FLOAT_EQ(m.Sum(), 0.0f);
  EXPECT_FLOAT_EQ(m.Norm(), std::sqrt(1.0f + 4 + 9 + 16));
}

TEST(MatrixTest, Transposed) {
  Matrix m = FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t(2, 1), 6.0f);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a = FromRows({{1, 2}, {3, 4}});
  Matrix b = FromRows({{5, 6}, {7, 8}});
  Matrix c;
  MatMul(a, b, &c);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Rng rng(3);
  Matrix a(4, 6);
  Matrix b(6, 5);
  GaussianInit(&a, &rng, 1.0f);
  GaussianInit(&b, &rng, 1.0f);
  Matrix direct;
  MatMul(a, b, &direct);

  Matrix at = a.Transposed();
  Matrix via_ta;
  MatMulTransA(at, b, &via_ta);
  Matrix bt = b.Transposed();
  Matrix via_tb;
  MatMulTransB(a, bt, &via_tb);
  ASSERT_TRUE(direct.SameShape(via_ta));
  ASSERT_TRUE(direct.SameShape(via_tb));
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], via_ta.data()[i], 1e-4);
    EXPECT_NEAR(direct.data()[i], via_tb.data()[i], 1e-4);
  }
}

TEST(MatrixHelpersTest, RowBroadcastAndSumRows) {
  Matrix m = FromRows({{1, 2}, {3, 4}});
  Matrix row = FromRows({{10, 20}});
  AddRowBroadcast(&m, row);
  EXPECT_FLOAT_EQ(m(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 24.0f);
  Matrix sums = SumRows(m);
  EXPECT_EQ(sums.rows(), 1u);
  EXPECT_FLOAT_EQ(sums(0, 0), 11.0f + 13.0f);
  EXPECT_FLOAT_EQ(sums(0, 1), 22.0f + 24.0f);
}

TEST(InitTest, XavierWithinLimit) {
  Rng rng(5);
  Matrix m(64, 64);
  XavierUniform(&m, &rng);
  const double limit = std::sqrt(6.0 / 128.0);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit);
  }
  EXPECT_GT(m.Norm(), 0.0f);
}

TEST(DotTest, Basics) {
  const float a[] = {1, 2, 3};
  const float b[] = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 32.0f);
  EXPECT_FLOAT_EQ(Dot(a, b, 0), 0.0f);
}

}  // namespace
}  // namespace semtag::la
