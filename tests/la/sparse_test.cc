#include <cmath>

#include <gtest/gtest.h>

#include "la/sparse.h"

namespace semtag::la {
namespace {

TEST(SparseVectorTest, SortAndMergeCombinesDuplicates) {
  SparseVector v;
  v.Push(5, 1.0f);
  v.Push(2, 2.0f);
  v.Push(5, 3.0f);
  v.Push(2, 1.0f);
  v.SortAndMerge();
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.entries()[0].index, 2u);
  EXPECT_FLOAT_EQ(v.entries()[0].value, 3.0f);
  EXPECT_EQ(v.entries()[1].index, 5u);
  EXPECT_FLOAT_EQ(v.entries()[1].value, 4.0f);
}

TEST(SparseVectorTest, NormAndNormalize) {
  SparseVector v;
  v.Push(0, 3.0f);
  v.Push(7, 4.0f);
  EXPECT_FLOAT_EQ(v.Norm(), 5.0f);
  v.L2Normalize();
  EXPECT_NEAR(v.Norm(), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(v.entries()[0].value, 0.6f);
}

TEST(SparseVectorTest, NormalizeZeroVectorIsNoop) {
  SparseVector v;
  v.L2Normalize();
  EXPECT_EQ(v.nnz(), 0u);
}

TEST(SparseVectorTest, DotWithDense) {
  SparseVector v;
  v.Push(1, 2.0f);
  v.Push(3, -1.0f);
  const float dense[] = {9, 10, 11, 12};
  EXPECT_FLOAT_EQ(v.Dot(dense), 2.0f * 10 - 12.0f);
}

TEST(SparseVectorTest, AxpyInto) {
  SparseVector v;
  v.Push(0, 1.0f);
  v.Push(2, 2.0f);
  float dense[3] = {0, 0, 0};
  v.AxpyInto(3.0f, dense);
  EXPECT_FLOAT_EQ(dense[0], 3.0f);
  EXPECT_FLOAT_EQ(dense[1], 0.0f);
  EXPECT_FLOAT_EQ(dense[2], 6.0f);
}

TEST(SparseMatrixTest, RowsAndNnz) {
  SparseMatrix m(100);
  SparseVector a;
  a.Push(1, 1.0f);
  SparseVector b;
  b.Push(2, 1.0f);
  b.Push(3, 1.0f);
  m.AddRow(a);
  m.AddRow(b);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 100u);
  EXPECT_EQ(m.Row(1).nnz(), 2u);
}

}  // namespace
}  // namespace semtag::la
