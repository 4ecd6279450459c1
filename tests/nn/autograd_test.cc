// Numerical gradient checks for every differentiable op: perturb each input
// element, compare (f(x+h) - f(x-h)) / 2h against the autograd gradient of a
// scalar objective sum(op(x) * weights).

#include <algorithm>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/init.h"
#include "la/kernels.h"
#include "nn/ops.h"
#include "nn/variable.h"

namespace semtag::nn {
namespace {

using la::Matrix;

Matrix RandomMatrix(size_t r, size_t c, Rng* rng, float scale = 1.0f) {
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformDouble(-scale, scale));
  }
  return m;
}

/// Weighted sum of all elements: a generic scalar objective whose weights
/// make every output element matter differently.
Variable WeightedSum(const Variable& y, const Matrix& weights) {
  Variable w(weights);
  return SumToScalar(Mul(y, w));
}

/// Checks d(objective)/d(inputs[i]) numerically for every input element.
/// `forward` maps leaf Variables to the op output.
void CheckGradients(
    std::vector<Matrix> inputs,
    const std::function<Variable(const std::vector<Variable>&)>& forward,
    double tolerance = 2e-2, double h = 1e-3) {
  // Analytic pass.
  std::vector<Variable> vars;
  vars.reserve(inputs.size());
  for (auto& m : inputs) vars.emplace_back(m, /*requires_grad=*/true);
  Variable out = forward(vars);
  Rng wrng(12345);
  Matrix weights =
      RandomMatrix(out.value().rows(), out.value().cols(), &wrng);
  Variable loss = WeightedSum(out, weights);
  Backward(loss);

  // Numerical pass per element.
  for (size_t vi = 0; vi < inputs.size(); ++vi) {
    for (size_t i = 0; i < inputs[vi].size(); ++i) {
      auto eval = [&](float delta) {
        std::vector<Matrix> shifted = inputs;
        shifted[vi].data()[i] += delta;
        std::vector<Variable> leaf;
        leaf.reserve(shifted.size());
        for (auto& m : shifted) leaf.emplace_back(m, false);
        Variable y = forward(leaf);
        Matrix prod = y.value();
        prod.Mul(weights);
        return static_cast<double>(prod.Sum());
      };
      const double numeric =
          (eval(static_cast<float>(h)) - eval(static_cast<float>(-h))) /
          (2.0 * h);
      const double analytic = vars[vi].grad().data()[i];
      EXPECT_NEAR(analytic, numeric,
                  tolerance * std::max(1.0, std::fabs(numeric)))
          << "input " << vi << " element " << i;
    }
  }
}

TEST(AutogradTest, MatMul) {
  Rng rng(1);
  CheckGradients({RandomMatrix(3, 4, &rng), RandomMatrix(4, 2, &rng)},
                 [](const std::vector<Variable>& v) {
                   return MatMul(v[0], v[1]);
                 });
}

TEST(AutogradTest, MatMulBT) {
  Rng rng(2);
  CheckGradients({RandomMatrix(3, 4, &rng), RandomMatrix(5, 4, &rng)},
                 [](const std::vector<Variable>& v) {
                   return MatMulBT(v[0], v[1]);
                 });
}

TEST(AutogradTest, AddSubMul) {
  Rng rng(3);
  CheckGradients({RandomMatrix(2, 3, &rng), RandomMatrix(2, 3, &rng),
                  RandomMatrix(2, 3, &rng)},
                 [](const std::vector<Variable>& v) {
                   return Mul(Sub(Add(v[0], v[1]), v[2]), v[1]);
                 });
}

TEST(AutogradTest, ScalarMulAddConst) {
  Rng rng(4);
  Matrix c = RandomMatrix(2, 3, &rng);
  CheckGradients({RandomMatrix(2, 3, &rng)},
                 [c](const std::vector<Variable>& v) {
                   return AddConst(ScalarMul(v[0], 2.5f), c);
                 });
}

TEST(AutogradTest, AddRowBroadcast) {
  Rng rng(5);
  CheckGradients({RandomMatrix(4, 3, &rng), RandomMatrix(1, 3, &rng)},
                 [](const std::vector<Variable>& v) {
                   return AddRowBroadcast(v[0], v[1]);
                 });
}

TEST(AutogradTest, Activations) {
  Rng rng(6);
  CheckGradients({RandomMatrix(2, 5, &rng)},
                 [](const std::vector<Variable>& v) {
                   return Sigmoid(v[0]);
                 });
  CheckGradients({RandomMatrix(2, 5, &rng)},
                 [](const std::vector<Variable>& v) { return Tanh(v[0]); });
  CheckGradients({RandomMatrix(2, 5, &rng)},
                 [](const std::vector<Variable>& v) { return Gelu(v[0]); });
}

TEST(AutogradTest, ReluAwayFromKink) {
  // Keep inputs away from 0 so the numerical derivative is valid.
  Matrix x(2, 4);
  float vals[] = {0.5f, -0.7f, 1.2f, -2.0f, 0.9f, -0.4f, 2.2f, -1.1f};
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = vals[i];
  CheckGradients({x}, [](const std::vector<Variable>& v) {
    return Relu(v[0]);
  });
}

TEST(AutogradTest, RowSoftmax) {
  Rng rng(7);
  CheckGradients({RandomMatrix(3, 5, &rng, 2.0f)},
                 [](const std::vector<Variable>& v) {
                   return RowSoftmax(v[0]);
                 });
}

TEST(AutogradTest, SliceRowsAndCols) {
  Rng rng(8);
  CheckGradients({RandomMatrix(5, 6, &rng)},
                 [](const std::vector<Variable>& v) {
                   return SliceRows(v[0], 1, 4);
                 });
  CheckGradients({RandomMatrix(5, 6, &rng)},
                 [](const std::vector<Variable>& v) {
                   return SliceColsRange(v[0], 2, 5);
                 });
}

TEST(AutogradTest, ConcatCols) {
  Rng rng(9);
  CheckGradients({RandomMatrix(3, 2, &rng), RandomMatrix(3, 4, &rng)},
                 [](const std::vector<Variable>& v) {
                   return ConcatCols({v[0], v[1]});
                 });
}

TEST(AutogradTest, MaxPoolRows) {
  // Distinct values so the argmax is stable under the probe h.
  Matrix x(3, 2);
  x(0, 0) = 0.1f; x(0, 1) = 0.9f;
  x(1, 0) = 0.5f; x(1, 1) = 0.2f;
  x(2, 0) = -0.3f; x(2, 1) = 0.4f;
  CheckGradients({x}, [](const std::vector<Variable>& v) {
    return MaxPoolRows(v[0]);
  });
}

TEST(AutogradTest, MeanRows) {
  Rng rng(10);
  CheckGradients({RandomMatrix(4, 3, &rng)},
                 [](const std::vector<Variable>& v) {
                   return MeanRows(v[0]);
                 });
}

TEST(AutogradTest, EmbeddingAndGather) {
  Rng rng(11);
  const std::vector<int32_t> ids = {2, 0, 2, 1};
  CheckGradients({RandomMatrix(3, 4, &rng)},
                 [ids](const std::vector<Variable>& v) {
                   return EmbeddingLookup(v[0], ids);
                 });
  const std::vector<int32_t> rows = {1, 1, 3};
  CheckGradients({RandomMatrix(4, 3, &rng)},
                 [rows](const std::vector<Variable>& v) {
                   return GatherRows(v[0], rows);
                 });
}

TEST(AutogradTest, Conv1d) {
  Rng rng(12);
  const int width = 2;
  CheckGradients(
      {RandomMatrix(5, 3, &rng), RandomMatrix(6, 4, &rng),
       RandomMatrix(1, 4, &rng)},
      [width](const std::vector<Variable>& v) {
        return Conv1d(v[0], v[1], v[2], width);
      });
}

TEST(AutogradTest, Conv1dBlocked) {
  // Two stacked length-5 sequences convolved in one im2col GEMM.
  Rng rng(21);
  const int width = 2;
  CheckGradients(
      {RandomMatrix(10, 3, &rng), RandomMatrix(6, 4, &rng),
       RandomMatrix(1, 4, &rng)},
      [width](const std::vector<Variable>& v) {
        return Conv1d(v[0], v[1], v[2], width, /*blocks=*/2);
      });
}

/// B stacked [T x T] additive masks; sequence s pads its last (s % T)
/// keys (never the first, so every row keeps a visible key).
Matrix PaddedKeyMask(size_t blocks, size_t t) {
  Matrix mask(blocks * t, t);
  for (size_t s = 0; s < blocks; ++s) {
    for (size_t j = t - s % t; j < t; ++j) {
      for (size_t i = 0; i < t; ++i) mask(s * t + i, j) = -1e9f;
    }
  }
  return mask;
}

/// The per-head op chain MultiHeadAttention fuses, one sequence at a time.
Variable ReferenceAttention(const Variable& qkv, const Matrix& mask,
                            size_t heads, float scale) {
  const size_t t = mask.cols(), d = qkv.cols() / 3, hd = d / heads;
  std::vector<Variable> rows;
  for (size_t s = 0; s < qkv.rows() / t; ++s) {
    Variable seq = SliceRows(qkv, s * t, (s + 1) * t);
    Matrix seq_mask(t, t);
    for (size_t i = 0; i < t; ++i) {
      for (size_t j = 0; j < t; ++j) seq_mask(i, j) = mask(s * t + i, j);
    }
    std::vector<Variable> outs;
    for (size_t h = 0; h < heads; ++h) {
      Variable q = SliceColsRange(seq, h * hd, (h + 1) * hd);
      Variable k = SliceColsRange(seq, d + h * hd, d + (h + 1) * hd);
      Variable v = SliceColsRange(seq, 2 * d + h * hd, 2 * d + (h + 1) * hd);
      Variable p =
          RowSoftmax(AddConst(ScalarMul(MatMulBT(q, k), scale), seq_mask));
      outs.push_back(MatMul(p, v));
    }
    rows.push_back(ConcatCols(outs));
  }
  // Stack the per-sequence outputs back into [B*T x d].
  Matrix stacked(qkv.rows(), d);
  for (size_t s = 0; s < rows.size(); ++s) {
    for (size_t i = 0; i < t; ++i) {
      for (size_t c = 0; c < d; ++c) {
        stacked(s * t + i, c) = rows[s].value()(i, c);
      }
    }
  }
  return Variable(stacked);
}

TEST(AutogradTest, MultiHeadAttention) {
  // B in {1, 3} stacked length-3 sequences, 1 and 4 heads over d = 8,
  // with padded keys in every sequence but the first.
  Rng rng(22);
  const size_t t = 3, d = 8;
  for (size_t blocks : {1u, 3u}) {
    for (size_t heads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "B=" << blocks << " heads=" << heads);
      const Matrix mask = PaddedKeyMask(blocks, t);
      const float scale = 1.0f / std::sqrt(static_cast<float>(d / heads));
      CheckGradients({RandomMatrix(blocks * t, 3 * d, &rng)},
                     [&](const std::vector<Variable>& v) {
                       return MultiHeadAttention(v[0], mask, heads, scale);
                     });
    }
  }
}

TEST(AutogradTest, MultiHeadAttentionFirstRows) {
  // BlockRows::kFirst: each sequence's first query row attends over all
  // its keys; gradients reach Q of the first rows and K, V of every row.
  Rng rng(24);
  const size_t t = 4, d = 8, blocks = 3;
  const Matrix mask = PaddedKeyMask(blocks, t);
  for (size_t heads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "heads=" << heads);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d / heads));
    CheckGradients({RandomMatrix(blocks * t, 3 * d, &rng)},
                   [&](const std::vector<Variable>& v) {
                     return MultiHeadAttention(v[0], mask, heads, scale,
                                               BlockRows::kFirst);
                   });
  }
}

TEST(AutogradTest, MatMulFirstRowsWeightGradMatchesFullHeight) {
  // MatMul(a, b, kFirst), a being the first rows of length-t blocks,
  // gives b the gradient of the full-height product whose other rows get
  // zero gradient, bit for bit, for any t >= 4 and any block count.
  Rng rng(4);
  for (size_t t : {4u, 5u, 12u, 20u}) {
    for (size_t blocks : {1u, 3u, 9u, 40u}) {
      SCOPED_TRACE(testing::Message() << "t=" << t << " blocks=" << blocks);
      const Matrix tall_a = RandomMatrix(blocks * t, 35, &rng);
      const Matrix g = RandomMatrix(blocks, 300, &rng);
      Matrix first_a(blocks, tall_a.cols()), tall_g(blocks * t, g.cols());
      for (size_t s = 0; s < blocks; ++s) {
        std::copy(tall_a.Row(s * t), tall_a.Row(s * t) + tall_a.cols(),
                  first_a.Row(s));
        std::copy(g.Row(s), g.Row(s) + g.cols(), tall_g.Row(s * t));
      }
      const Matrix b = RandomMatrix(35, 300, &rng);
      Variable tall_b(b, /*requires_grad=*/true);
      Variable first_b(b, /*requires_grad=*/true);
      Backward(WeightedSum(MatMul(Variable(tall_a), tall_b), tall_g));
      Backward(WeightedSum(
          MatMul(Variable(first_a), first_b, BlockRows::kFirst), g));
      for (size_t i = 0; i < b.size(); ++i) {
        ASSERT_EQ(first_b.grad().data()[i], tall_b.grad().data()[i])
            << "element " << i;
      }
    }
  }
}

TEST(AutogradTest, MultiHeadAttentionMatchesPerHeadChain) {
  // Forward values equal the unfused per-head graph it replaced.
  Rng rng(23);
  const size_t t = 5, d = 16, blocks = 3;
  for (size_t heads : {1u, 2u, 4u}) {
    const Matrix mask = PaddedKeyMask(blocks, t);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d / heads));
    Variable qkv(RandomMatrix(blocks * t, 3 * d, &rng, 2.0f));
    const Matrix fused = MultiHeadAttention(qkv, mask, heads, scale).value();
    const Matrix ref = ReferenceAttention(qkv, mask, heads, scale).value();
    ASSERT_TRUE(fused.SameShape(ref));
    // The scalar attention kernel runs the chain's exact arithmetic.
    const bool exact = la::ActiveSimdLevel() == la::SimdLevel::kScalar;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (exact) {
        ASSERT_EQ(fused.data()[i], ref.data()[i]) << "heads " << heads;
      } else {
        EXPECT_NEAR(fused.data()[i], ref.data()[i], 1e-5) << "heads " << heads;
      }
    }
  }
}

TEST(AutogradTest, AddBlockBroadcast) {
  // x: two stacked 3x4 blocks, each gets the same 3x4 addend (the batched
  // position-table add).
  Rng rng(25);
  CheckGradients({RandomMatrix(6, 4, &rng), RandomMatrix(3, 4, &rng)},
                 [](const std::vector<Variable>& v) {
                   return AddBlockBroadcast(v[0], v[1]);
                 });
}

TEST(AutogradTest, MaxPoolRowsBlocked) {
  // Distinct values so the per-block argmax is stable under the probe h.
  Matrix x(6, 2);
  const float vals[] = {0.1f, 0.9f,  0.5f, 0.2f,  -0.3f, 0.4f,
                        0.7f, -0.8f, 0.2f, 0.6f,  -0.1f, 0.3f};
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = vals[i];
  CheckGradients({x}, [](const std::vector<Variable>& v) {
    return MaxPoolRows(v[0], /*blocks=*/2);
  });
}

TEST(AutogradTest, LayerNorm) {
  Rng rng(13);
  CheckGradients({RandomMatrix(3, 6, &rng), RandomMatrix(1, 6, &rng),
                  RandomMatrix(1, 6, &rng)},
                 [](const std::vector<Variable>& v) {
                   return LayerNorm(v[0], v[1], v[2]);
                 },
                 /*tolerance=*/5e-2);
}

TEST(AutogradTest, SoftmaxCrossEntropy) {
  Rng rng(14);
  const std::vector<int32_t> labels = {1, 0, 2};
  CheckGradients({RandomMatrix(3, 3, &rng, 2.0f)},
                 [labels](const std::vector<Variable>& v) {
                   return SoftmaxCrossEntropy(v[0], labels);
                 });
}

TEST(AutogradTest, EmbeddingDuplicateIdsAccumulate) {
  // The same row looked up twice must receive both gradient contributions.
  Matrix table(3, 2, 1.0f);
  Variable t(table, true);
  Variable out = EmbeddingLookup(t, {1, 1});
  Backward(SumToScalar(out));
  EXPECT_FLOAT_EQ(t.grad()(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(t.grad()(0, 0), 0.0f);
}

TEST(AutogradTest, SoftmaxCrossEntropyStableWithHugeLogits) {
  Matrix logits(1, 3);
  logits(0, 0) = 1e4f;
  logits(0, 1) = -1e4f;
  logits(0, 2) = 0.0f;
  Variable x(logits, true);
  Variable loss = SoftmaxCrossEntropy(x, {0});
  EXPECT_TRUE(std::isfinite(loss.value()(0, 0)));
  EXPECT_NEAR(loss.value()(0, 0), 0.0f, 1e-4);
  Backward(loss);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(x.grad().data()[i]));
  }
}

TEST(AutogradTest, ConcatColsSingleInputIsIdentity) {
  Rng rng(55);
  Matrix m = RandomMatrix(2, 3, &rng);
  Variable x(m, true);
  Variable y = ConcatCols({x});
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(y.value().data()[i], m.data()[i]);
  }
  Backward(SumToScalar(y));
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(x.grad().data()[i], 1.0f);
  }
}

TEST(AutogradTest, SliceRowsFullRangeIsIdentity) {
  Rng rng(56);
  Matrix m = RandomMatrix(4, 2, &rng);
  Variable x(m, true);
  Variable y = SliceRows(x, 0, 4);
  Backward(SumToScalar(y));
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(y.value().data()[i], m.data()[i]);
    EXPECT_FLOAT_EQ(x.grad().data()[i], 1.0f);
  }
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Variable x(Matrix(1, 1, 2.0f), true);
  for (int i = 0; i < 3; ++i) {
    Variable loss = SumToScalar(Mul(x, x));  // d/dx = 2x = 4
    Backward(loss);
  }
  EXPECT_FLOAT_EQ(x.grad()(0, 0), 12.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()(0, 0), 0.0f);
}

TEST(AutogradTest, NoGradForLeafInputs) {
  Variable x(Matrix(2, 2, 1.0f), false);
  Variable y = Sigmoid(x);
  EXPECT_FALSE(y.requires_grad());
}

TEST(AutogradTest, DiamondGraphSharedParent) {
  // x used twice: gradients from both paths must accumulate.
  Variable x(Matrix(1, 1, 3.0f), true);
  Variable y = Add(Mul(x, x), x);  // y = x^2 + x, dy/dx = 2x + 1 = 7
  Backward(SumToScalar(y));
  EXPECT_NEAR(x.grad()(0, 0), 7.0f, 1e-5);
}

TEST(AutogradTest, DropoutInference) {
  Rng rng(15);
  Variable x(Matrix(2, 3, 1.0f), true);
  Variable y = Dropout(x, 0.5, &rng, /*training=*/false);
  // Identity at inference.
  for (size_t i = 0; i < y.value().size(); ++i) {
    EXPECT_FLOAT_EQ(y.value().data()[i], 1.0f);
  }
}

TEST(AutogradTest, DropoutInferenceNeverTouchesRng) {
  // Inference callers pass no RNG at all; Dropout must not dereference it
  // (so batched and per-example inference consume zero random numbers).
  Variable x(Matrix(2, 3, 2.0f), true);
  Variable y = Dropout(x, 0.5, /*rng=*/nullptr, /*training=*/false);
  for (size_t i = 0; i < y.value().size(); ++i) {
    EXPECT_FLOAT_EQ(y.value().data()[i], 2.0f);
  }
}

TEST(AutogradTest, StridedDropoutKeepsFullHeightMaskRows) {
  // Row r of a row_stride-3 input stands for row 3r of the full height:
  // it gets that row's mask, and the RNG ends where the full-height draw
  // leaves it.
  const size_t blocks = 4, stride = 3, cols = 5;
  Rng full_rng(17), strided_rng(17);
  const Variable full = Dropout(Variable(Matrix(blocks * stride, cols, 1.0f)),
                                0.3, &full_rng, /*training=*/true);
  const Variable strided = Dropout(Variable(Matrix(blocks, cols, 1.0f)), 0.3,
                                   &strided_rng, /*training=*/true, stride);
  ASSERT_EQ(strided.rows(), blocks);
  for (size_t r = 0; r < blocks; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(strided.value()(r, c), full.value()(r * stride, c))
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(strided_rng.Next(), full_rng.Next());
}

TEST(AutogradTest, DropoutTrainingScalesKeptUnits) {
  Rng rng(16);
  Variable x(Matrix(1, 1000, 1.0f), true);
  Variable y = Dropout(x, 0.25, &rng, /*training=*/true);
  double sum = 0.0;
  int zeros = 0;
  for (size_t i = 0; i < y.value().size(); ++i) {
    const float v = y.value().data()[i];
    if (v == 0.0f) ++zeros;
    else EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5);
    sum += v;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.25, 0.06);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.08);  // inverted dropout keeps the mean
}

}  // namespace
}  // namespace semtag::nn
