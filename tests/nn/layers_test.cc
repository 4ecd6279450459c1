#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace semtag::nn {
namespace {

TEST(LinearTest, ShapesAndParameters) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Variable x(la::Matrix(2, 4, 1.0f));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
  std::vector<Variable> params;
  layer.CollectParameters(&params);
  EXPECT_EQ(params.size(), 2u);
}

TEST(ConvPoolTest, OutputIsSingleRow) {
  Rng rng(2);
  ConvPool conv(3, 8, 16, &rng);
  Variable x(la::Matrix(10, 8, 0.5f));
  Variable y = conv.ForwardBatch(x, 1);
  EXPECT_EQ(y.rows(), 1u);
  EXPECT_EQ(y.cols(), 16u);
}

TEST(LstmTest, FinalHiddenShape) {
  Rng rng(3);
  Lstm lstm(8, 12, &rng);
  Variable x(la::Matrix(6, 8, 0.1f));
  Variable h = lstm.ForwardBatch(x, 1);
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 12u);
  // Hidden state is bounded by tanh * sigmoid.
  for (size_t c = 0; c < h.cols(); ++c) {
    EXPECT_LT(std::fabs(h.value()(0, c)), 1.0f);
  }
}

TEST(LstmTest, GradientsFlowToAllParameters) {
  Rng rng(4);
  Lstm lstm(4, 6, &rng);
  la::Matrix xm(5, 4);
  for (size_t i = 0; i < xm.size(); ++i) {
    xm.data()[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  Variable x(xm, true);
  Variable h = lstm.ForwardBatch(x, 1);
  Backward(SumToScalar(h));
  std::vector<Variable> params;
  lstm.CollectParameters(&params);
  for (auto& p : params) {
    ASSERT_TRUE(p.grad().SameShape(p.value()));
    EXPECT_GT(p.grad().Norm(), 0.0f);
  }
  EXPECT_GT(x.grad().Norm(), 0.0f);
}

TEST(GruTest, FinalHiddenShapeAndGradients) {
  Rng rng(21);
  Gru gru(6, 10, &rng);
  la::Matrix xm(5, 6);
  for (size_t i = 0; i < xm.size(); ++i) {
    xm.data()[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  Variable x(xm, true);
  Variable h = gru.ForwardBatch(x, 1);
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 10u);
  Backward(SumToScalar(h));
  std::vector<Variable> params;
  gru.CollectParameters(&params);
  EXPECT_EQ(params.size(), 6u);
  for (auto& p : params) {
    ASSERT_TRUE(p.grad().SameShape(p.value()));
    EXPECT_GT(p.grad().Norm(), 0.0f);
  }
  EXPECT_GT(x.grad().Norm(), 0.0f);
}

TEST(GruTest, HiddenStateIsBounded) {
  Rng rng(22);
  Gru gru(4, 8, &rng);
  la::Matrix xm(12, 4, 3.0f);  // large inputs
  Variable h = gru.ForwardBatch(Variable(xm), 1);
  for (size_t c = 0; c < h.cols(); ++c) {
    EXPECT_LE(std::fabs(h.value()(0, c)), 1.0f);  // convex combo of tanh
  }
}

TEST(AttentionTest, MaskBlocksPaddedKeys) {
  Rng rng(5);
  MultiHeadSelfAttention attention(8, 2, &rng);
  la::Matrix xm(4, 8);
  for (size_t i = 0; i < xm.size(); ++i) {
    xm.data()[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  // Mask key 3 for everyone.
  la::Matrix mask(4, 4);
  for (size_t i = 0; i < 4; ++i) mask(i, 3) = -1e9f;

  Variable x1(xm);
  Variable out1 = attention.Forward(x1, mask);

  // Perturb the masked position's input; outputs of other positions must
  // not change (they cannot attend to it).
  la::Matrix xm2 = xm;
  for (size_t c = 0; c < 8; ++c) xm2(3, c) += 5.0f;
  Variable x2(xm2);
  Variable out2 = attention.Forward(x2, mask);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(out1.value()(r, c), out2.value()(r, c), 1e-4)
          << "row " << r << " col " << c;
    }
  }
}

TEST(TransformerLayerTest, ShapePreservedAndTrainable) {
  Rng rng(6);
  TransformerEncoderLayer layer(8, 2, 16, &rng);
  la::Matrix xm(5, 8);
  for (size_t i = 0; i < xm.size(); ++i) {
    xm.data()[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  Variable x(xm, true);
  la::Matrix mask(5, 5);
  Variable y = layer.Forward(x, mask, 0.0, &rng, false);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 8u);
  Backward(SumToScalar(y));
  std::vector<Variable> params;
  layer.CollectParameters(&params);
  // Attention (fused Q|K|V weight + bias, output weight + bias), then two
  // norms and two ffn linears at two parameters each.
  EXPECT_EQ(params.size(), 12u);
  int with_grad = 0;
  for (auto& p : params) {
    if (p.grad().SameShape(p.value()) && p.grad().Norm() > 0.0f) {
      ++with_grad;
    }
  }
  EXPECT_GT(with_grad, 10);
}

/// Bitwise equality of two same-shaped matrices.
void ExpectBitIdentical(const la::Matrix& got, const la::Matrix& want,
                        const char* what) {
  ASSERT_TRUE(got.SameShape(want)) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " element " << i;
  }
}

TEST(TransformerLayerTest, FirstRowsMatchFullHeightLayer) {
  // BlockRows::kFirst computes each block's first row alone. In training
  // (dropout on), its output, the input gradient and every parameter
  // gradient equal those of the full-height layer whose objective reads
  // only the first rows, bit for bit at any block count, and both leave the
  // dropout RNG in the same state.
  const size_t d = 8, t = 12;
  for (size_t blocks : {1u, 3u, 6u}) {
    SCOPED_TRACE(testing::Message() << "blocks " << blocks);
    Rng rng(8);
    TransformerEncoderLayer layer(d, 2, 16, &rng);
    std::vector<Variable> params;
    layer.CollectParameters(&params);
    la::Matrix xm(blocks * t, d);
    for (size_t i = 0; i < xm.size(); ++i) {
      xm.data()[i] = static_cast<float>(rng.UniformDouble(-1, 1));
    }
    la::Matrix weights(blocks, d);
    for (size_t i = 0; i < weights.size(); ++i) {
      weights.data()[i] = static_cast<float>(rng.UniformDouble(-1, 1));
    }
    // Block s pads its last s keys.
    la::Matrix mask(blocks * t, t);
    std::vector<int32_t> firsts;
    for (size_t s = 0; s < blocks; ++s) {
      firsts.push_back(static_cast<int32_t>(s * t));
      for (size_t j = t - s; j < t; ++j) {
        for (size_t i = 0; i < t; ++i) mask(s * t + i, j) = -1e9f;
      }
    }
    struct Run {
      la::Matrix out, x_grad;
      std::vector<la::Matrix> grads;
      uint64_t next_draw;
    };
    auto run = [&](BlockRows rows) {
      for (auto& p : params) p.ZeroGrad();
      Rng dropout_rng(9);
      Variable x(xm, /*requires_grad=*/true);
      Variable y =
          layer.Forward(x, mask, 0.1, &dropout_rng, /*training=*/true, rows);
      if (rows == BlockRows::kAll) y = GatherRows(y, firsts);
      Backward(SumToScalar(Mul(y, Variable(weights))));
      Run r{y.value(), x.grad(), {}, dropout_rng.Next()};
      for (const auto& p : params) r.grads.push_back(p.grad());
      return r;
    };
    const Run full = run(BlockRows::kAll);
    const Run first = run(BlockRows::kFirst);
    ExpectBitIdentical(first.out, full.out, "output");
    ExpectBitIdentical(first.x_grad, full.x_grad, "input gradient");
    for (size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "parameter " << i);
      ExpectBitIdentical(first.grads[i], full.grads[i], "parameter gradient");
    }
    EXPECT_EQ(first.next_draw, full.next_draw);
  }
}

TEST(TrainingTest, TinyNetworkLearnsXor) {
  // End-to-end sanity: a 2-layer MLP fits XOR with Adam.
  Rng rng(7);
  Linear l1(2, 8, &rng);
  Linear l2(8, 2, &rng);
  std::vector<Variable> params;
  l1.CollectParameters(&params);
  l2.CollectParameters(&params);
  Adam adam(params, 0.05f);

  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int32_t> targets = {0, 1, 1, 0};
  for (int step = 0; step < 300; ++step) {
    la::Matrix xm(4, 2);
    for (int i = 0; i < 4; ++i) {
      xm(static_cast<size_t>(i), 0) = inputs[i][0];
      xm(static_cast<size_t>(i), 1) = inputs[i][1];
    }
    Variable x(xm);
    Variable logits = l2.Forward(Tanh(l1.Forward(x)));
    Variable loss = SoftmaxCrossEntropy(logits, targets);
    Backward(loss);
    adam.Step();
    if (step == 299) {
      EXPECT_LT(loss.value()(0, 0), 0.1f);
    }
  }
}

}  // namespace
}  // namespace semtag::nn
