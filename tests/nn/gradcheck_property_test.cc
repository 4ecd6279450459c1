// Parameterized gradient checks of composed networks: instead of checking
// each op in isolation (autograd_test.cc), these sweep random shapes and
// verify a full forward/backward through realistic compositions.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace semtag::nn {
namespace {

struct Shape {
  size_t seq;
  size_t dim;
  size_t heads;
};

class ComposedGradcheckTest : public ::testing::TestWithParam<Shape> {};

la::Matrix RandomMatrix(size_t r, size_t c, Rng* rng) {
  la::Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformDouble(-1, 1));
  }
  return m;
}

/// Numerically checks d(loss)/d(x) for a loss built by `forward`.
void CheckInputGradient(
    const la::Matrix& x,
    const std::function<Variable(const Variable&)>& forward,
    double tolerance = 5e-2) {
  Variable input(x, /*requires_grad=*/true);
  Variable loss = forward(input);
  ASSERT_EQ(loss.rows(), 1u);
  ASSERT_EQ(loss.cols(), 1u);
  Backward(loss);
  const la::Matrix grad = input.grad();

  const double h = 1e-2;
  Rng pick(123);
  // Probe a sample of elements (full sweep is covered per-op elsewhere).
  for (int probe = 0; probe < 10; ++probe) {
    const size_t i = pick.Uniform(x.size());
    la::Matrix xp = x;
    xp.data()[i] += static_cast<float>(h);
    la::Matrix xm = x;
    xm.data()[i] -= static_cast<float>(h);
    const double fp = forward(Variable(xp)).value()(0, 0);
    const double fm = forward(Variable(xm)).value()(0, 0);
    const double numeric = (fp - fm) / (2 * h);
    EXPECT_NEAR(grad.data()[i], numeric,
                tolerance * std::max(1.0, std::fabs(numeric)))
        << "element " << i;
  }
}

TEST_P(ComposedGradcheckTest, TransformerLayerLoss) {
  const Shape shape = GetParam();
  Rng rng(shape.seq * 100 + shape.dim);
  TransformerEncoderLayer layer(shape.dim, shape.heads, shape.dim * 2,
                                &rng);
  la::Matrix mask(shape.seq, shape.seq);
  const la::Matrix x = RandomMatrix(shape.seq, shape.dim, &rng);
  la::Matrix weights = RandomMatrix(shape.seq, shape.dim, &rng);
  CheckInputGradient(x, [&](const Variable& input) {
    Variable out = layer.Forward(input, mask, 0.0, &rng, false);
    return SumToScalar(Mul(out, Variable(weights)));
  });
}

TEST_P(ComposedGradcheckTest, LstmFinalHiddenLoss) {
  const Shape shape = GetParam();
  Rng rng(shape.seq * 7 + shape.dim);
  Lstm lstm(shape.dim, shape.dim, &rng);
  const la::Matrix x = RandomMatrix(shape.seq, shape.dim, &rng);
  la::Matrix weights = RandomMatrix(1, shape.dim, &rng);
  CheckInputGradient(x, [&](const Variable& input) {
    return SumToScalar(Mul(lstm.ForwardBatch(input, 1), Variable(weights)));
  });
}

TEST_P(ComposedGradcheckTest, ConvPoolSoftmaxLoss) {
  const Shape shape = GetParam();
  Rng rng(shape.seq * 13 + shape.dim);
  ConvPool conv(2, shape.dim, 6, &rng);
  Linear head(6, 2, &rng);
  const la::Matrix x = RandomMatrix(shape.seq, shape.dim, &rng);
  CheckInputGradient(
      x,
      [&](const Variable& input) {
        Variable logits = head.Forward(conv.ForwardBatch(input, 1));
        return SoftmaxCrossEntropy(logits, {1});
      },
      /*tolerance=*/8e-2);  // ReLU/max kinks make probes noisier
}

INSTANTIATE_TEST_SUITE_P(Shapes, ComposedGradcheckTest,
                         ::testing::Values(Shape{4, 8, 2}, Shape{6, 12, 3},
                                           Shape{9, 16, 4}));

}  // namespace
}  // namespace semtag::nn
