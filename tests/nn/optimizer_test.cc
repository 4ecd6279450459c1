#include <cmath>

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "nn/optimizer.h"

namespace semtag::nn {
namespace {

/// Minimizes f(w) = (w - 3)^2 elementwise.
double RunQuadratic(Optimizer* optimizer, const Variable& w, int steps) {
  for (int s = 0; s < steps; ++s) {
    Variable target(la::Matrix(1, 4, 3.0f));
    Variable diff = Sub(w, target);
    Variable loss = SumToScalar(Mul(diff, diff));
    Backward(loss);
    optimizer->Step();
  }
  double err = 0.0;
  for (size_t i = 0; i < w.value().size(); ++i) {
    err += std::fabs(w.value().data()[i] - 3.0);
  }
  return err / 4.0;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Variable w(la::Matrix(1, 4, 0.0f), true);
  Adam adam({w}, 0.3f);
  EXPECT_LT(RunQuadratic(&adam, w, 200), 1e-2);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Variable w(la::Matrix(1, 2, 1.0f), true);
  Adam adam({w}, 0.01f);
  Backward(SumToScalar(Mul(w, w)));
  EXPECT_GT(w.grad().Norm(), 0.0f);
  adam.Step();
  EXPECT_FLOAT_EQ(w.grad().Norm(), 0.0f);
}

TEST(OptimizerTest, UntouchedParameterIsSkipped) {
  // A parameter that never received a gradient must not be updated.
  Variable used(la::Matrix(1, 2, 1.0f), true);
  Variable unused(la::Matrix(1, 2, 5.0f), true);
  Adam adam({used, unused}, 0.5f);
  Backward(SumToScalar(Mul(used, used)));
  adam.Step();
  EXPECT_FLOAT_EQ(unused.value()(0, 0), 5.0f);
  EXPECT_NE(used.value()(0, 0), 1.0f);
}

}  // namespace
}  // namespace semtag::nn
