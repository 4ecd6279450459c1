#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "nn/optimizer.h"
#include "nn/train_guard.h"

namespace semtag::nn {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// One 1x2 parameter with a controllable gradient.
struct Rig {
  Rig() {
    la::Matrix w(1, 2);
    w(0, 0) = 1.0f;
    w(0, 1) = -2.0f;
    param = Variable(w, /*requires_grad=*/true);
  }
  void SetGrad(float g0, float g1) {
    param.node()->grad = la::Matrix(1, 2);
    param.node()->grad(0, 0) = g0;
    param.node()->grad(0, 1) = g1;
  }
  Variable param;
};

/// Plain gradient descent, w -= lr * g. Unlike Adam's, its update scales
/// with the gradient, so a wrong clip factor in the guard shows up in the
/// parameters.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Variable> params, float lr)
      : Optimizer(std::move(params)), lr_(lr) {}

  void Step() override {
    for (auto& p : params_) {
      auto node = p.node();
      if (!node->grad.SameShape(node->value)) continue;
      node->value.Axpy(-lr_, node->grad);
      node->grad.Fill(0.0f);
    }
  }
  float lr() const override { return lr_; }
  void set_lr(float lr) override { lr_ = lr; }

 private:
  float lr_;
};

class TrainGuardTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearFaults(); }
};

TEST_F(TrainGuardTest, HealthyStepMatchesClipPlusStep) {
  // Two identical rigs: one stepped through the guard, one clipped by hand
  // to the global norm and then stepped. Bit-identical updates are the
  // invariant that keeps cached study results valid.
  Rig guarded, plain;
  Sgd opt_a({guarded.param}, 0.1f);
  Sgd opt_b({plain.param}, 0.1f);
  TrainGuardOptions options;
  options.clip_norm = 0.5f;  // force clipping so both paths exercise it
  options.context = "unit";
  TrainGuard guard(&opt_a, options);

  guarded.SetGrad(3.0f, 4.0f);
  plain.SetGrad(3.0f, 4.0f);
  ASSERT_TRUE(guard.Step(1.25f).ok());
  // |(3, 4)| = 5, so the clip scales the gradient by 0.5 / 5.
  plain.param.node()->grad.Scale(static_cast<float>(0.5 / 5.0));
  opt_b.Step();
  EXPECT_EQ(guarded.param.value()(0, 0), plain.param.value()(0, 0));
  EXPECT_EQ(guarded.param.value()(0, 1), plain.param.value()(0, 1));
  EXPECT_NEAR(guarded.param.value()(0, 0), 1.0f - 0.1f * 0.3f, 1e-6f);
  EXPECT_EQ(guard.retries(), 0);
}

TEST_F(TrainGuardTest, NonFiniteLossRestoresSnapshotAndHalvesLr) {
  Rig rig;
  Sgd opt({rig.param}, 0.1f);
  TrainGuardOptions options;
  options.context = "unit";
  options.backoff_ms = 0;  // keep the test instant
  TrainGuard guard(&opt, options);

  rig.SetGrad(1.0f, 1.0f);
  ASSERT_TRUE(guard.Step(kNaN).ok());  // recovery, not failure
  EXPECT_EQ(guard.retries(), 1);
  EXPECT_FLOAT_EQ(opt.lr(), 0.05f);
  // Parameters rolled back to the snapshot taken at construction.
  EXPECT_FLOAT_EQ(rig.param.value()(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(rig.param.value()(0, 1), -2.0f);
  // And the poisoned gradients were cleared so the retry starts fresh.
  EXPECT_FLOAT_EQ(rig.param.grad()(0, 0), 0.0f);
}

TEST_F(TrainGuardTest, NonFiniteGradientIsDetected) {
  Rig rig;
  Sgd opt({rig.param}, 0.1f);
  TrainGuardOptions options;
  options.context = "unit";
  options.backoff_ms = 0;
  TrainGuard guard(&opt, options);

  rig.SetGrad(kNaN, 1.0f);
  ASSERT_TRUE(guard.Step(0.7f).ok());
  EXPECT_EQ(guard.retries(), 1);
  EXPECT_FLOAT_EQ(rig.param.value()(0, 0), 1.0f);  // no NaN leaked in
}

TEST_F(TrainGuardTest, ExhaustedRetriesReturnInternal) {
  Rig rig;
  Sgd opt({rig.param}, 0.1f);
  TrainGuardOptions options;
  options.context = "unit";
  options.max_retries = 2;
  options.backoff_ms = 0;
  TrainGuard guard(&opt, options);

  Status st = Status::OK();
  for (int i = 0; i < 3 && st.ok(); ++i) {
    rig.SetGrad(1.0f, 1.0f);
    st = guard.Step(kNaN);
  }
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(guard.retries(), 3);
  // Even after giving up, parameters hold the last-good snapshot.
  EXPECT_FLOAT_EQ(rig.param.value()(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(rig.param.value()(0, 1), -2.0f);
}

TEST_F(TrainGuardTest, RecoveryAfterFaultTrainsOn) {
  // A diverged step followed by healthy steps: training continues with
  // the halved learning rate.
  Rig rig;
  Sgd opt({rig.param}, 0.1f);
  TrainGuardOptions options;
  options.context = "unit";
  options.backoff_ms = 0;
  TrainGuard guard(&opt, options);

  rig.SetGrad(kNaN, 0.0f);
  ASSERT_TRUE(guard.Step(0.5f).ok());
  rig.SetGrad(1.0f, 0.0f);
  ASSERT_TRUE(guard.Step(0.4f).ok());
  // w0 = 1.0 - 0.05 * 1.0 (halved lr applied to the healthy step).
  EXPECT_FLOAT_EQ(rig.param.value()(0, 0), 0.95f);
  EXPECT_EQ(guard.retries(), 1);
}

TEST_F(TrainGuardTest, InjectedFaultsTriggerTheGuard) {
  ASSERT_TRUE(SetFaultsFromSpec("nan_loss:match=unit:count=1").ok());
  Rig rig;
  Sgd opt({rig.param}, 0.1f);
  TrainGuardOptions options;
  options.context = "unit";
  options.backoff_ms = 0;
  TrainGuard guard(&opt, options);

  rig.SetGrad(0.5f, 0.5f);
  ASSERT_TRUE(guard.Step(0.3f).ok());  // fault turns the loss into NaN
  EXPECT_EQ(guard.retries(), 1);
  EXPECT_EQ(FaultTriggerCount(FaultPoint::kNonFiniteLoss), 1);
  rig.SetGrad(0.5f, 0.5f);
  ASSERT_TRUE(guard.Step(0.3f).ok());  // count=1: next step is healthy
  EXPECT_EQ(guard.retries(), 1);
}

}  // namespace
}  // namespace semtag::nn
