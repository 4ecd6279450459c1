// Property-based checks of the metric implementations over randomized
// inputs (parameterized over seeds).

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/calibration.h"
#include "eval/metrics.h"

namespace semtag::eval {
namespace {

struct RandomCase {
  std::vector<int> labels;
  std::vector<double> scores;
};

RandomCase MakeCase(uint64_t seed, size_t n, double ratio) {
  Rng rng(seed);
  RandomCase c;
  for (size_t i = 0; i < n; ++i) {
    const int y = rng.Bernoulli(ratio) ? 1 : 0;
    c.labels.push_back(y);
    c.scores.push_back(rng.Normal(y * 0.8, 1.0));
  }
  return c;
}

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, AucInvariantUnderMonotoneTransform) {
  const RandomCase c = MakeCase(GetParam(), 400, 0.3);
  const double base = Auc(c.labels, c.scores);
  std::vector<double> transformed = c.scores;
  for (auto& s : transformed) s = std::exp(0.5 * s) + 3.0;
  EXPECT_NEAR(Auc(c.labels, transformed), base, 1e-9);
}

TEST_P(MetricsPropertyTest, AucFlipsUnderNegation) {
  const RandomCase c = MakeCase(GetParam() + 100, 300, 0.4);
  std::vector<double> negated = c.scores;
  for (auto& s : negated) s = -s;
  EXPECT_NEAR(Auc(c.labels, c.scores) + Auc(c.labels, negated), 1.0, 1e-9);
}

TEST_P(MetricsPropertyTest, F1BoundedByPrecisionAndRecall) {
  const RandomCase c = MakeCase(GetParam() + 200, 500, 0.2);
  const auto preds = ThresholdScores(c.scores, 0.4);
  const Confusion conf = ComputeConfusion(c.labels, preds);
  const double f1 = conf.F1();
  EXPECT_LE(f1, std::max(conf.Precision(), conf.Recall()) + 1e-12);
  EXPECT_GE(f1, std::min(conf.Precision(), conf.Recall()) - 1e-12);
}

TEST_P(MetricsPropertyTest, CalibratedF1DominatesAnyFixedThreshold) {
  const RandomCase c = MakeCase(GetParam() + 300, 400, 0.25);
  const auto calibration = CalibrateMaxF1(c.labels, c.scores, 400);
  for (double t : {-1.0, -0.3, 0.0, 0.4, 0.9}) {
    const double fixed = F1Score(c.labels, ThresholdScores(c.scores, t));
    // Dense sweep over the score range dominates up to grid resolution.
    EXPECT_GE(calibration.best_f1, fixed - 0.03) << "threshold " << t;
  }
}

TEST_P(MetricsPropertyTest, MicroEqualsMacroUnderEqualWeights) {
  Rng rng(GetParam() + 400);
  std::vector<double> values;
  std::vector<int64_t> weights;
  for (int i = 0; i < 7; ++i) {
    values.push_back(rng.UniformDouble());
    weights.push_back(10);
  }
  EXPECT_NEAR(MicroAverage(values, weights), MacroAverage(values), 1e-12);
}

TEST_P(MetricsPropertyTest, AccuracyMatchesConfusionIdentity) {
  const RandomCase c = MakeCase(GetParam() + 500, 250, 0.5);
  const auto preds = ThresholdScores(c.scores, 0.2);
  const Confusion conf = ComputeConfusion(c.labels, preds);
  EXPECT_EQ(conf.tp + conf.fp + conf.tn + conf.fn, 250);
  int correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) correct += preds[i] == c.labels[i];
  EXPECT_NEAR(correct / 250.0, conf.Accuracy(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace semtag::eval
