#include <gtest/gtest.h>

#include "eval/metrics.h"

namespace semtag::eval {
namespace {

TEST(ConfusionTest, PaperWorkedExample) {
  // Section 5.1: 10 positives, 8 tagged, 6 correct => P=0.75, R=0.6,
  // F1=0.66...
  Confusion c;
  c.tp = 6;
  c.fp = 2;
  c.fn = 4;
  c.tn = 88;
  EXPECT_DOUBLE_EQ(c.Precision(), 0.75);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.6);
  EXPECT_NEAR(c.F1(), 2 * 0.75 * 0.6 / (0.75 + 0.6), 1e-12);
}

TEST(ConfusionTest, DegenerateCases) {
  Confusion empty;
  EXPECT_DOUBLE_EQ(empty.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(empty.F1(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Accuracy(), 0.0);
}

TEST(ComputeConfusionTest, CountsAllQuadrants) {
  const std::vector<int> labels = {1, 1, 0, 0, 1};
  const std::vector<int> preds = {1, 0, 1, 0, 1};
  const Confusion c = ComputeConfusion(labels, preds);
  EXPECT_EQ(c.tp, 2);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_DOUBLE_EQ(c.Accuracy(), 3.0 / 5.0);
}

TEST(F1ScoreTest, PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(F1Score({1, 0, 1}, {1, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(F1Score({1, 0, 1}, {0, 1, 0}), 0.0);
}

TEST(AucTest, PerfectRanking) {
  EXPECT_DOUBLE_EQ(Auc({0, 0, 1, 1}, {0.1, 0.2, 0.8, 0.9}), 1.0);
}

TEST(AucTest, ReversedRanking) {
  EXPECT_DOUBLE_EQ(Auc({0, 0, 1, 1}, {0.9, 0.8, 0.2, 0.1}), 0.0);
}

TEST(AucTest, RandomScoresGiveHalf) {
  // All scores identical: ties share ranks -> AUC 0.5 exactly.
  EXPECT_DOUBLE_EQ(Auc({0, 1, 0, 1}, {0.5, 0.5, 0.5, 0.5}), 0.5);
}

TEST(AucTest, SingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({1, 1}, {0.1, 0.9}), 0.5);
  EXPECT_DOUBLE_EQ(Auc({0, 0}, {0.1, 0.9}), 0.5);
}

TEST(AucTest, KnownMixedValue) {
  // pos scores {0.8, 0.4}, neg scores {0.6, 0.2}:
  // pairs won 3 of 4 -> 0.75.
  EXPECT_DOUBLE_EQ(Auc({1, 0, 1, 0}, {0.8, 0.6, 0.4, 0.2}), 0.75);
}

TEST(ThresholdScoresTest, ThresholdIsInclusive) {
  const auto preds = ThresholdScores({0.2, 0.5, 0.7}, 0.5);
  EXPECT_EQ(preds, (std::vector<int>{0, 1, 1}));
}

TEST(AveragesTest, MacroIsUnweighted) {
  EXPECT_DOUBLE_EQ(MacroAverage({0.2, 0.4, 0.9}), 0.5);
  EXPECT_DOUBLE_EQ(MacroAverage({}), 0.0);
}

TEST(AveragesTest, MicroWeightsBySize) {
  // Large dataset dominates: the paper's Section on micro-F1.
  const double micro = MicroAverage({0.9, 0.1}, {1, 99});
  EXPECT_NEAR(micro, 0.9 * 0.01 + 0.1 * 0.99, 1e-12);
}

}  // namespace
}  // namespace semtag::eval
