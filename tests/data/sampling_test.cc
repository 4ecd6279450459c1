#include <gtest/gtest.h>

#include "data/sampling.h"

namespace semtag::data {
namespace {

Dataset MakeDataset(int n_pos, int n_neg) {
  Dataset d("s");
  for (int i = 0; i < n_pos; ++i) {
    d.Add(Example{"p" + std::to_string(i), 1, 1});
  }
  for (int i = 0; i < n_neg; ++i) {
    d.Add(Example{"n" + std::to_string(i), 0, 0});
  }
  return d;
}

TEST(SampleWithRatioTest, ExactCounts) {
  Dataset d = MakeDataset(500, 500);
  Rng rng(1);
  const Dataset s = SampleWithRatio(d, 200, 0.3, &rng);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_EQ(s.PositiveCount(), 60);
}

TEST(SampleWithRatioTest, OversamplesWhenPoolTooSmall) {
  Dataset d = MakeDataset(10, 500);
  Rng rng(2);
  const Dataset s = SampleWithRatio(d, 100, 0.5, &rng);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.PositiveCount(), 50);  // 10 positives drawn with replacement
}

TEST(SampleWithRatioTest, SweepOfRatios) {
  Dataset d = MakeDataset(400, 400);
  Rng rng(3);
  for (double r : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const Dataset s = SampleWithRatio(d, 200, r, &rng);
    EXPECT_NEAR(s.PositiveRatio(), r, 0.01) << "ratio " << r;
  }
}

TEST(UndersampleNegativesTest, HitsTargetRatio) {
  Dataset d = MakeDataset(100, 900);
  Rng rng(4);
  const Dataset balanced = UndersampleNegatives(d, 0.5, &rng);
  EXPECT_EQ(balanced.PositiveCount(), 100);
  EXPECT_NEAR(balanced.PositiveRatio(), 0.5, 0.01);
  EXPECT_EQ(balanced.size(), 200u);
}

TEST(UndersampleNegativesTest, NoopWhenAlreadyBalanced) {
  Dataset d = MakeDataset(100, 100);
  Rng rng(5);
  const Dataset same = UndersampleNegatives(d, 0.5, &rng);
  EXPECT_EQ(same.size(), d.size());
}

TEST(SamplingTest, PreservesRecordPayloads) {
  Dataset d = MakeDataset(20, 20);
  Rng rng(7);
  const Dataset s = SampleWithRatio(d, 10, 0.5, &rng);
  for (const auto& e : s.examples()) {
    EXPECT_EQ(e.text[0], e.label == 1 ? 'p' : 'n');
  }
}

}  // namespace
}  // namespace semtag::data
