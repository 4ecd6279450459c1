#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/specs.h"
#include "eval/metrics.h"
#include "models/simple/rule_tagger.h"

namespace semtag::models {
namespace {

/// Twenty records where "alpha beta" is always positive and "gamma delta"
/// always negative: training induces exactly the positive tokens.
data::Dataset TwoPhraseDataset() {
  data::Dataset d("two-phrase");
  for (int i = 0; i < 20; ++i) {
    d.Add(data::Example{i % 2 ? "alpha beta" : "gamma delta", i % 2, i % 2});
  }
  return d;
}

TEST(RuleTaggerTest, ScoreIsTheKeywordFraction) {
  RuleTagger tagger;
  ASSERT_TRUE(tagger.Train(TwoPhraseDataset()).ok());
  EXPECT_TRUE(tagger.keywords().count("alpha"));
  EXPECT_FALSE(tagger.keywords().count("gamma"));
  EXPECT_EQ(tagger.Predict("we saw alpha today"), 1);
  EXPECT_EQ(tagger.Predict("we saw gamma today"), 0);
  EXPECT_DOUBLE_EQ(tagger.Score("alpha alpha"), 1.0);
  EXPECT_DOUBLE_EQ(tagger.Score("one alpha here yes"), 0.25);
}

TEST(RuleTaggerTest, EmptyTextScoresZero) {
  RuleTagger tagger;
  ASSERT_TRUE(tagger.Train(TwoPhraseDataset()).ok());
  EXPECT_DOUBLE_EQ(tagger.Score(""), 0.0);
  EXPECT_EQ(tagger.Predict(""), 0);
}

TEST(RuleTaggerTest, InducesKeywordsFromData) {
  data::GeneratorConfig config;
  config.bg_vocab = 2000;
  config.signal_topic = 16;
  config.positive_topics = {17, 18};
  config.negative_topics = {19, 20};
  config.signal_strength = 0.35;
  config.signal_leak = 0.1;
  config.seed = 71;
  data::Dataset d = data::GenerateDataset(data::SharedLanguage(), config,
                                          "rules", 800, 0.5);
  auto [train, test] = d.Split(0.8);
  RuleTagger tagger;
  ASSERT_TRUE(tagger.Train(train).ok());
  EXPECT_FALSE(tagger.keywords().empty());
  // Rules work, but clearly below learned models on the same task
  // (Section 1's point): decent but not great F1.
  const double f1 =
      eval::F1Score(test.Labels(), tagger.PredictAll(test.Texts()));
  EXPECT_GT(f1, 0.5);
}

TEST(RuleTaggerTest, FailsWhenNoTokenQualifies) {
  data::Dataset flat("flat");
  // Identical text in both classes: no informative token exists.
  for (int i = 0; i < 40; ++i) {
    flat.Add(data::Example{"same words every time", i % 2, i % 2});
  }
  RuleTagger tagger;
  EXPECT_EQ(tagger.Train(flat).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace semtag::models
