#include <string>

#include <gtest/gtest.h>

#include "core/sota.h"
#include "data/specs.h"

namespace semtag::core {
namespace {

/// The Figure 5 row for `dataset`, or nullptr when it has none.
const SotaReference* FindSota(const std::string& dataset) {
  for (const auto& ref : AllSotaReferences()) {
    if (ref.dataset == dataset) return &ref;
  }
  return nullptr;
}

TEST(SotaTest, FifteenFigureFiveRows) {
  EXPECT_EQ(AllSotaReferences().size(), 15u);
}

TEST(SotaTest, SuggIsTheStatedChampionScore) {
  const SotaReference* sugg = FindSota("SUGG");
  ASSERT_NE(sugg, nullptr);
  EXPECT_DOUBLE_EQ(sugg->value, 0.85);
  EXPECT_EQ(sugg->metric, "F1");
  EXPECT_FALSE(sugg->reconstructed);
}

TEST(SotaTest, MetricsFollowTheCaption) {
  // "F1 by default, Accuracy for FUNNY*, TV, and AUC for BOOK."
  EXPECT_EQ(FindSota("FUNNY*")->metric, "Accuracy");
  EXPECT_EQ(FindSota("TV")->metric, "Accuracy");
  EXPECT_EQ(FindSota("BOOK")->metric, "AUC");
  EXPECT_EQ(FindSota("EVAL")->metric, "F1");
}

TEST(SotaTest, BertLosesOnlyWhereThePaperSaysSo) {
  // Section 5.3: BERT does not outperform SOTA on SENT, FUNNY*, BOOK.
  for (const auto& ref : AllSotaReferences()) {
    const bool bert_loses = ref.value > ref.paper_bert;
    const bool expected_loss = ref.dataset == "SENT" ||
                               ref.dataset == "FUNNY*" ||
                               ref.dataset == "BOOK";
    EXPECT_EQ(bert_loses, expected_loss) << ref.dataset;
  }
}

TEST(SotaTest, UnknownDatasetIsNotFound) {
  EXPECT_EQ(FindSota("AMAZON"), nullptr);  // not in Figure 5
}

TEST(SotaTest, EverySotaDatasetIsAStudyDataset) {
  for (const auto& ref : AllSotaReferences()) {
    EXPECT_TRUE(data::FindSpec(ref.dataset).ok()) << ref.dataset;
  }
}

}  // namespace
}  // namespace semtag::core
