// Confidence-gated cascade (core/cascade.h): calibration sweep, policy
// and its parser, end-to-end training, and the determinism contract — the
// escalated set and the final scores must be bit-identical across thread
// counts and batch caps.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cascade.h"
#include "core/experiment.h"
#include "data/generator.h"
#include "data/specs.h"
#include "models/factory.h"
#include "obs/metrics.h"

namespace semtag::core {
namespace {

// ---------------------------------------------------------------------------
// CalibrateCascadeThreshold
// ---------------------------------------------------------------------------

TEST(CascadeCalibrationTest, PerfectSimpleNeverEscalates) {
  const std::vector<int> labels = {1, 0, 1, 0, 1, 0};
  const std::vector<double> simple = {0.9, 0.1, 0.8, 0.2, 0.99, 0.01};
  const std::vector<double> deep = {0.9, 0.1, 0.9, 0.1, 0.9, 0.1};
  const CascadeCalibration cal =
      CalibrateCascadeThreshold(labels, simple, deep, 0.5);
  EXPECT_DOUBLE_EQ(cal.threshold, -1.0);
  EXPECT_DOUBLE_EQ(cal.escalation_fraction, 0.0);
  EXPECT_DOUBLE_EQ(cal.cascade_f1, cal.simple_f1);
  EXPECT_DOUBLE_EQ(cal.simple_f1, 1.0);
}

TEST(CascadeCalibrationTest, UselessSimpleEscalatesEverything) {
  // The simple model is confidently wrong on every example, the deep
  // model is right: only the full sweep meets the budget.
  const std::vector<int> labels = {1, 1, 0, 0};
  const std::vector<double> simple = {0.1, 0.2, 0.9, 0.8};
  const std::vector<double> deep = {0.9, 0.9, 0.1, 0.1};
  const CascadeCalibration cal =
      CalibrateCascadeThreshold(labels, simple, deep, 0.5);
  EXPECT_DOUBLE_EQ(cal.escalation_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cal.cascade_f1, 1.0);
  EXPECT_DOUBLE_EQ(cal.deep_f1, 1.0);
  EXPECT_DOUBLE_EQ(cal.simple_f1, 0.0);
  // The chosen threshold is the maximum simple margin.
  EXPECT_DOUBLE_EQ(cal.threshold, 0.8);  // |2*0.9 - 1| = |2*0.1 - 1|
}

TEST(CascadeCalibrationTest, EscalatesOnlyLowMarginMistakes) {
  // Simple is right when confident and wrong near the boundary; deep is
  // always right. The cheapest in-budget threshold escalates exactly the
  // low-margin slice.
  const std::vector<int> labels = {1, 0, 1, 0, 1, 0, 1, 0};
  const std::vector<double> simple = {0.95, 0.05, 0.9,  0.1,
                                      0.45, 0.55, 0.48, 0.52};
  const std::vector<double> deep = {0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1};
  const CascadeCalibration cal =
      CalibrateCascadeThreshold(labels, simple, deep, 0.5);
  EXPECT_DOUBLE_EQ(cal.deep_f1, 1.0);
  EXPECT_LT(cal.simple_f1, 1.0);
  EXPECT_DOUBLE_EQ(cal.cascade_f1, 1.0);
  // Margins: 0.9, 0.9, 0.8, 0.8 (confident, correct) and ~0.1, ~0.1,
  // ~0.04, ~0.04 (boundary, wrong). Escalating the four low-margin
  // examples reaches F1 1.0; the smallest covering threshold is the
  // larger of the two computed ~0.1 margins (|2*0.55 - 1| and
  // |2*0.45 - 1| differ in the last ulp — not the literal 0.1).
  EXPECT_DOUBLE_EQ(cal.threshold, std::abs(2.0 * 0.55 - 1.0));
  EXPECT_DOUBLE_EQ(cal.escalation_fraction, 0.5);
}

TEST(CascadeCalibrationTest, FrontierIsMonotoneWithExactEndpoints) {
  std::vector<int> labels;
  std::vector<double> simple, deep;
  for (int i = 0; i < 100; ++i) {
    labels.push_back(i % 2);
    simple.push_back(0.01 * i);
    deep.push_back(i % 2 == 1 ? 0.9 : 0.1);
  }
  const CascadeCalibration cal =
      CalibrateCascadeThreshold(labels, simple, deep, 0.5);
  ASSERT_GE(cal.frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(cal.frontier.front().threshold, -1.0);
  EXPECT_DOUBLE_EQ(cal.frontier.front().escalation_fraction, 0.0);
  EXPECT_DOUBLE_EQ(cal.frontier.front().f1, cal.simple_f1);
  EXPECT_DOUBLE_EQ(cal.frontier.back().escalation_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cal.frontier.back().f1, cal.deep_f1);
  for (size_t i = 1; i < cal.frontier.size(); ++i) {
    EXPECT_GT(cal.frontier[i].threshold, cal.frontier[i - 1].threshold);
    EXPECT_GE(cal.frontier[i].escalation_fraction,
              cal.frontier[i - 1].escalation_fraction);
  }
  EXPECT_LE(cal.frontier.size(), 33u);
}

TEST(CascadeCalibrationTest, ThresholdInvariantToInputPermutation) {
  // Tied margins flip as a group, so reordering the holdout must not move
  // the threshold (the property thread-count invariance relies on).
  std::vector<int> labels = {1, 0, 1, 1, 0, 0, 1, 0, 1, 0};
  std::vector<double> simple = {0.6, 0.4, 0.6, 0.55, 0.45,
                                0.4, 0.9, 0.1, 0.52, 0.48};
  std::vector<double> deep = {0.8, 0.2, 0.8, 0.8, 0.2,
                              0.2, 0.8, 0.2, 0.8, 0.2};
  const CascadeCalibration base =
      CalibrateCascadeThreshold(labels, simple, deep, 0.5);
  // Rotate the arrays a few ways.
  for (int rot : {1, 3, 7}) {
    std::vector<int> l(labels.begin() + rot, labels.end());
    l.insert(l.end(), labels.begin(), labels.begin() + rot);
    std::vector<double> s(simple.begin() + rot, simple.end());
    s.insert(s.end(), simple.begin(), simple.begin() + rot);
    std::vector<double> d(deep.begin() + rot, deep.end());
    d.insert(d.end(), deep.begin(), deep.begin() + rot);
    const CascadeCalibration rotated =
        CalibrateCascadeThreshold(l, s, d, 0.5);
    EXPECT_DOUBLE_EQ(rotated.threshold, base.threshold) << "rot " << rot;
    EXPECT_DOUBLE_EQ(rotated.escalation_fraction, base.escalation_fraction);
    EXPECT_DOUBLE_EQ(rotated.cascade_f1, base.cascade_f1);
  }
}

TEST(CascadeCalibrationTest, BudgetSemantics) {
  // A generous budget stops earlier (fewer escalations) than a tight one.
  std::vector<int> labels;
  std::vector<double> simple, deep;
  for (int i = 0; i < 200; ++i) {
    labels.push_back(i % 2);
    // Simple is right except on a 20% low-margin slice.
    const bool hard = i % 5 == 0;
    const double correct = i % 2 == 1 ? 1.0 : 0.0;
    simple.push_back(hard ? 0.5 - (correct - 0.5) * 0.02
                          : 0.1 + correct * 0.8);
    deep.push_back(0.1 + correct * 0.8);
  }
  const CascadeCalibration tight =
      CalibrateCascadeThreshold(labels, simple, deep, 0.1);
  const CascadeCalibration loose =
      CalibrateCascadeThreshold(labels, simple, deep, 20.0);
  EXPECT_LE(loose.escalation_fraction, tight.escalation_fraction);
  EXPECT_GE(tight.cascade_f1, tight.deep_f1 - 0.1 / 100.0);
  EXPECT_GE(loose.cascade_f1, loose.deep_f1 - 20.0 / 100.0);
}

// ---------------------------------------------------------------------------
// PlanCascade / ApplyCascadePolicy
// ---------------------------------------------------------------------------

std::vector<HeatMapRow> TwoCellReference() {
  return {
      // Large clean cell where the simple model already wins.
      {"SIMPLEWINS", 1000000, 0.5, true, 0.90, 0.91},
      // Small clean cell with a big deep edge.
      {"DEEPWINS", 1000, 0.5, true, 0.95, 0.70},
  };
}

DatasetProfile ProfileNear(int64_t records, double ratio, bool clean) {
  DatasetProfile profile;
  profile.num_records = records;
  profile.positive_ratio = ratio;
  profile.labels_clean = clean;
  return profile;
}

TEST(CascadePlanTest, DegeneratesToSimpleOnlyWhereSimpleWins) {
  CascadeOptions options;
  const CascadePlan plan = PlanCascade(ProfileNear(1000000, 0.5, true),
                                       TwoCellReference(), options);
  EXPECT_TRUE(plan.simple_only);
  EXPECT_GT(plan.expected_simple_f1 + options.budget_pts / 100.0,
            plan.expected_deep_f1);
}

TEST(CascadePlanTest, KeepsDeepTierWhereDeepWins) {
  const CascadePlan plan = PlanCascade(ProfileNear(1000, 0.5, true),
                                       TwoCellReference(), {});
  EXPECT_FALSE(plan.simple_only);
  EXPECT_EQ(plan.simple, models::ModelKind::kSvm);  // clean -> SVM front
  EXPECT_EQ(plan.deep, models::ModelKind::kBert);
}

TEST(CascadePlanTest, DirtyDataFrontsWithLr) {
  auto reference = TwoCellReference();
  reference.push_back({"DIRTYDEEP", 1000, 0.5, false, 0.95, 0.60});
  const CascadePlan plan =
      PlanCascade(ProfileNear(1000, 0.5, false), reference, {});
  EXPECT_FALSE(plan.simple_only);
  EXPECT_EQ(plan.simple, models::ModelKind::kLr);
}

TEST(CascadePlanTest, ForceSimpleOnlyShortCircuitsThePolicy) {
  CascadeOptions options;
  options.policy = CascadePolicy::kSimpleOnly;
  const CascadePlan plan = PlanCascade(ProfileNear(1000, 0.5, true),
                                       TwoCellReference(), options);
  EXPECT_TRUE(plan.simple_only);
}

TEST(CascadePlanTest, PinnedPairKeepsThePair) {
  CascadeOptions options;
  options.policy = CascadePolicy::kPinnedPair;
  options.simple = models::ModelKind::kNaiveBayes;
  const CascadePlan plan = PlanCascade(ProfileNear(1000000, 0.5, true),
                                       TwoCellReference(), options);
  EXPECT_FALSE(plan.simple_only);  // where auto would degenerate
  EXPECT_EQ(plan.simple, models::ModelKind::kNaiveBayes);
  EXPECT_EQ(plan.deep, models::ModelKind::kBert);
}

TEST(CascadeOptionsTest, PolicyParsesPairsAtTheLastPlus) {
  CascadeOptions options;
  ASSERT_TRUE(ApplyCascadePolicy("NB+BERT", &options).ok());
  EXPECT_EQ(options.policy, CascadePolicy::kPinnedPair);
  EXPECT_EQ(options.simple, models::ModelKind::kNaiveBayes);
  EXPECT_EQ(options.deep, models::ModelKind::kBert);
  // Embedding-hybrid names contain '+': the split must use the LAST one.
  CascadeOptions hybrid;
  ASSERT_TRUE(ApplyCascadePolicy("LR+eb+CNN", &hybrid).ok());
  EXPECT_EQ(hybrid.simple, models::ModelKind::kLrEmbedding);
  EXPECT_EQ(hybrid.deep, models::ModelKind::kCnn);
  // "" and "auto" leave the defaults, the auto policy included.
  for (const char* text : {"", "auto"}) {
    CascadeOptions unchanged;
    ASSERT_TRUE(ApplyCascadePolicy(text, &unchanged).ok());
    EXPECT_EQ(unchanged.policy, CascadePolicy::kAuto) << text;
    EXPECT_EQ(unchanged.simple, CascadeOptions{}.simple) << text;
    EXPECT_EQ(unchanged.deep, CascadeOptions{}.deep) << text;
  }
}

TEST(CascadeOptionsTest, PolicySimpleForcesSimpleOnly) {
  CascadeOptions options;
  ASSERT_TRUE(ApplyCascadePolicy("simple", &options).ok());
  EXPECT_EQ(options.policy, CascadePolicy::kSimpleOnly);
}

TEST(CascadeOptionsTest, InvalidPolicyLeavesOptionsUnchanged) {
  for (const char* bad : {"BERT+SVM",  // deep in front
                          "SVM+LR",    // no deep tier
                          "bogus", "SVM+", "+BERT"}) {
    CascadeOptions options;
    EXPECT_FALSE(ApplyCascadePolicy(bad, &options).ok()) << bad;
    EXPECT_EQ(options.policy, CascadePolicy::kAuto) << bad;
    EXPECT_EQ(options.simple, CascadeOptions{}.simple) << bad;
    EXPECT_EQ(options.deep, CascadeOptions{}.deep) << bad;
  }
}

// ---------------------------------------------------------------------------
// End-to-end cascade training and the determinism contract
// ---------------------------------------------------------------------------

data::Dataset CascadeDataset(int n, uint64_t seed) {
  data::GeneratorConfig config;
  config.bg_vocab = 1800;
  config.signal_topic = 26;
  config.positive_topics = {27, 28};
  config.negative_topics = {29, 30};
  config.signal_strength = 0.3;
  config.signal_leak = 0.15;
  config.seed = seed;
  data::Dataset d = data::GenerateDataset(data::SharedLanguage(), config,
                                          "cascade", n, 0.5);
  Rng rng(seed * 7 + 1);
  d.Shuffle(&rng);
  return d;
}

/// SVM front end, CNN escalation tier (no shared pretrained backbone
/// needed), pinned so tests are independent of the heat-map policy.
CascadeOptions PinnedPair() {
  CascadeOptions options;
  options.simple = models::ModelKind::kSvm;
  options.deep = models::ModelKind::kCnn;
  options.policy = CascadePolicy::kPinnedPair;
  return options;
}

/// PinnedPair with a zero budget: the threshold escalates wherever the
/// simple tier trails the deep one on the holdout. Where the simple tier
/// wins the holdout outright nothing escalates even so, which is why the
/// tests that use this pick dataset seeds with texts on both sides.
CascadeOptions EscalatingPair() {
  CascadeOptions options = PinnedPair();
  options.budget_pts = 0.0;
  return options;
}

/// True when `mask` holds both an escalated and a kept text.
bool EscalatesSome(const std::vector<uint8_t>& mask) {
  return std::count(mask.begin(), mask.end(), 0) > 0 &&
         std::count(mask.begin(), mask.end(), 1) > 0;
}

TEST(CascadeModelTest, TrainsCalibratesAndScoresOnProbabilityScale) {
  data::Dataset d = CascadeDataset(500, 14);
  auto [train, test] = d.Split(0.8);
  Cascade cascade(EscalatingPair());
  ASSERT_TRUE(cascade.Train(train).ok());
  ASSERT_NE(cascade.simple_model(), nullptr);
  ASSERT_NE(cascade.deep_model(), nullptr);
  EXPECT_GT(cascade.threshold(), -1.0);
  EXPECT_TRUE(EscalatesSome(cascade.EscalationMask(test.Texts())));
  const auto scores = cascade.ScoreAll(test.Texts());
  ASSERT_EQ(scores.size(), test.size());
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_EQ(cascade.DecisionThreshold(), 0.5);
  // Calibration met its (zero) budget on the holdout.
  const CascadeCalibration& cal = cascade.calibration();
  EXPECT_GE(cal.cascade_f1, cal.deep_f1 - 1e-12);
  // Training twice is a programmer error surfaced as a Status.
  EXPECT_FALSE(cascade.Train(train).ok());
}

TEST(CascadeModelTest, SimpleOnlyPlanNeverBuildsTheDeepModel) {
  data::Dataset d = CascadeDataset(300, 12);
  CascadeOptions options = PinnedPair();
  options.policy = CascadePolicy::kSimpleOnly;
  Cascade cascade(options);
  ASSERT_TRUE(cascade.Train(d).ok());
  EXPECT_TRUE(cascade.plan().simple_only);
  EXPECT_EQ(cascade.deep_model(), nullptr);
  EXPECT_DOUBLE_EQ(cascade.threshold(), -1.0);
  // Every score is the simple model's probability.
  for (const auto& text : d.Take(20).Texts()) {
    EXPECT_DOUBLE_EQ(cascade.Score(text),
                     cascade.simple_model()->Probability(text));
  }
}

TEST(CascadeModelTest, ScorePathsAgreeBitIdentically) {
  data::Dataset d = CascadeDataset(400, 13);
  auto [train, test] = d.Split(0.8);
  Cascade cascade(EscalatingPair());
  ASSERT_TRUE(cascade.Train(train).ok());
  const auto texts = test.Texts();
  const auto all = cascade.ScoreAll(texts);
  ASSERT_EQ(all.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(all[i], cascade.Score(texts[i])) << i;
  }
  // The escalation mask is exactly the membership ScoreAll used.
  const auto mask = cascade.EscalationMask(texts);
  EXPECT_TRUE(EscalatesSome(mask));
  for (size_t i = 0; i < texts.size(); ++i) {
    if (mask[i] == 0) {
      EXPECT_EQ(all[i],
                cascade.simple_model()->Probability(texts[i]))
          << i;
    } else {
      ASSERT_NE(cascade.deep_model(), nullptr);
      EXPECT_EQ(all[i], cascade.deep_model()->Probability(texts[i])) << i;
    }
  }
}

// Score is ScoreAll of a batch of one, on both sides of the threshold.
TEST(CascadeModelTest, ScoreIsScoreAllOfOneText) {
  data::Dataset d = CascadeDataset(400, 13);
  auto [train, test] = d.Split(0.8);
  Cascade cascade(EscalatingPair());
  ASSERT_TRUE(cascade.Train(train).ok());
  EXPECT_FALSE(cascade.is_deep());
  const auto texts = test.Texts();
  const auto mask = cascade.EscalationMask(texts);
  for (uint8_t escalated : {0, 1}) {
    const auto it = std::find(mask.begin(), mask.end(), escalated);
    ASSERT_NE(it, mask.end()) << "no text with escalation " << int{escalated};
    const std::string& text = texts[it - mask.begin()];
    EXPECT_EQ(cascade.Score(text), cascade.ScoreAll({text})[0])
        << "escalation " << int{escalated};
  }
}

class CascadeDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetGlobalPoolThreads(DefaultThreadCount());
  }

  struct Fingerprint {
    double threshold;
    std::vector<uint8_t> mask;
    std::vector<double> scores;

    bool operator==(const Fingerprint&) const = default;
  };

  /// Trains a fresh cascade and scores the test split under the current
  /// environment (thread count).
  Fingerprint Run(int threads) {
    SetGlobalPoolThreads(threads);
    data::Dataset d = CascadeDataset(400, 17);
    auto [train, test] = d.Split(0.8);
    Cascade cascade(PinnedPair());
    EXPECT_TRUE(cascade.Train(train).ok());
    Fingerprint fp;
    fp.threshold = cascade.threshold();
    fp.mask = cascade.EscalationMask(test.Texts());
    fp.scores = cascade.ScoreAll(test.Texts());
    return fp;
  }
};

TEST_F(CascadeDeterminismTest, ThresholdAndScoresInvariantAcrossThreads) {
  const Fingerprint t1 = Run(1);
  const Fingerprint t4 = Run(4);
  const Fingerprint t16 = Run(16);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t16);
}

TEST_F(CascadeDeterminismTest, EscalationInvariantAcrossDeepBatchCaps) {
  // Train once, then score the test set in the batches a serve batch_cap
  // of 1, 3 or 16 cuts it into (the batcher hands each batch to
  // ScoreAll): the escalated set and the final scores must not move. The
  // escalation membership depends only on the simple tier, and the deep
  // stacked forward reorders no per-row arithmetic, so this is
  // bit-identity, not a tolerance (see ScorePathsAgreeBitIdentically for
  // Score parity).
  data::Dataset d = CascadeDataset(300, 21);
  auto [train, test] = d.Split(0.8);
  Cascade cascade(EscalatingPair());
  ASSERT_TRUE(cascade.Train(train).ok());
  const auto texts = test.Texts();
  const auto mask = cascade.EscalationMask(texts);
  EXPECT_TRUE(EscalatesSome(mask));
  const auto scores = cascade.ScoreAll(texts);
  for (size_t cap : {1, 3, 16}) {
    std::vector<uint8_t> capped_mask;
    std::vector<double> capped_scores;
    for (size_t start = 0; start < texts.size(); start += cap) {
      const std::vector<std::string> batch(
          texts.begin() + start,
          texts.begin() + std::min(start + cap, texts.size()));
      const auto m = cascade.EscalationMask(batch);
      const auto s = cascade.ScoreAll(batch);
      capped_mask.insert(capped_mask.end(), m.begin(), m.end());
      capped_scores.insert(capped_scores.end(), s.begin(), s.end());
    }
    EXPECT_EQ(capped_mask, mask) << "cap " << cap;
    EXPECT_EQ(capped_scores, scores) << "cap " << cap;
  }
}

TEST_F(CascadeDeterminismTest, ThreadInvarianceHoldsInBothQuantLanes) {
  // The name dates from when the cascade scored in an fp32 and an int8
  // lane; fp32 is the only lane left. ThresholdAndScoresInvariantAcrossThreads
  // retrains per pool size; this pins the other half: one trained cascade
  // scores bit-identically when the pool is resized between training and
  // scoring, as a serve process resizing its pool under a loaded model does.
  SetGlobalPoolThreads(1);
  data::Dataset d = CascadeDataset(400, 17);
  auto [train, test] = d.Split(0.8);
  Cascade cascade(PinnedPair());
  ASSERT_TRUE(cascade.Train(train).ok());
  const auto texts = test.Texts();
  const auto mask = cascade.EscalationMask(texts);
  const auto scores = cascade.ScoreAll(texts);
  for (int threads : {4, 16}) {
    SetGlobalPoolThreads(threads);
    EXPECT_EQ(cascade.EscalationMask(texts), mask) << threads << " threads";
    EXPECT_EQ(cascade.ScoreAll(texts), scores) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Runner integration
// ---------------------------------------------------------------------------

TEST(CascadeIntegrationTest, TrainAndEvaluateRunsCascadeCells) {
  // A grid cell runs the default budget; on this seed its calibration
  // escalates part of the test split, so the deep tier scores too.
  data::Dataset d = CascadeDataset(400, 33);
  auto [train, test] = d.Split(0.8);
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const obs::Counter& escalated =
      obs::GetCounter("cascade/examples_escalated");
  const uint64_t before = escalated.Value();
  const ExperimentResult r =
      TrainAndEvaluate(train, test, models::ModelKind::kCascade);
  const uint64_t after = escalated.Value();
  obs::SetMetricsEnabled(was_enabled);
  EXPECT_GT(after, before);
  EXPECT_EQ(r.model, "CASCADE");
  EXPECT_EQ(r.outcome, CellOutcome::kOk);
  EXPECT_GT(r.f1, 0.5);
  EXPECT_GT(r.auc, 0.5);
}

TEST(CascadeIntegrationTest, GridRanksCascadeBetweenSimpleAndDeep) {
  const auto specs = data::AllDatasetSpecs();
  const std::vector<data::DatasetSpec> two(specs.begin(),
                                           specs.begin() + 2);
  const auto cells = EnumerateGrid(
      two, {models::ModelKind::kBert, models::ModelKind::kCascade,
            models::ModelKind::kSvm});
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].kind, models::ModelKind::kSvm);
  EXPECT_EQ(cells[2].kind, models::ModelKind::kCascade);
  EXPECT_EQ(cells[4].kind, models::ModelKind::kBert);
}

}  // namespace
}  // namespace semtag::core
