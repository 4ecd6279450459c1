#include <unistd.h>
#include <filesystem>
#include <optional>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "config/runtime_config.h"
#include "core/experiment.h"
#include "data/generator.h"
#include "data/specs.h"
#include "models/deep/bert_cache.h"

namespace semtag::core {
namespace {

data::Dataset EasyDataset(int n, uint64_t seed) {
  data::GeneratorConfig config;
  config.bg_vocab = 1800;
  config.signal_topic = 22;
  config.positive_topics = {23, 24};
  config.negative_topics = {25, 26};
  config.signal_strength = 0.35;
  config.seed = seed;
  return data::GenerateDataset(data::SharedLanguage(), config, "exp", n,
                               0.5);
}

class ExperimentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Point the cache at a fresh temp dir so tests never collide with the
    // bench suite's results — unique per test and per process, because
    // ctest -j runs each test as its own process and concurrent fixtures
    // sharing a directory would remove_all each other's cache mid-test.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    cache_dir_ = (std::filesystem::temp_directory_path() /
                  StrFormat("semtag_experiment_%s_%d", info->name(),
                            static_cast<int>(getpid())))
                     .string();
    std::filesystem::remove_all(cache_dir_);
    cache_override_.emplace(KnobMap{{"SEMTAG_CACHE_DIR", cache_dir_}});
  }
  void TearDown() override {
    cache_override_.reset();
    std::filesystem::remove_all(cache_dir_);
  }
  std::string cache_dir_;
  std::optional<ScopedRuntimeOverride> cache_override_;
};

TEST_F(ExperimentTest, EnumerateGridRunsSimpleModelsFirst) {
  std::vector<data::DatasetSpec> specs;
  for (const char* name : {"TINY0", "TINY1"}) {
    data::DatasetSpec spec = data::FindSpec("HETER").ValueOrDie();
    spec.name = name;
    specs.push_back(std::move(spec));
  }
  const auto cells = EnumerateGrid(
      specs, {models::ModelKind::kBert, models::ModelKind::kLr,
              models::ModelKind::kSvm});
  ASSERT_EQ(cells.size(), 6u);
  // Cheap linear cells lead the run order; the transformer cells trail.
  EXPECT_EQ(cells[0].id, "TINY0/LR");
  EXPECT_EQ(cells[1].id, "TINY1/LR");
  EXPECT_EQ(cells[2].id, "TINY0/SVM");
  EXPECT_EQ(cells[3].id, "TINY1/SVM");
  EXPECT_EQ(cells[4].id, "TINY0/BERT");
  EXPECT_EQ(cells[5].id, "TINY1/BERT");
}

TEST_F(ExperimentTest, TrainAndEvaluateFillsAllMetrics) {
  data::Dataset d = EasyDataset(600, 5);
  auto [train, test] = d.Split(0.8);
  const ExperimentResult r =
      TrainAndEvaluate(train, test, models::ModelKind::kLr);
  EXPECT_EQ(r.model, "LR");
  EXPECT_GT(r.f1, 0.7);
  EXPECT_GT(r.auc, 0.85);
  EXPECT_GT(r.accuracy, 0.7);
  EXPECT_GE(r.calibrated_f1, r.f1 - 1e-9);  // calibration never hurts
  EXPECT_GT(r.precision, 0.0);
  EXPECT_GT(r.recall, 0.0);
  EXPECT_EQ(r.train_size, 480);
  EXPECT_EQ(r.test_size, 120);
  EXPECT_GT(r.train_seconds, 0.0);
}

TEST_F(ExperimentTest, RunOnCachesAcrossRunnerInstances) {
  data::Dataset d = EasyDataset(400, 7);
  auto [train, test] = d.Split(0.8);
  ExperimentRunner first(true);
  const ExperimentResult a =
      first.RunOn("exp_cache_test", train, test, models::ModelKind::kLr);
  // A new runner instance must hit the on-disk cache and return an
  // identical result without retraining.
  ExperimentRunner second(true);
  const ExperimentResult b =
      second.RunOn("exp_cache_test", train, test, models::ModelKind::kLr);
  EXPECT_DOUBLE_EQ(a.f1, b.f1);  // cache stores %.17g (exact)
  EXPECT_NEAR(a.train_seconds, b.train_seconds, 1e-3);
  EXPECT_TRUE(std::filesystem::exists(cache_dir_ + "/results.csv"));
}

TEST_F(ExperimentTest, CacheDisabledRetrains) {
  data::Dataset d = EasyDataset(300, 9);
  auto [train, test] = d.Split(0.8);
  ExperimentRunner runner(false);
  const ExperimentResult a =
      runner.RunOn("k", train, test, models::ModelKind::kLr);
  const ExperimentResult b =
      runner.RunOn("k", train, test, models::ModelKind::kLr);
  // Deterministic training: same F1 even when retrained.
  EXPECT_DOUBLE_EQ(a.f1, b.f1);
  EXPECT_FALSE(std::filesystem::exists(cache_dir_ + "/results.csv"));
}

TEST_F(ExperimentTest, CacheKeyReflectsGeneratorKnobs) {
  data::DatasetSpec spec = *data::FindSpec("HETER");
  const std::string base =
      ExperimentCacheKey(spec, models::ModelKind::kLr, 0);
  data::DatasetSpec tweaked = spec;
  tweaked.generator.signal_strength += 0.01;
  EXPECT_NE(base, ExperimentCacheKey(tweaked, models::ModelKind::kLr, 0));
  EXPECT_NE(base, ExperimentCacheKey(spec, models::ModelKind::kSvm, 0));
  EXPECT_NE(base, ExperimentCacheKey(spec, models::ModelKind::kLr, 1));
  EXPECT_EQ(base, ExperimentCacheKey(spec, models::ModelKind::kLr, 0));
}

TEST_F(ExperimentTest, RunExecutesTheStandardProtocol) {
  // HETER is the smallest dataset: LR there is fast enough for a test.
  const auto spec = *data::FindSpec("HETER");
  ExperimentRunner runner(true);
  const ExperimentResult r = runner.Run(spec, models::ModelKind::kLr);
  EXPECT_EQ(r.dataset, "HETER");
  const auto expected_train = static_cast<int64_t>(
      spec.scaled_records * spec.train_fraction);
  EXPECT_NEAR(r.train_size, expected_train, 1);
  EXPECT_GT(r.f1, 0.0);
  // Second call is served from cache (identical object).
  const ExperimentResult r2 = runner.Run(spec, models::ModelKind::kLr);
  EXPECT_DOUBLE_EQ(r.f1, r2.f1);
}

}  // namespace
}  // namespace semtag::core
