#include <cmath>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "data/generator.h"
#include "data/specs.h"
#include "models/simple/linear_model.h"
#include "models/simple/linear_svm.h"
#include "models/simple/logistic_regression.h"

namespace semtag::models {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

constexpr const char* kOptions = "options 1 2 2 200000 1 1";

/// A checkpoint whose feature count matches `features` (one line each).
std::string Checkpoint(const std::string& family, const std::string& options,
                       const std::string& features) {
  size_t count = 0;
  for (char c : features) count += c == '\n';
  return "semtag-linear-model v1\nmodel " + family + "\n" + options +
         "\nbias 0\nfeatures " + std::to_string(count) + "\n" + features;
}

data::Dataset EasyDataset(int n, uint64_t seed = 88) {
  data::GeneratorConfig config;
  config.bg_vocab = 1800;
  config.signal_topic = 22;
  config.positive_topics = {23, 24};
  config.negative_topics = {25, 26};
  config.signal_strength = 0.35;
  config.seed = seed;
  return data::GenerateDataset(data::SharedLanguage(), config, "io", n,
                               0.5);
}

TEST(LinearIoTest, LrSaveLoadRoundTrip) {
  data::Dataset d = EasyDataset(400);
  LogisticRegression model;
  ASSERT_TRUE(model.Train(d).ok());
  const std::string path = TempPath("semtag_lr_model.txt");
  ASSERT_TRUE(model.Save(path).ok());

  auto loaded = LoadLinearModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "LR");
  EXPECT_EQ((*loaded)->num_features(), model.num_features());
  for (int i = 0; i < 20; ++i) {
    const std::string& text = d[static_cast<size_t>(i)].text;
    EXPECT_NEAR((*loaded)->Score(text), model.Score(text), 1e-5) << text;
  }
  std::remove(path.c_str());
}

TEST(LinearIoTest, SvmSaveLoadRoundTrip) {
  data::Dataset d = EasyDataset(400, 91);
  LinearSvm model;
  ASSERT_TRUE(model.Train(d).ok());
  const std::string path = TempPath("semtag_svm_model.txt");
  ASSERT_TRUE(model.Save(path).ok());
  auto loaded = LoadLinearModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->name(), "SVM");
  EXPECT_DOUBLE_EQ((*loaded)->DecisionThreshold(), 0.0);
  for (int i = 0; i < 20; ++i) {
    const std::string& text = d[static_cast<size_t>(i)].text;
    EXPECT_NEAR((*loaded)->Score(text), model.Score(text), 1e-4);
  }
  std::remove(path.c_str());
}

TEST(LinearIoTest, UntrainedSaveFails) {
  LogisticRegression model;
  EXPECT_EQ(model.Save(TempPath("nope.txt")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LinearIoTest, CorruptFileRejected) {
  const std::string path = TempPath("semtag_corrupt_model.txt");
  ASSERT_TRUE(WriteStringToFile(path, "not a model at all").ok());
  EXPECT_FALSE(LoadLinearModel(path).ok());
  ASSERT_TRUE(WriteStringToFile(
                  path, "semtag-linear-model v1\nmodel LR\ngarbage").ok());
  EXPECT_FALSE(LoadLinearModel(path).ok());
  ASSERT_TRUE(WriteStringToFile(path, Checkpoint("NB", kOptions, "")).ok());
  EXPECT_FALSE(LoadLinearModel(path).ok());
  std::remove(path.c_str());
}

// Hostile checkpoints: each of these once loaded into an abort (a length
// error, a failed CHECK at the first score, a failed CHECK while building
// the vocabulary). The loader must turn every one into an error Status.

/// True when `body` loads to an error; scores a text if it loads, so a
/// checkpoint that only aborts at scoring time fails the test loudly.
bool Rejected(const std::string& body, const char* name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteStringToFile(path, body).ok());
  auto loaded = LoadLinearModel(path);
  std::remove(path.c_str());
  if (loaded.ok()) {
    (void)(*loaded)->Score("great food would recommend");
    return false;
  }
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  return true;
}

TEST(LinearIoTest, HugeFeatureCountIsAnErrorNotAnAbort) {
  EXPECT_TRUE(Rejected(
      "semtag-linear-model v1\nmodel LR\n" + std::string(kOptions) +
          "\nbias 0\nfeatures 4000000000000000000\ngreat\t3\t1.5\t0.25\n",
      "semtag_huge_count.txt"));
}

TEST(LinearIoTest, BadOptionsAreAnErrorNotAnAbort) {
  for (const char* options :
       {"options 0 0 2 200000 1 1",           // no n-gram length
        "options 2 1 2 200000 1 1",           // empty range
        "options 1 2147483647 2 200000 1 1",  // unbounded n-gram loop
        "options 1 2 2 200000 2 1",           // use_idf is 0/1
        "options 1 2 2 200000 1 -1"}) {       // l2_normalize is 0/1
    EXPECT_TRUE(
        Rejected(Checkpoint("SVM", options, "great\t3\t1.5\t0.25\n"),
                 "semtag_bad_options.txt"))
        << options;
  }
}

TEST(LinearIoTest, DuplicateFeatureIsAnErrorNotAnAbort) {
  EXPECT_TRUE(Rejected(Checkpoint("LR", kOptions,
                                  "great\t3\t1.5\t0.25\n"
                                  "great\t4\t1.2\t0.5\n"),
                       "semtag_duplicate_feature.txt"));
}

TEST(LinearIoTest, ExplainSurfacesSignalWords) {
  data::Dataset d = EasyDataset(600, 95);
  LogisticRegression model;
  ASSERT_TRUE(model.Train(d).ok());
  // A strongly positive text should have positive top contributions.
  std::string positive_text;
  for (const auto& e : d.examples()) {
    if (e.label == 1 && model.Score(e.text) > 0.9) {
      positive_text = e.text;
      break;
    }
  }
  ASSERT_FALSE(positive_text.empty());
  const auto contributions = model.Explain(positive_text, 5);
  ASSERT_FALSE(contributions.empty());
  EXPECT_LE(contributions.size(), 5u);
  // Sorted by magnitude; the top one should push positive.
  EXPECT_GT(contributions[0].contribution, 0.0);
  for (size_t i = 1; i < contributions.size(); ++i) {
    EXPECT_GE(std::fabs(contributions[i - 1].contribution),
              std::fabs(contributions[i].contribution));
  }
}

TEST(LinearIoTest, ExplainOnUnknownTextIsEmpty) {
  data::Dataset d = EasyDataset(200, 97);
  LinearSvm model;
  ASSERT_TRUE(model.Train(d).ok());
  EXPECT_TRUE(model.Explain("zzzz qqqq xxxx", 5).empty());
}

}  // namespace
}  // namespace semtag::models
