// Int8 inference tier accuracy contract (see DESIGN.md "Int8 inference
// tier"):
//  * SEMTAG_QUANT unset or =0 leaves scoring bit-identical to fp32 even
//    though the views are prepared at Train() time.
//  * SEMTAG_QUANT=1 routes deep-model scoring through the int8 kernels;
//    per-text score deltas vs fp32 stay small and the downstream F1 moves
//    by at most 0.2 points (the accuracy budget).
//  * The env var is re-read per call, so toggling it in-process flips the
//    path without retraining.

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/runtime_config.h"
#include "data/generator.h"
#include "data/specs.h"
#include "models/deep/mini_bert.h"
#include "models/deep/text_cnn.h"
#include "models/deep/text_lstm.h"

namespace semtag::models {
namespace {

/// Max per-text |quant - fp32| score delta. Int8 weights+activations on
/// these small models perturb [0,1] scores by O(1e-2) in the worst case.
constexpr double kScoreTolerance = 0.12;
/// Accuracy budget on downstream F1 (0.2 points on the 0-100 scale).
constexpr double kF1Budget = 0.002;

data::Dataset QuantDataset(int n, uint64_t seed = 177) {
  data::GeneratorConfig config;
  config.bg_vocab = 1500;
  config.signal_topic = 18;
  config.positive_topics = {19, 20};
  config.negative_topics = {21, 22};
  // Strong, low-leak signal: trained scores separate well away from the
  // 0.5 threshold, so the O(1e-2) int8 score perturbation does not flip
  // borderline predictions. That is the regime the 0.2-point F1 budget is
  // defined over (DESIGN.md); near-chance models amplify any noise source.
  config.signal_strength = 0.7;
  config.signal_leak = 0.05;
  config.avg_len = 12;
  config.seed = seed;
  return data::GenerateDataset(data::SharedLanguage(), config, "quant", n,
                               0.5);
}

double F1At05(const std::vector<double>& scores,
              const std::vector<int32_t>& labels) {
  int tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const bool pred = scores[i] >= 0.5;
    if (pred && labels[i] == 1) {
      ++tp;
    } else if (pred) {
      ++fp;
    } else if (labels[i] == 1) {
      ++fn;
    }
  }
  if (tp == 0) return 0.0;
  const double prec = static_cast<double>(tp) / (tp + fp);
  const double rec = static_cast<double>(tp) / (tp + fn);
  return 2.0 * prec * rec / (prec + rec);
}

/// Scores `texts` under fp32 and int8 and checks the contract: off-path
/// bit-identity, bounded per-text deltas, bounded F1 movement, and that
/// the int8 path actually engaged (some score must move).
void ExpectQuantParity(const TaggingModel& model,
                       const std::vector<std::string>& texts,
                       const std::vector<int32_t>& labels) {
  std::vector<double> fp32, off, quant;
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", ""}});
    fp32 = model.ScoreAll(texts);
  }
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    off = model.ScoreAll(texts);
  }
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "1"}});
    quant = model.ScoreAll(texts);
  }
  ASSERT_EQ(fp32.size(), texts.size());
  ASSERT_EQ(quant.size(), texts.size());
  bool any_moved = false;
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(off[i], fp32[i])
        << model.name() << ": SEMTAG_QUANT=0 must be bit-identical, text "
        << i;
    EXPECT_NEAR(quant[i], fp32[i], kScoreTolerance)
        << model.name() << " text " << i;
    if (quant[i] != fp32[i]) any_moved = true;
  }
  EXPECT_TRUE(any_moved)
      << model.name()
      << ": int8 path produced bit-identical scores — routing is likely "
         "not engaging";
  const double f1_fp32 = F1At05(fp32, labels);
  const double f1_quant = F1At05(quant, labels);
  EXPECT_NEAR(f1_quant, f1_fp32, kF1Budget)
      << model.name() << ": F1 moved more than 0.2 points (fp32 "
      << f1_fp32 * 100 << " vs int8 " << f1_quant * 100 << ")";
}

TEST(QuantParityTest, TextCnnQuantScoresTrackFp32) {
  CnnOptions options;
  options.max_len = 12;
  options.embed_dim = 16;
  options.filters_per_width = 8;
  options.epochs = 4;
  options.min_optimizer_steps = 1;
  options.max_train_examples = 300;
  TextCnn model(options);
  // A large test split keeps the F1 granularity (one flipped prediction)
  // well under the 0.2-point budget being pinned.
  data::Dataset d = QuantDataset(2500);
  auto [train, test] = d.Split(0.12);
  {
    // Train in fp32 whatever the ambient config says.
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    ASSERT_TRUE(model.Train(train).ok());
  }
  ExpectQuantParity(model, test.Texts(), test.Labels());
}

TEST(QuantParityTest, TextLstmAndGruQuantScoresTrackFp32) {
  LstmOptions lstm_options;
  lstm_options.max_len = 12;
  lstm_options.embed_dim = 16;
  lstm_options.hidden_dim = 16;
  lstm_options.epochs = 3;
  lstm_options.min_optimizer_steps = 1;
  lstm_options.max_train_examples = 200;
  TextLstm lstm(lstm_options);

  LstmOptions gru_options = lstm_options;
  gru_options.cell = RnnCell::kGru;
  TextLstm gru(gru_options);

  data::Dataset d = QuantDataset(500, 178);
  auto [train, test] = d.Split(0.4);
  for (TaggingModel* model :
       {static_cast<TaggingModel*>(&lstm), static_cast<TaggingModel*>(&gru)}) {
    {
      const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
      ASSERT_TRUE(model->Train(train).ok()) << model->name();
    }
    ExpectQuantParity(*model, test.Texts(), test.Labels());
  }
}

TEST(QuantParityTest, MiniBertQuantScoresTrackFp32) {
  BertConfig config;
  config.max_len = 12;
  config.dim = 16;
  config.heads = 2;
  config.ffn = 32;
  config.layers = 2;
  config.seed = 9;
  const auto corpus =
      data::GeneratePretrainCorpus(data::SharedLanguage(), 250, 10, 91);
  text::VocabularyBuilder builder;
  for (const auto& s : corpus) builder.AddDocument(text::Tokenize(s));
  MiniBertBackbone backbone(config, builder.Build(1, 4000));
  PretrainOptions pretrain;
  pretrain.epochs = 1;
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    backbone.Pretrain(corpus, pretrain);
  }

  BertFinetuneOptions options;
  options.epochs = 1;
  options.max_train_examples = 150;
  MiniBert model("BERT", backbone, options);
  data::Dataset d = QuantDataset(450, 179);
  auto [train, test] = d.Split(0.4);
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    ASSERT_TRUE(model.Train(train).ok());
  }
  ExpectQuantParity(model, test.Texts(), test.Labels());
}

TEST(QuantParityTest, ToggleIsPerCallWithoutRetraining) {
  CnnOptions options;
  options.max_len = 12;
  options.embed_dim = 8;
  options.filters_per_width = 4;
  options.epochs = 1;
  options.min_optimizer_steps = 1;
  options.max_train_examples = 80;
  TextCnn model(options);
  data::Dataset d = QuantDataset(120, 180);
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    ASSERT_TRUE(model.Train(d).ok());
  }
  const std::string text = d.Texts().front();
  double fp32_score, quant_score, fp32_again;
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    fp32_score = model.Score(text);
  }
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "1"}});
    quant_score = model.Score(text);
  }
  {
    const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", "0"}});
    fp32_again = model.Score(text);
  }
  EXPECT_EQ(fp32_score, fp32_again);
  EXPECT_NEAR(quant_score, fp32_score, kScoreTolerance);
}

}  // namespace
}  // namespace semtag::models
