// Deep-model tests use deliberately tiny architectures and datasets so the
// suite stays fast on one CPU core; the shapes of the paper's experiments
// are exercised by the bench binaries instead.

#include <cmath>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/specs.h"
#include "eval/metrics.h"
#include "la/kernels.h"
#include "models/deep/embedding_models.h"
#include "models/deep/mini_bert.h"
#include "models/deep/text_cnn.h"
#include "models/deep/text_lstm.h"

namespace semtag::models {
namespace {

data::Dataset EasyDataset(int n, uint64_t seed = 66) {
  data::GeneratorConfig config;
  config.bg_vocab = 1800;
  config.signal_topic = 22;
  config.positive_topics = {23, 24};
  config.negative_topics = {25, 26};
  config.signal_strength = 0.4;
  config.signal_leak = 0.1;
  config.avg_len = 12;
  config.seed = seed;
  return data::GenerateDataset(data::SharedLanguage(), config, "easy", n,
                               0.5);
}

double EvalF1(const TaggingModel& model, const data::Dataset& test) {
  const auto preds = model.PredictAll(test.Texts());
  return eval::F1Score(test.Labels(), preds);
}

TEST(TextCnnTest, LearnsSeparableTask) {
  CnnOptions options;
  options.max_len = 12;
  options.embed_dim = 16;
  options.filters_per_width = 8;
  options.epochs = 5;
  TextCnn model(options);
  data::Dataset d = EasyDataset(400);
  auto [train, test] = d.Split(0.8);
  ASSERT_TRUE(model.Train(train).ok());
  EXPECT_GT(EvalF1(model, test), 0.70);
  EXPECT_TRUE(model.is_deep());
}

TEST(TextCnnTest, CapsTrainingSet) {
  CnnOptions options;
  options.max_len = 12;
  options.embed_dim = 8;
  options.filters_per_width = 4;
  options.epochs = 1;
  options.max_train_examples = 50;
  TextCnn model(options);
  ASSERT_TRUE(model.Train(EasyDataset(200)).ok());
  EXPECT_GE(model.Score("anything at all"), 0.0);
}

TEST(TextLstmTest, LearnsSeparableTask) {
  LstmOptions options;
  options.max_len = 12;
  options.embed_dim = 16;
  options.hidden_dim = 16;
  options.epochs = 5;
  TextLstm model(options);
  data::Dataset d = EasyDataset(400);
  auto [train, test] = d.Split(0.8);
  ASSERT_TRUE(model.Train(train).ok());
  EXPECT_GT(EvalF1(model, test), 0.70);
}

class MiniBertFixture : public ::testing::Test {
 protected:
  static MiniBertBackbone* Backbone() {
    // One tiny backbone shared by the BERT tests, lightly pretrained so
    // embeddings carry topical structure.
    static MiniBertBackbone* backbone = [] {
      BertConfig config;
      config.max_len = 12;
      config.dim = 16;
      config.heads = 2;
      config.ffn = 32;
      config.layers = 2;
      config.seed = 3;
      const auto corpus = data::GeneratePretrainCorpus(
          data::SharedLanguage(), 300, 10, 71);
      text::VocabularyBuilder builder;
      for (const auto& s : corpus) {
        builder.AddDocument(text::Tokenize(s));
      }
      auto* b = new MiniBertBackbone(config, builder.Build(1, 4000));
      PretrainOptions pretrain;
      pretrain.epochs = 1;
      b->Pretrain(corpus, pretrain);
      return b;
    }();
    return backbone;
  }
};

TEST_F(MiniBertFixture, FineTunesOnSeparableTask) {
  BertFinetuneOptions options;
  options.epochs = 3;
  MiniBert model("BERT", *Backbone(), options);
  data::Dataset d = EasyDataset(300);
  auto [train, test] = d.Split(0.8);
  ASSERT_TRUE(model.Train(train).ok());
  EXPECT_GT(EvalF1(model, test), 0.65);
}

TEST_F(MiniBertFixture, CloneIsolatesFineTuning) {
  // Fine-tuning one MiniBert must not disturb a second one cloned from the
  // same backbone: identical models trained identically agree.
  BertFinetuneOptions options;
  options.epochs = 1;
  options.max_train_examples = 60;
  data::Dataset d = EasyDataset(80);

  MiniBert first("BERT", *Backbone(), options);
  ASSERT_TRUE(first.Train(d).ok());
  MiniBert second("BERT", *Backbone(), options);
  ASSERT_TRUE(second.Train(d).ok());
  for (int i = 0; i < 5; ++i) {
    const std::string text = d[static_cast<size_t>(i)].text;
    EXPECT_NEAR(first.Score(text), second.Score(text), 1e-6);
  }
}

TEST_F(MiniBertFixture, FeaturizerEmbedIsDeterministicAndSized) {
  const BertFeaturizer featurizer(Backbone());
  const std::vector<std::string> texts(2, "some words to embed");
  const auto embedded = featurizer.EmbedBatch(texts);
  ASSERT_EQ(embedded.size(), 2u);
  ASSERT_EQ(embedded[0].size(), 16u);
  EXPECT_EQ(embedded[0], embedded[1]);
}

TEST_F(MiniBertFixture, MlmPretrainingReducesLoss) {
  BertConfig config;
  config.max_len = 10;
  config.dim = 16;
  config.heads = 2;
  config.ffn = 32;
  config.layers = 1;
  const auto corpus =
      data::GeneratePretrainCorpus(data::SharedLanguage(), 400, 8, 81);
  text::VocabularyBuilder builder;
  for (const auto& s : corpus) builder.AddDocument(text::Tokenize(s));
  MiniBertBackbone backbone(config, builder.Build(1, 4000));
  PretrainOptions pretrain;
  pretrain.epochs = 4;
  pretrain.batch_size = 8;
  const PretrainStats stats = backbone.Pretrain(corpus, pretrain);
  EXPECT_LT(stats.last_epoch_loss, stats.first_epoch_loss - 0.1);
}

TEST_F(MiniBertFixture, EmbeddingLinearModelsTrain) {
  data::Dataset d = EasyDataset(200, 101);
  auto [train, test] = d.Split(0.8);
  EmbeddingLinearModel lr("LR+eb", Backbone());
  ASSERT_TRUE(lr.Train(train).ok());
  EXPECT_FALSE(lr.is_deep());
  EXPECT_DOUBLE_EQ(lr.DecisionThreshold(), 0.5);

  EmbeddingLinearOptions svm_options;
  svm_options.hinge = true;
  EmbeddingLinearModel svm("SVM+eb", Backbone(), svm_options);
  ASSERT_TRUE(svm.Train(train).ok());
  EXPECT_DOUBLE_EQ(svm.DecisionThreshold(), 0.0);
  // Both produce finite scores.
  EXPECT_TRUE(std::isfinite(lr.Score(test[0].text)));
  EXPECT_TRUE(std::isfinite(svm.Score(test[0].text)));
}

// Exactness golden: ScoreAll of two tiny MiniBerts (separate and shared
// encoder layers), fine-tuned from random initialisation on 64 records in
// batches of 16, pinned to the last bit per SIMD tier. Every batch is a
// multiple of 4 rows, the case in which the [CLS]-only last encoder layer
// is bit-identical to the full-height layer (see DESIGN.md "Batched
// execution"), so these values were recorded from the full-height code.
std::vector<double> GoldenScores(bool share_layers) {
  BertConfig config;
  config.max_len = 12;
  config.dim = 16;
  config.heads = 2;
  config.ffn = 32;
  config.layers = 2;
  config.share_layers = share_layers;
  config.seed = 5;
  const data::Dataset d = EasyDataset(80, 131);
  text::VocabularyBuilder builder;
  for (const auto& t : d.Texts()) builder.AddDocument(text::Tokenize(t));
  const MiniBertBackbone backbone(config, builder.Build(1, 4000));
  BertFinetuneOptions options;
  options.epochs = 3;
  options.min_optimizer_steps = 1;
  options.batch_size = 16;
  options.max_train_examples = 64;
  MiniBert model("BERT", backbone, options);
  EXPECT_TRUE(model.Train(d).ok());
  const auto texts = d.Texts();
  return model.ScoreAll(
      std::vector<std::string>(texts.begin() + 64, texts.end()));
}

// Scalar tier: separate layers, then shared layers.
constexpr double kGoldenScalar[2][16] = {
    {
        0.71545527892936134, 0.3630912947622657, 0.75137990914035824,
        0.66701156946305407, 0.54071442604673126, 0.64254897410879297,
        0.64191523510221893, 0.72948030547468201, 0.60704817110026388,
        0.8305108715494075, 0.92290140648559638, 0.6521279370609957,
        0.68078095655058801, 0.79268975747613046, 0.4140457491169941,
        0.80652544104346346,
    },
    {
        0.62301660408539306, 0.50509438170546739, 0.44104183405812381,
        0.42613346475357283, 0.79582347392922714, 0.64972280200068155,
        0.47524391974053404, 0.25987254707264562, 0.59960918224429127,
        0.19313458027481609, 0.9407186029600253, 0.4643621203629153,
        0.46836868925757213, 0.85374390281022128, 0.78431444680620865,
        0.75122225384684793,
    },
};
// AVX2 tier: separate layers, then shared layers.
constexpr double kGoldenAvx2[2][16] = {
    {
        0.71545518185530876, 0.36309148773733729, 0.75138006502518617,
        0.66701141059963198, 0.54071451486087008, 0.64254908362864394,
        0.64191567352538292, 0.7294801643269575, 0.60704810000959641,
        0.83051093867021786, 0.92290145737917406, 0.652128248060866,
        0.68078116380138176, 0.79268977706611499, 0.41404566235223189,
        0.80652542244178849,
    },
    {
        0.62301677207528683, 0.50509435190623875, 0.44104206916168187,
        0.42613369796866846, 0.79582345455909109, 0.64972285626071469,
        0.47524368190643279, 0.25987259292979314, 0.59960926810287551,
        0.19313459885163117, 0.9407186029600253, 0.46436226861751656,
        0.46836857052537895, 0.85374385815492204, 0.78431438630797845,
        0.75122225384684793,
    },
};

TEST(MiniBertGoldenTest, FineTunedScoresArePinned) {
  const auto& golden = la::ActiveSimdLevel() == la::SimdLevel::kAvx2
                           ? kGoldenAvx2
                           : kGoldenScalar;
  for (int shared = 0; shared < 2; ++shared) {
    const std::vector<double> scores = GoldenScores(shared == 1);
    ASSERT_EQ(scores.size(), 16u);
    for (size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], golden[shared][i])
          << "shared " << shared << " text " << i;
    }
  }
}

TEST(BertVariantTest, AlbertSharesParameters) {
  BertConfig shared;
  shared.max_len = 10;
  shared.dim = 16;
  shared.heads = 2;
  shared.ffn = 32;
  shared.layers = 2;
  shared.share_layers = true;
  BertConfig full = shared;
  full.share_layers = false;
  text::Vocabulary vocab;
  vocab.Add("word", 1);
  MiniBertBackbone albert(shared, vocab);
  text::Vocabulary vocab2;
  vocab2.Add("word", 1);
  MiniBertBackbone bert(full, vocab2);
  // ALBERT has one encoder layer's worth of parameters fewer.
  EXPECT_LT(albert.Parameters().size(), bert.Parameters().size());
}

}  // namespace
}  // namespace semtag::models
