// Deep-model tests use deliberately tiny architectures and datasets so the
// suite stays fast on one CPU core; the shapes of the paper's experiments
// are exercised by the bench binaries instead.

#include <cmath>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/specs.h"
#include "eval/metrics.h"
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
