// Batched-execution contract (see DESIGN.md "Batched execution"): every
// deep family has one stacked forward graph, and Score() is a batch of one
// through it. Stacking reorders no per-row arithmetic (row-wise GEMMs,
// per-row softmax/layer-norm, per-sequence attention tiles), so a text's
// score is bit-identical whatever span ScoreBatch/ScoreAll receives it in.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/specs.h"
#include "models/deep/embedding_models.h"
#include "models/deep/mini_bert.h"
#include "models/deep/text_cnn.h"
#include "models/deep/text_lstm.h"
#include "models/factory.h"

namespace semtag::models {
namespace {

/// Span sizes a caller (the serve batcher, the cascade's escalation
/// gather) may hand a model: singletons, partial and odd chunks, and a
/// full default batch.
constexpr size_t kSpans[] = {1, 4, 7, 32};

data::Dataset SmallDataset(int n, uint64_t seed = 77) {
  data::GeneratorConfig config;
  config.bg_vocab = 1500;
  config.signal_topic = 18;
  config.positive_topics = {19, 20};
  config.negative_topics = {21, 22};
  config.signal_strength = 0.4;
  config.signal_leak = 0.1;
  config.avg_len = 12;
  config.seed = seed;
  return data::GenerateDataset(data::SharedLanguage(), config, "parity", n,
                               0.5);
}

/// Scores `texts` through ScoreBatch and through ScoreAll in consecutive
/// spans of every kSpans size; each score must equal Score(text) exactly.
void ExpectSpanInvariant(const TaggingModel& model,
                         const std::vector<std::string>& texts) {
  std::vector<double> reference;
  for (const std::string& t : texts) reference.push_back(model.Score(t));
  for (size_t span : kSpans) {
    for (size_t start = 0; start < texts.size(); start += span) {
      const size_t end = std::min(start + span, texts.size());
      const std::vector<std::string> chunk(texts.begin() + start,
                                           texts.begin() + end);
      const std::vector<double> batched =
          model.ScoreBatch(std::span<const std::string>(chunk));
      const std::vector<double> all = model.ScoreAll(chunk);
      ASSERT_EQ(batched.size(), chunk.size());
      ASSERT_EQ(all.size(), chunk.size());
      for (size_t k = 0; k < chunk.size(); ++k) {
        EXPECT_EQ(batched[k], reference[start + k])
            << model.name() << " ScoreBatch span " << span << " text "
            << start + k;
        EXPECT_EQ(all[k], reference[start + k])
            << model.name() << " ScoreAll span " << span << " text "
            << start + k;
      }
    }
  }
}

TEST(BatchParityTest, FactoryModelsScoreBatchMatchesScore) {
  // Transformer kinds are covered by the fixture below (creating them via
  // the factory pulls the shared pretrained backbone, which the bench
  // suite owns).
  const ModelKind kinds[] = {ModelKind::kLr,  ModelKind::kSvm,
                             ModelKind::kCnn, ModelKind::kLstm,
                             ModelKind::kNaiveBayes, ModelKind::kXgboost};
  data::Dataset d = SmallDataset(220);
  auto [train, test] = d.Split(0.75);
  const auto texts = test.Texts();
  for (ModelKind kind : kinds) {
    auto model = CreateModelSeeded(kind, 5);
    ASSERT_TRUE(model->Train(train).ok()) << ModelKindName(kind);
    ExpectSpanInvariant(*model, texts);
  }
}

class BatchParityBertTest : public ::testing::Test {
 protected:
  static MiniBertBackbone* Backbone() {
    static MiniBertBackbone* backbone = [] {
      BertConfig config;
      config.max_len = 12;
      config.dim = 16;
      config.heads = 2;
      config.ffn = 32;
      config.layers = 2;
      config.seed = 9;
      const auto corpus = data::GeneratePretrainCorpus(
          data::SharedLanguage(), 250, 10, 91);
      text::VocabularyBuilder builder;
      for (const auto& s : corpus) builder.AddDocument(text::Tokenize(s));
      auto* b = new MiniBertBackbone(config, builder.Build(1, 4000));
      PretrainOptions pretrain;
      pretrain.epochs = 1;
      b->Pretrain(corpus, pretrain);
      return b;
    }();
    return backbone;
  }
};

TEST_F(BatchParityBertTest, EncodeBatchMatchesPerSequenceEncode) {
  const MiniBertBackbone* backbone = Backbone();
  const std::vector<std::string> texts = {
      "alpha beta gamma", "one ordinary sentence about a topic",
      "short", "a slightly longer sentence that will be truncated by pad"};
  std::vector<std::vector<int32_t>> ids;
  std::vector<const std::vector<int32_t>*> ptrs;
  for (const auto& t : texts) ids.push_back(backbone->EncodeIds(t));
  for (const auto& v : ids) ptrs.push_back(&v);
  nn::Variable batched =
      backbone->EncodeBatch(ptrs, /*rng=*/nullptr, /*training=*/false);
  const size_t T = static_cast<size_t>(backbone->config().max_len);
  ASSERT_EQ(batched.value().rows(), texts.size() * T);
  for (size_t s = 0; s < texts.size(); ++s) {
    nn::Variable single =
        backbone->EncodeBatch({&ids[s]}, /*rng=*/nullptr, /*training=*/false);
    for (size_t r = 0; r < T; ++r) {
      for (size_t c = 0; c < batched.value().cols(); ++c) {
        EXPECT_EQ(batched.value().At(s * T + r, c), single.value().At(r, c))
            << "sequence " << s << " row " << r << " col " << c;
      }
    }
  }
}

TEST_F(BatchParityBertTest, MiniBertScoreBatchAndEmbedBatchMatch) {
  BertFinetuneOptions options;
  options.epochs = 1;
  options.max_train_examples = 80;
  MiniBert model("BERT", *Backbone(), options);
  data::Dataset d = SmallDataset(120, 78);
  ASSERT_TRUE(model.Train(d).ok());
  const auto texts = d.Texts();
  ExpectSpanInvariant(model, texts);

  const BertFeaturizer featurizer(Backbone());
  const auto batched = featurizer.EmbedBatch(
      std::span<const std::string>(texts.data(), 5));
  ASSERT_EQ(batched.size(), 5u);
  for (size_t i = 0; i < batched.size(); ++i) {
    const auto single =
        featurizer.EmbedBatch(std::span<const std::string>(&texts[i], 1));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(batched[i], single[0]) << "text " << i;
  }
}

TEST_F(BatchParityBertTest, EmbeddingLinearModelsScoreBatchMatches) {
  data::Dataset d = SmallDataset(100, 79);
  auto [train, test] = d.Split(0.8);
  EmbeddingLinearModel lr("LR+eb", Backbone());
  ASSERT_TRUE(lr.Train(train).ok());
  ExpectSpanInvariant(lr, test.Texts());

  EmbeddingLinearOptions svm_options;
  svm_options.hinge = true;
  EmbeddingLinearModel svm("SVM+eb", Backbone(), svm_options);
  ASSERT_TRUE(svm.Train(train).ok());
  ExpectSpanInvariant(svm, test.Texts());
}

TEST_F(BatchParityBertTest, DeepBatchOneIsBitIdenticalToScore) {
  // Score() is a batch of one; each text scored alone must equal the same
  // text scored at any position inside one full stacked batch.
  BertFinetuneOptions options;
  options.epochs = 1;
  options.max_train_examples = 60;
  MiniBert model("BERT", *Backbone(), options);
  data::Dataset d = SmallDataset(80, 80);
  ASSERT_TRUE(model.Train(d).ok());
  const auto texts = d.Texts();
  const auto batched = model.ScoreBatch(std::span<const std::string>(texts));
  ASSERT_EQ(batched.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(batched[i], model.Score(texts[i])) << "text " << i;
  }
}

TEST(BatchParityTest, DeepScoresAreBatchSizeInvariant) {
  CnnOptions cnn_options;
  cnn_options.max_len = 12;
  cnn_options.embed_dim = 16;
  cnn_options.filters_per_width = 8;
  cnn_options.epochs = 1;
  cnn_options.min_optimizer_steps = 1;
  cnn_options.max_train_examples = 100;
  auto cnn = std::make_unique<TextCnn>(cnn_options);

  LstmOptions lstm_options;
  lstm_options.max_len = 12;
  lstm_options.embed_dim = 16;
  lstm_options.hidden_dim = 16;
  lstm_options.epochs = 1;
  lstm_options.min_optimizer_steps = 1;
  lstm_options.max_train_examples = 100;
  auto lstm = std::make_unique<TextLstm>(lstm_options);

  LstmOptions gru_options = lstm_options;
  gru_options.cell = RnnCell::kGru;
  auto gru = std::make_unique<TextLstm>(gru_options);

  data::Dataset d = SmallDataset(140, 81);
  const auto texts = d.Texts();
  for (TaggingModel* model :
       {static_cast<TaggingModel*>(cnn.get()),
        static_cast<TaggingModel*>(lstm.get()),
        static_cast<TaggingModel*>(gru.get())}) {
    ASSERT_TRUE(model->Train(d).ok()) << model->name();
    ExpectSpanInvariant(*model, texts);
  }
}

TEST(BatchParityTest, ScoreAllRoutesThroughBatchedPath) {
  CnnOptions options;
  options.max_len = 12;
  options.embed_dim = 8;
  options.filters_per_width = 4;
  options.epochs = 1;
  options.min_optimizer_steps = 1;
  options.max_train_examples = 80;
  TextCnn model(options);
  data::Dataset d = SmallDataset(100, 82);
  ASSERT_TRUE(model.Train(d).ok());
  const auto texts = d.Texts();
  const auto all = model.ScoreAll(texts);
  ASSERT_EQ(all.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(all[i], model.Score(texts[i])) << "text " << i;
  }
}

}  // namespace
}  // namespace semtag::models
