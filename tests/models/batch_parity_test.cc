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

/// Encodes the first `n` texts of a fixed set; `ids` keeps them alive.
std::vector<const std::vector<int32_t>*> EncodeTexts(
    const MiniBertBackbone& backbone, size_t n,
    std::vector<std::vector<int32_t>>* ids) {
  const auto texts = SmallDataset(32, 83).Texts();
  ids->clear();
  for (size_t s = 0; s < n; ++s) ids->push_back(backbone.EncodeIds(texts[s]));
  std::vector<const std::vector<int32_t>*> ptrs;
  for (const auto& v : *ids) ptrs.push_back(&v);
  return ptrs;
}

TEST_F(BatchParityBertTest, ClsEncodeMatchesFullHeightClsRows) {
  // EncodeCls runs the last layer on the [CLS] rows alone; its states are
  // EncodeBatch's [CLS] rows bit for bit, at inference and in training
  // (same dropout masks, and the RNG ends in the same state).
  const MiniBertBackbone* backbone = Backbone();
  const size_t T = static_cast<size_t>(backbone->config().max_len);
  for (size_t b : {1u, 3u, 32u}) {
    std::vector<std::vector<int32_t>> ids;
    const auto ptrs = EncodeTexts(*backbone, b, &ids);
    for (bool training : {false, true}) {
      SCOPED_TRACE(testing::Message() << "B=" << b << " training "
                                      << training);
      Rng full_rng(5), cls_rng(5);
      const la::Matrix full =
          backbone->EncodeBatch(ptrs, &full_rng, training).value();
      const la::Matrix cls =
          backbone->EncodeCls(ptrs, &cls_rng, training).value();
      ASSERT_EQ(cls.rows(), b);
      for (size_t s = 0; s < b; ++s) {
        for (size_t c = 0; c < cls.cols(); ++c) {
          ASSERT_EQ(cls(s, c), full(s * T, c)) << "sequence " << s;
        }
      }
      EXPECT_EQ(cls_rng.Next(), full_rng.Next());
    }
  }
}

TEST_F(BatchParityBertTest, ClsEncodeGradientsMatchFullHeight) {
  // One fine-tune step's parameter gradients through EncodeCls equal those
  // through EncodeBatch + GatherRows of the [CLS] rows, bit for bit at any
  // batch size: the [CLS]-only layer's weight gradients give each row a
  // GEMM k-panel of its own, padded with zero rows, as the full-height
  // product does with the zero-gradient rows between [CLS] rows.
  const auto backbone = Backbone()->Clone();
  const size_t T = static_cast<size_t>(backbone->config().max_len);
  const auto params = backbone->Parameters();
  Rng init(6);
  nn::Linear head(static_cast<size_t>(backbone->config().dim), 2, &init);
  for (size_t b : {3u, 4u, 32u}) {
    SCOPED_TRACE(testing::Message() << "B=" << b);
    std::vector<std::vector<int32_t>> ids;
    const auto ptrs = EncodeTexts(*backbone, b, &ids);
    std::vector<int32_t> labels, cls_rows;
    for (size_t s = 0; s < b; ++s) {
      labels.push_back(static_cast<int32_t>(s % 2));
      cls_rows.push_back(static_cast<int32_t>(s * T));
    }
    auto grads = [&](bool cls_only) {
      for (auto p : params) p.ZeroGrad();
      Rng rng(7);
      const nn::Variable states =
          cls_only ? backbone->EncodeCls(ptrs, &rng, /*training=*/true)
                   : nn::GatherRows(
                         backbone->EncodeBatch(ptrs, &rng, /*training=*/true),
                         cls_rows);
      nn::Backward(nn::SoftmaxCrossEntropy(head.Forward(states), labels),
                   static_cast<float>(b));
      std::vector<la::Matrix> out;
      for (const auto& p : params) out.push_back(p.grad());
      return out;
    };
    const auto full = grads(false);
    const auto cls = grads(true);
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(cls[i].SameShape(full[i])) << "parameter " << i;
      for (size_t e = 0; e < full[i].size(); ++e) {
        ASSERT_EQ(cls[i].data()[e], full[i].data()[e])
            << "parameter " << i << " element " << e;
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
