#ifndef SEMTAG_MODELS_DEEP_EMBEDDING_MODELS_H_
#define SEMTAG_MODELS_DEEP_EMBEDDING_MODELS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "models/deep/mini_bert.h"
#include "models/model.h"

namespace semtag::models {

/// Featurizes text with the pretrained (not fine-tuned) backbone's
/// last-layer [CLS] vector — the paper's "pre-trained embeddings" for
/// simple models (Table 6 / Figures 14-15).
class BertFeaturizer {
 public:
  /// Does not take ownership; `backbone` must outlive the featurizer.
  explicit BertFeaturizer(const MiniBertBackbone* backbone);

  /// Embeds texts through stacked backbone forwards, EmbedBatchSize() texts
  /// at a time; row i is texts[i]'s last-layer [CLS] vector.
  std::vector<std::vector<float>> EmbedBatch(
      std::span<const std::string> texts) const;

  size_t dim() const;

  /// Featurization chunk size.
  static constexpr size_t EmbedBatchSize() { return 32; }

 private:
  const MiniBertBackbone* backbone_;
};

/// Options for EmbeddingLinearModel.
struct EmbeddingLinearOptions {
  /// Hinge loss (SVM) instead of logistic loss (LR).
  bool hinge = false;
  int epochs = 60;
  double learning_rate = 0.1;
  double l2 = 1e-4;
  uint64_t seed = 31;
};

/// LR or linear SVM over pretrained [CLS] embeddings ("LR + eb." /
/// "SVM + eb." in Table 6): dense SGD on the 1-per-text featurization
/// vectors. Embeddings of the training set are computed once up front (the
/// dominant cost, included in train_seconds).
class EmbeddingLinearModel : public TaggingModel {
 public:
  EmbeddingLinearModel(std::string display_name,
                       const MiniBertBackbone* backbone,
                       EmbeddingLinearOptions options = {});

  std::string name() const override { return display_name_; }
  bool is_deep() const override { return false; }
  Status Train(const data::Dataset& train) override;
  double Score(std::string_view text) const override {
    return ScoreAsBatchOfOne(text);
  }
  std::vector<double> ScoreBatch(
      std::span<const std::string> texts) const override;
  double DecisionThreshold() const override {
    return options_.hinge ? 0.0 : 0.5;
  }

 protected:
  // Scoring cost is the backbone forward, so inference batches like the
  // deep models even though the classifier itself is linear.
  size_t score_batch_size() const override {
    return BertFeaturizer::EmbedBatchSize();
  }

 private:
  std::string display_name_;
  EmbeddingLinearOptions options_;
  BertFeaturizer featurizer_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
  bool trained_ = false;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_DEEP_EMBEDDING_MODELS_H_
