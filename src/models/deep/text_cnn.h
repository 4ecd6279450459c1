#ifndef SEMTAG_MODELS_DEEP_TEXT_CNN_H_
#define SEMTAG_MODELS_DEEP_TEXT_CNN_H_

#include <memory>
#include <vector>

#include "models/model.h"
#include "nn/layers.h"
#include "text/sequence_encoder.h"

namespace semtag::models {

/// Options for TextCnn.
struct CnnOptions {
  int max_len = 20;
  int embed_dim = 32;
  std::vector<int> filter_widths = {2, 3, 4};
  int filters_per_width = 32;
  /// Minimum epochs (paper: 10 at full scale); scaled up on tiny training
  /// sets so the optimizer-step count stays meaningful (see MiniBert).
  int epochs = 6;
  int min_optimizer_steps = 250;
  double learning_rate = 1e-3;
  int batch_size = 32;
  double dropout = 0.3;
  size_t max_train_examples = 4000;
  size_t max_words = 20000;
  uint64_t seed = 23;
};

/// Kim (2014)-style convolutional sentence classifier (Section 3.3's CNN):
/// embeddings -> parallel Conv1d+ReLU+max-over-time per width -> concat ->
/// dropout -> softmax head. Embeddings are trained from scratch.
class TextCnn : public TaggingModel {
 public:
  explicit TextCnn(CnnOptions options = {});

  std::string name() const override { return "CNN"; }
  bool is_deep() const override { return true; }
  Status Train(const data::Dataset& train) override;
  double Score(std::string_view text) const override {
    return ScoreAsBatchOfOne(text);
  }
  std::vector<double> ScoreBatch(
      std::span<const std::string> texts) const override;

 protected:
  size_t score_batch_size() const override {
    return static_cast<size_t>(options_.batch_size);
  }

 private:
  /// The model's one forward graph: B sequences -> [B x 2] logits (Score
  /// is a batch of one). Embeddings are block-major ([B*L x E]); each
  /// ConvPool runs the batch through one im2col GEMM and per-block max
  /// pooling.
  nn::Variable LogitsBatch(
      const std::vector<const std::vector<int32_t>*>& batch,
      bool training) const;

  CnnOptions options_;
  text::SequenceEncoder encoder_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::vector<std::unique_ptr<nn::ConvPool>> convs_;
  std::unique_ptr<nn::Linear> head_;
  mutable Rng rng_;
  bool trained_ = false;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_DEEP_TEXT_CNN_H_
