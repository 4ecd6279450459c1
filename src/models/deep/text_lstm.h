#ifndef SEMTAG_MODELS_DEEP_TEXT_LSTM_H_
#define SEMTAG_MODELS_DEEP_TEXT_LSTM_H_

#include <memory>
#include <vector>

#include "models/model.h"
#include "nn/layers.h"
#include "text/sequence_encoder.h"

namespace semtag::models {

/// Recurrent cell choice for TextLstm.
enum class RnnCell { kLstm, kGru };

/// Options for TextLstm.
struct LstmOptions {
  /// GRU is the LSTM variant the paper cites (Chung et al. [9]); exposed
  /// for the ablation bench.
  RnnCell cell = RnnCell::kLstm;
  int max_len = 20;
  int embed_dim = 32;
  int hidden_dim = 48;
  /// Minimum epochs (paper: 10 at full scale); scaled up on tiny training
  /// sets so the optimizer-step count stays meaningful (see MiniBert).
  int epochs = 6;
  int min_optimizer_steps = 250;
  double learning_rate = 1e-3;
  int batch_size = 32;
  double dropout = 0.3;
  size_t max_train_examples = 4000;
  size_t max_words = 20000;
  uint64_t seed = 29;
};

/// LSTM sentence classifier (Section 3.3's LSTM): embeddings -> single-layer
/// LSTM -> final hidden state -> dropout -> softmax head.
class TextLstm : public TaggingModel {
 public:
  explicit TextLstm(LstmOptions options = {});

  std::string name() const override {
    return options_.cell == RnnCell::kGru ? "GRU" : "LSTM";
  }
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
  /// is a batch of one). The embedded batch is laid out timestep-major so
  /// each recurrent step is one [B x 4H] (or [B x 2H]/[B x H] for GRU) gate
  /// GEMM.
  nn::Variable LogitsBatch(
      const std::vector<const std::vector<int32_t>*>& batch,
      bool training) const;

  LstmOptions options_;
  text::SequenceEncoder encoder_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::Gru> gru_;
  std::unique_ptr<nn::Linear> head_;
  mutable Rng rng_;
  bool trained_ = false;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_DEEP_TEXT_LSTM_H_
