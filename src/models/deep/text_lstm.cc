#include "models/deep/text_lstm.h"

#include <functional>

#include "common/logging.h"
#include "common/timer.h"
#include "models/deep/sequence_classifier.h"

namespace semtag::models {

TextLstm::TextLstm(LstmOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  text::SequenceEncoderOptions eopts;
  eopts.max_len = options_.max_len;
  eopts.add_cls = false;
  eopts.max_words = options_.max_words;
  encoder_ = text::SequenceEncoder(eopts);
}

Status TextLstm::Train(const data::Dataset& train_full) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train_full.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  data::Dataset train = train_full.Take(options_.max_train_examples);
  if (train.size() < train_full.size()) {
    SEMTAG_LOG(kInfo, "LSTM: capped training set %zu -> %zu (GPU-budget cap)",
               train_full.size(), train.size());
  }
  const auto texts = train.Texts();
  encoder_.Fit(texts);
  Rng init_rng(options_.seed);
  embedding_ = std::make_unique<nn::Embedding>(
      static_cast<size_t>(encoder_.vocab_size()),
      static_cast<size_t>(options_.embed_dim), &init_rng, 0.1f);
  if (options_.cell == RnnCell::kGru) {
    gru_ = std::make_unique<nn::Gru>(
        static_cast<size_t>(options_.embed_dim),
        static_cast<size_t>(options_.hidden_dim), &init_rng);
  } else {
    lstm_ = std::make_unique<nn::Lstm>(
        static_cast<size_t>(options_.embed_dim),
        static_cast<size_t>(options_.hidden_dim), &init_rng);
  }
  head_ = std::make_unique<nn::Linear>(
      static_cast<size_t>(options_.hidden_dim), 2, &init_rng);

  std::vector<std::vector<int32_t>> encoded;
  encoded.reserve(train.size());
  for (const auto& t : texts) encoded.push_back(encoder_.Encode(t));

  std::vector<nn::Variable> params;
  embedding_->CollectParameters(&params);
  if (lstm_ != nullptr) lstm_->CollectParameters(&params);
  if (gru_ != nullptr) gru_->CollectParameters(&params);
  head_->CollectParameters(&params);
  const std::string family = name();
  ClassifierTrainOptions loop;
  loop.epochs = options_.epochs;
  loop.min_optimizer_steps = options_.min_optimizer_steps;
  loop.batch_size = options_.batch_size;
  loop.learning_rate = options_.learning_rate;
  loop.context = family + "@" + train.name();
  loop.epoch_span = "train/" + family + "/epoch";
  loop.span_tag = train.name();
  int retries = 0;
  const Status train_status = TrainSequenceClassifier(
      loop, std::move(params), encoded, train.Labels(), &rng_,
      cancellation(), std::bind_front(&TextLstm::LogitsBatch, this),
      &retries);
  set_train_retries(retries);
  set_train_seconds(timer.ElapsedSeconds());
  if (!train_status.ok()) return train_status;
  trained_ = true;
  return Status::OK();
}

nn::Variable TextLstm::LogitsBatch(
    const std::vector<const std::vector<int32_t>*>& batch,
    bool training) const {
  const size_t B = batch.size();
  const size_t L = static_cast<size_t>(options_.max_len);
  // Timestep-major flatten: flat[t*B + s] = sequence s at step t, so step
  // t's embedded rows are the contiguous block [t*B, (t+1)*B).
  std::vector<int32_t> flat(B * L);
  for (size_t s = 0; s < B; ++s) {
    SEMTAG_CHECK(batch[s] != nullptr && batch[s]->size() == L);
    for (size_t t = 0; t < L; ++t) flat[t * B + s] = (*batch[s])[t];
  }
  nn::Variable x = embedding_->Forward(flat);  // [T*B x E]
  nn::Variable h = gru_ != nullptr ? gru_->ForwardBatch(x, B)
                                   : lstm_->ForwardBatch(x, B);  // [B x H]
  h = nn::Dropout(h, options_.dropout, training ? &rng_ : nullptr, training);
  return head_->Forward(h);  // [B x 2]
}

std::vector<double> TextLstm::ScoreBatch(
    std::span<const std::string> texts) const {
  SEMTAG_CHECK(trained_);
  return ScoreSequences(
      texts, score_batch_size(),
      [this](std::string_view text) { return encoder_.Encode(text); },
      std::bind_front(&TextLstm::LogitsBatch, this));
}

}  // namespace semtag::models
