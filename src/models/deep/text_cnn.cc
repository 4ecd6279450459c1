#include "models/deep/text_cnn.h"

#include <functional>

#include "common/logging.h"
#include "common/timer.h"
#include "models/deep/sequence_classifier.h"

namespace semtag::models {

TextCnn::TextCnn(CnnOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  text::SequenceEncoderOptions eopts;
  eopts.max_len = options_.max_len;
  eopts.add_cls = false;
  eopts.max_words = options_.max_words;
  encoder_ = text::SequenceEncoder(eopts);
}

Status TextCnn::Train(const data::Dataset& train_full) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train_full.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  data::Dataset train = train_full.Take(options_.max_train_examples);
  if (train.size() < train_full.size()) {
    SEMTAG_LOG(kInfo, "CNN: capped training set %zu -> %zu (GPU-budget cap)",
               train_full.size(), train.size());
  }
  const auto texts = train.Texts();
  encoder_.Fit(texts);
  Rng init_rng(options_.seed);
  embedding_ = std::make_unique<nn::Embedding>(
      static_cast<size_t>(encoder_.vocab_size()),
      static_cast<size_t>(options_.embed_dim), &init_rng, 0.1f);
  convs_.clear();
  for (int w : options_.filter_widths) {
    SEMTAG_CHECK(w <= options_.max_len);
    convs_.push_back(std::make_unique<nn::ConvPool>(
        w, static_cast<size_t>(options_.embed_dim),
        static_cast<size_t>(options_.filters_per_width), &init_rng));
  }
  head_ = std::make_unique<nn::Linear>(
      options_.filter_widths.size() *
          static_cast<size_t>(options_.filters_per_width),
      2, &init_rng);

  std::vector<std::vector<int32_t>> encoded;
  encoded.reserve(train.size());
  for (const auto& t : texts) encoded.push_back(encoder_.Encode(t));

  std::vector<nn::Variable> params;
  embedding_->CollectParameters(&params);
  for (auto& c : convs_) c->CollectParameters(&params);
  head_->CollectParameters(&params);
  ClassifierTrainOptions loop;
  loop.epochs = options_.epochs;
  loop.min_optimizer_steps = options_.min_optimizer_steps;
  loop.batch_size = options_.batch_size;
  loop.learning_rate = options_.learning_rate;
  loop.context = "CNN@" + train.name();
  loop.epoch_span = "train/CNN/epoch";
  loop.span_tag = train.name();
  int retries = 0;
  const Status train_status = TrainSequenceClassifier(
      loop, std::move(params), encoded, train.Labels(), &rng_,
      cancellation(), std::bind_front(&TextCnn::LogitsBatch, this),
      &retries);
  set_train_retries(retries);
  set_train_seconds(timer.ElapsedSeconds());
  if (!train_status.ok()) return train_status;
  trained_ = true;
  return Status::OK();
}

nn::Variable TextCnn::LogitsBatch(
    const std::vector<const std::vector<int32_t>*>& batch,
    bool training) const {
  const size_t B = batch.size();
  const size_t L = static_cast<size_t>(options_.max_len);
  // Block-major flatten: sequence s occupies rows [s*L, (s+1)*L).
  std::vector<int32_t> flat;
  flat.reserve(B * L);
  for (const std::vector<int32_t>* ids : batch) {
    SEMTAG_CHECK(ids != nullptr && ids->size() == L);
    flat.insert(flat.end(), ids->begin(), ids->end());
  }
  nn::Variable x = embedding_->Forward(flat);  // [B*L x E]
  std::vector<nn::Variable> pooled;
  pooled.reserve(convs_.size());
  for (const auto& conv : convs_) {
    pooled.push_back(conv->ForwardBatch(x, B));  // [B x filters]
  }
  nn::Variable features = nn::ConcatCols(pooled);
  features = nn::Dropout(features, options_.dropout,
                         training ? &rng_ : nullptr, training);
  return head_->Forward(features);  // [B x 2]
}

std::vector<double> TextCnn::ScoreBatch(
    std::span<const std::string> texts) const {
  SEMTAG_CHECK(trained_);
  return ScoreSequences(
      texts, score_batch_size(),
      [this](std::string_view text) { return encoder_.Encode(text); },
      std::bind_front(&TextCnn::LogitsBatch, this));
}

}  // namespace semtag::models
