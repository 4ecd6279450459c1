#include "models/deep/mini_bert.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "common/timer.h"
#include "la/init.h"
#include "models/deep/sequence_classifier.h"
#include "nn/train_guard.h"
#include "obs/trace.h"

namespace semtag::models {

namespace {

text::SequenceEncoderOptions EncoderOptionsFor(const BertConfig& config) {
  text::SequenceEncoderOptions opts;
  opts.max_len = config.max_len;
  opts.add_cls = true;
  return opts;
}

}  // namespace

MiniBertBackbone::MiniBertBackbone(const BertConfig& config,
                                   text::Vocabulary word_vocab)
    : config_(config),
      encoder_(EncoderOptionsFor(config)),
      dropout_rng_(config.seed ^ 0xd00d) {
  SEMTAG_CHECK(config_.layers >= 1);
  encoder_.SetVocabulary(std::move(word_vocab));
  Rng rng(config.seed);
  token_embedding_ = std::make_unique<nn::Embedding>(
      static_cast<size_t>(encoder_.vocab_size()),
      static_cast<size_t>(config_.dim), &rng);
  la::Matrix pos(static_cast<size_t>(config_.max_len),
                 static_cast<size_t>(config_.dim));
  la::GaussianInit(&pos, &rng, 0.02f);
  position_table_ = nn::Variable(std::move(pos), /*requires_grad=*/true);
  embedding_norm_ = std::make_unique<nn::LayerNormLayer>(
      static_cast<size_t>(config_.dim));
  const int distinct_layers = config_.share_layers ? 1 : config_.layers;
  for (int l = 0; l < distinct_layers; ++l) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        static_cast<size_t>(config_.dim),
        static_cast<size_t>(config_.heads),
        static_cast<size_t>(config_.ffn), &rng));
  }
  mlm_bias_ = nn::Variable(
      la::Matrix(1, static_cast<size_t>(encoder_.vocab_size())),
      /*requires_grad=*/true);
}

std::vector<int32_t> MiniBertBackbone::EncodeIds(
    std::string_view text) const {
  return encoder_.Encode(text);
}

la::Matrix MiniBertBackbone::BatchAttentionMask(
    const std::vector<const std::vector<int32_t>*>& batch) const {
  const size_t T = static_cast<size_t>(config_.max_len);
  la::Matrix mask(batch.size() * T, T);
  for (size_t s = 0; s < batch.size(); ++s) {
    const std::vector<int32_t>& ids = *batch[s];
    for (size_t j = 0; j < T; ++j) {
      if (ids[j] == text::kPadId) {
        for (size_t i = 0; i < T; ++i) mask(s * T + i, j) = -1e9f;
      }
    }
  }
  return mask;
}

nn::Variable MiniBertBackbone::Encode(
    const std::vector<const std::vector<int32_t>*>& batch, Rng* rng,
    bool training, nn::BlockRows last_layer_rows) const {
  SEMTAG_CHECK(!batch.empty());
  const size_t T = static_cast<size_t>(config_.max_len);
  std::vector<int32_t> flat;
  flat.reserve(batch.size() * T);
  for (const std::vector<int32_t>* ids : batch) {
    SEMTAG_CHECK(ids != nullptr && ids->size() == T);
    flat.insert(flat.end(), ids->begin(), ids->end());
  }
  nn::Variable h = token_embedding_->Forward(flat);  // [B*T x d]
  h = nn::AddBlockBroadcast(h, position_table_);
  h = embedding_norm_->Forward(h);
  h = nn::Dropout(h, config_.dropout, rng, training);
  // One [B*T x T] pad mask for the whole batch, shared across layers.
  const la::Matrix mask = BatchAttentionMask(batch);
  for (int l = 0; l < config_.layers; ++l) {
    const auto& layer =
        layers_[config_.share_layers ? 0 : static_cast<size_t>(l)];
    const bool last = l + 1 == config_.layers;
    h = layer->Forward(h, mask, config_.dropout, rng, training,
                       last ? last_layer_rows : nn::BlockRows::kAll);
  }
  return h;
}

std::vector<nn::Variable> MiniBertBackbone::Parameters() const {
  std::vector<nn::Variable> params;
  token_embedding_->CollectParameters(&params);
  params.push_back(position_table_);
  embedding_norm_->CollectParameters(&params);
  for (const auto& layer : layers_) layer->CollectParameters(&params);
  params.push_back(mlm_bias_);
  return params;
}

std::unique_ptr<MiniBertBackbone> MiniBertBackbone::Clone() const {
  auto clone = std::make_unique<MiniBertBackbone>(
      config_, encoder_.word_vocabulary());
  const auto src = Parameters();
  const auto dst = clone->Parameters();
  SEMTAG_CHECK(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i].node()->value = src[i].value();
  }
  return clone;
}

PretrainStats MiniBertBackbone::Pretrain(
    const std::vector<std::string>& corpus, const PretrainOptions& options) {
  PretrainStats stats;
  Rng rng(options.seed);
  nn::Adam optimizer(Parameters(), static_cast<float>(options.learning_rate));
  nn::TrainGuardOptions guard_options;
  guard_options.context = "MLM-pretrain";
  nn::TrainGuard guard(&optimizer, guard_options);
  const int32_t vocab = vocab_size();
  const size_t T = static_cast<size_t>(config_.max_len);
  const size_t batch = static_cast<size_t>(std::max(1, options.batch_size));
  std::vector<size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), size_t{0});
  int64_t steps = 0;
  double loss_acc = 0.0;
  int64_t loss_count = 0;

  // Per-sequence MLM corruption, consuming the RNG in corpus-shuffle
  // order. Returns false when no position was maskable.
  auto corrupt = [&](const std::vector<int32_t>& ids,
                     std::vector<int32_t>* corrupted,
                     std::vector<int32_t>* positions,
                     std::vector<int32_t>* targets) {
    *corrupted = ids;
    for (int32_t p = 0; p < static_cast<int32_t>(ids.size()); ++p) {
      const int32_t id = ids[static_cast<size_t>(p)];
      if (id == text::kPadId || id == text::kClsId) continue;
      if (!rng.Bernoulli(options.mask_prob)) continue;
      positions->push_back(p);
      targets->push_back(id);
      const double u = rng.UniformDouble();
      if (u < 0.8) {
        (*corrupted)[static_cast<size_t>(p)] = text::kMaskId;
      } else if (u < 0.9) {
        (*corrupted)[static_cast<size_t>(p)] = static_cast<int32_t>(
            text::kNumSpecialTokens +
            rng.Uniform(static_cast<uint64_t>(
                vocab - text::kNumSpecialTokens)));
      }  // else keep the original token
    }
    return !positions->empty();
  };
  auto abort_with = [&](const Status& st) {
    // Pretraining has no Status channel; stop on the last-good snapshot
    // (finite weights) rather than emitting garbage.
    SEMTAG_LOG(kError, "MLM pretraining aborted: %s", st.ToString().c_str());
    stats.aborted = true;
    stats.retries = guard.retries();
  };

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train/BERT/pretrain_epoch");
    rng.Shuffle(&order);
    // Accumulate corrupted sequences and run each batch of them through
    // one stacked forward/backward. The loss is the mean over all masked
    // positions in the batch; seeding Backward with the sequence count
    // scales the parameter gradients to a sum over the B sequences.
    std::vector<std::vector<int32_t>> pend_ids;
    std::vector<int32_t> pend_positions;  // global rows into [B*T x d]
    std::vector<int32_t> pend_targets;
    auto run_batch = [&]() -> Status {
      const size_t nseq = pend_ids.size();
      if (nseq == 0) return Status::OK();
      std::vector<const std::vector<int32_t>*> ptrs;
      ptrs.reserve(nseq);
      for (const auto& ids : pend_ids) ptrs.push_back(&ids);
      nn::Variable hidden = EncodeBatch(ptrs, &rng, /*training=*/true);
      nn::Variable picked = nn::GatherRows(hidden, pend_positions);
      // Tied-weight MLM head: logits = picked * E^T + bias.
      nn::Variable logits = nn::AddRowBroadcast(
          nn::MatMulBT(picked, token_embedding_->table()), mlm_bias_);
      nn::Variable loss = nn::SoftmaxCrossEntropy(logits, pend_targets);
      const double mean_loss = loss.value().At(0, 0);
      loss_acc += mean_loss * static_cast<double>(nseq);
      loss_count += static_cast<int64_t>(nseq);
      steps += static_cast<int64_t>(nseq);
      nn::Backward(loss, static_cast<float>(nseq));
      pend_ids.clear();
      pend_positions.clear();
      pend_targets.clear();
      return guard.Step(mean_loss);
    };
    for (size_t idx : order) {
      const std::vector<int32_t> ids = encoder_.Encode(corpus[idx]);
      std::vector<int32_t> corrupted, positions, targets;
      if (!corrupt(ids, &corrupted, &positions, &targets)) continue;
      const int32_t row0 = static_cast<int32_t>(pend_ids.size() * T);
      for (int32_t p : positions) pend_positions.push_back(row0 + p);
      pend_targets.insert(pend_targets.end(), targets.begin(),
                          targets.end());
      pend_ids.push_back(std::move(corrupted));
      if (pend_ids.size() >= batch) {
        const Status st = run_batch();
        if (!st.ok()) {
          abort_with(st);
          return stats;
        }
      }
    }
    const Status st = run_batch();  // real mean loss on the final flush
    if (!st.ok()) {
      abort_with(st);
      return stats;
    }
    const double mean_loss =
        loss_count ? loss_acc / static_cast<double>(loss_count) : 0.0;
    SEMTAG_LOG(kInfo, "MLM pretrain epoch %d: mean loss %.3f (%lld steps)",
               epoch, mean_loss, static_cast<long long>(steps));
    if (epoch == 0) stats.first_epoch_loss = mean_loss;
    stats.last_epoch_loss = mean_loss;
    loss_acc = 0.0;
    loss_count = 0;
  }
  stats.retries = guard.retries();
  return stats;
}

// ------------------------------------------------------------- MiniBert

MiniBert::MiniBert(std::string display_name,
                   const MiniBertBackbone& backbone,
                   BertFinetuneOptions options)
    : display_name_(std::move(display_name)),
      options_(options),
      backbone_(backbone.Clone()),
      rng_(options.seed) {
  Rng init_rng(options_.seed ^ 0xbeef);
  cls_head_ = std::make_unique<nn::Linear>(
      static_cast<size_t>(backbone_->config().dim), 2, &init_rng);
}

Status MiniBert::Train(const data::Dataset& train_full) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train_full.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  data::Dataset train = train_full.Take(options_.max_train_examples);
  if (train.size() < train_full.size()) {
    SEMTAG_LOG(kInfo, "%s: capped training set %zu -> %zu (GPU-budget cap, "
               "see DESIGN.md)", display_name_.c_str(), train_full.size(),
               train.size());
  }
  // Pre-encode once.
  std::vector<std::vector<int32_t>> encoded;
  encoded.reserve(train.size());
  for (const auto& e : train.examples()) {
    encoded.push_back(backbone_->EncodeIds(e.text));
  }

  std::vector<nn::Variable> params = backbone_->Parameters();
  cls_head_->CollectParameters(&params);
  ClassifierTrainOptions loop;
  loop.epochs = options_.epochs;
  loop.min_optimizer_steps = options_.min_optimizer_steps;
  loop.batch_size = options_.batch_size;
  loop.learning_rate = options_.learning_rate;
  loop.context = display_name_ + "@" + train.name();
  loop.epoch_span = "train/BERT/finetune_epoch";
  loop.span_tag = train.name();
  int retries = 0;
  const Status train_status = TrainSequenceClassifier(
      loop, std::move(params), encoded, train.Labels(), &rng_,
      cancellation(), std::bind_front(&MiniBert::LogitsBatch, this),
      &retries);
  set_train_retries(retries);
  set_train_seconds(timer.ElapsedSeconds());
  if (!train_status.ok()) return train_status;
  trained_ = true;
  return Status::OK();
}

nn::Variable MiniBert::LogitsBatch(
    const std::vector<const std::vector<int32_t>*>& batch,
    bool training) const {
  // Inference passes no RNG, so concurrent ScoreAll shards never touch the
  // model's mutable rng_ (Dropout asserts this).
  return cls_head_->Forward(
      backbone_->EncodeCls(batch, training ? &rng_ : nullptr, training));
}

std::vector<double> MiniBert::ScoreBatch(
    std::span<const std::string> texts) const {
  SEMTAG_CHECK(trained_);
  return ScoreSequences(
      texts, score_batch_size(),
      [this](std::string_view text) { return backbone_->EncodeIds(text); },
      std::bind_front(&MiniBert::LogitsBatch, this));
}

}  // namespace semtag::models
