#include "models/deep/mini_bert.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/timer.h"
#include "la/init.h"
#include "nn/quant.h"
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

nn::Variable MiniBertBackbone::Encode(const std::vector<int32_t>& ids,
                                      Rng* rng, bool training) const {
  return EncodeBatch({&ids}, rng, training);
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

nn::Variable MiniBertBackbone::EncodeBatch(
    const std::vector<const std::vector<int32_t>*>& batch, Rng* rng,
    bool training) const {
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
    h = layer->Forward(h, mask, config_.dropout, rng, training);
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

void MiniBertBackbone::PrepareQuantInference() {
  token_embedding_->PrepareQuantInference();
  for (const auto& layer : layers_) layer->PrepareQuantInference();
  // The position add, layer norms, softmaxes, and the tied MLM head stay
  // fp32 (see DESIGN.md "Int8 inference tier").
}

PretrainStats MiniBertBackbone::Pretrain(
    const std::vector<std::string>& corpus, const PretrainOptions& options) {
  // Weights are about to move: any int8 view built from them is stale.
  for (const auto& p : Parameters()) nn::DropQuantWeight(p);
  PretrainStats stats;
  Rng rng(options.seed);
  nn::Adam optimizer(Parameters(), static_cast<float>(options.learning_rate));
  nn::TrainGuardOptions guard_options;
  guard_options.context = "MLM-pretrain";
  nn::TrainGuard guard(&optimizer, guard_options);
  const int32_t vocab = vocab_size();
  const size_t T = static_cast<size_t>(config_.max_len);
  const size_t batch = EffectiveDeepBatch(
      static_cast<size_t>(std::max(1, options.batch_size)));
  std::vector<size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), size_t{0});
  int64_t steps = 0;
  double loss_acc = 0.0;
  int64_t loss_count = 0;

  // Per-sequence MLM corruption (shared by both execution paths; the
  // corruption RNG is consumed in the same per-sequence order either way).
  // Returns false when no position was maskable.
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
    if (batch <= 1) {
      // Per-example path (SEMTAG_DEEP_BATCH=1): bit-identical to the
      // pre-batching loop except the partial-batch flush now reports the
      // real mean loss (value feeds only the finiteness check when
      // training is healthy).
      int in_batch = 0;
      double batch_loss = 0.0;
      for (size_t idx : order) {
        const std::vector<int32_t> ids = encoder_.Encode(corpus[idx]);
        std::vector<int32_t> corrupted, positions, targets;
        if (!corrupt(ids, &corrupted, &positions, &targets)) continue;
        nn::Variable hidden = Encode(corrupted, &rng, /*training=*/true);
        nn::Variable picked = nn::GatherRows(hidden, positions);
        // Tied-weight MLM head: logits = picked * E^T + bias.
        nn::Variable logits = nn::AddRowBroadcast(
            nn::MatMulBT(picked, token_embedding_->table()), mlm_bias_);
        nn::Variable loss = nn::SoftmaxCrossEntropy(logits, targets);
        loss_acc += loss.value().At(0, 0);
        batch_loss += loss.value().At(0, 0);
        ++loss_count;
        nn::Backward(loss);
        if (++in_batch >= options.batch_size) {
          const Status st = guard.Step(loss.value().At(0, 0));
          if (!st.ok()) {
            abort_with(st);
            return stats;
          }
          in_batch = 0;
          batch_loss = 0.0;
        }
        ++steps;
      }
      if (in_batch > 0) {
        const Status st =
            guard.Step(batch_loss / static_cast<double>(in_batch));
        if (!st.ok()) {
          abort_with(st);
          return stats;
        }
      }
    } else {
      // Batched path: accumulate corrupted sequences and run them through
      // one stacked forward/backward. The loss is the mean over all masked
      // positions in the batch; seeding Backward with the sequence count
      // keeps the parameter-gradient scale of the accumulation loop (which
      // sums B per-sequence mean losses).
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
        const int32_t row0 =
            static_cast<int32_t>(pend_ids.size() * T);
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
  const auto labels = train.Labels();

  std::vector<nn::Variable> params = backbone_->Parameters();
  cls_head_->CollectParameters(&params);
  nn::Adam optimizer(std::move(params),
                     static_cast<float>(options_.learning_rate));
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const int effective_epochs = std::max<int>(
      options_.epochs,
      static_cast<int>((static_cast<size_t>(options_.min_optimizer_steps) *
                            static_cast<size_t>(options_.batch_size) +
                        train.size() - 1) /
                       train.size()));
  nn::TrainGuardOptions guard_options;
  guard_options.context = display_name_ + "@" + train.name();
  nn::TrainGuard guard(&optimizer, guard_options);
  const size_t T = static_cast<size_t>(backbone_->config().max_len);
  const size_t batch = EffectiveDeepBatch(
      static_cast<size_t>(std::max(1, options_.batch_size)));
  Status train_status = Status::OK();
  for (int epoch = 0; epoch < effective_epochs && train_status.ok();
       ++epoch) {
    obs::TraceSpan epoch_span("train/BERT/finetune_epoch",
                              train.name().c_str());
    rng_.Shuffle(&order);
    if (batch <= 1) {
      // Per-example path (SEMTAG_DEEP_BATCH=1): bit-identical to the
      // pre-batching loop; the partial-batch flush reports the real mean
      // loss instead of 0 (finiteness check only when healthy).
      int in_batch = 0;
      double batch_loss = 0.0;
      for (size_t i : order) {
        train_status = CheckCancelled();
        if (!train_status.ok()) break;
        nn::Variable hidden =
            backbone_->Encode(encoded[i], &rng_, /*training=*/true);
        nn::Variable cls = nn::SliceRows(hidden, 0, 1);
        nn::Variable logits = cls_head_->Forward(cls);
        nn::Variable loss =
            nn::SoftmaxCrossEntropy(logits, {labels[i]});
        batch_loss += loss.value().At(0, 0);
        nn::Backward(loss);
        if (++in_batch >= options_.batch_size) {
          train_status = guard.Step(loss.value().At(0, 0));
          if (!train_status.ok()) break;
          in_batch = 0;
          batch_loss = 0.0;
        }
      }
      if (train_status.ok() && in_batch > 0) {
        train_status =
            guard.Step(batch_loss / static_cast<double>(in_batch));
      }
    } else {
      // Batched path: B sequences per stacked forward, one optimizer step
      // per batch. The mean-over-B loss is backpropagated with seed B so
      // parameter gradients match the per-example accumulation loop's sum
      // of per-example gradients (same effective learning rate).
      for (size_t start = 0; start < order.size() && train_status.ok();
           start += batch) {
        train_status = CheckCancelled();
        if (!train_status.ok()) break;
        const size_t end = std::min(start + batch, order.size());
        const size_t bsz = end - start;
        std::vector<const std::vector<int32_t>*> ptrs;
        std::vector<int32_t> batch_labels;
        std::vector<int32_t> cls_rows;
        ptrs.reserve(bsz);
        batch_labels.reserve(bsz);
        cls_rows.reserve(bsz);
        for (size_t k = start; k < end; ++k) {
          const size_t i = order[k];
          ptrs.push_back(&encoded[i]);
          batch_labels.push_back(labels[i]);
          cls_rows.push_back(static_cast<int32_t>((k - start) * T));
        }
        nn::Variable hidden =
            backbone_->EncodeBatch(ptrs, &rng_, /*training=*/true);
        nn::Variable cls = nn::GatherRows(hidden, cls_rows);  // [B x d]
        nn::Variable logits = cls_head_->Forward(cls);
        nn::Variable loss = nn::SoftmaxCrossEntropy(logits, batch_labels);
        nn::Backward(loss, static_cast<float>(bsz));
        train_status = guard.Step(loss.value().At(0, 0));
      }
    }
  }
  set_train_retries(guard.retries());
  set_train_seconds(timer.ElapsedSeconds());
  if (!train_status.ok()) return train_status;
  trained_ = true;
  // Weights are frozen from here on (re-Train is a FailedPrecondition):
  // build the int8 views so scoring can ride the quantized kernels when
  // $SEMTAG_QUANT=1. With it unset, the views lie dormant and scoring is
  // bit-identical to the fp32 path.
  backbone_->PrepareQuantInference();
  cls_head_->PrepareQuantInference();
  return Status::OK();
}

double MiniBert::Score(std::string_view text) const {
  SEMTAG_CHECK(trained_);
  const auto ids = backbone_->EncodeIds(text);
  // rng is nullptr: inference must not touch the model's mutable RNG, so
  // concurrent ScoreAll shards cannot race (Dropout asserts this).
  nn::Variable hidden =
      backbone_->Encode(ids, /*rng=*/nullptr, /*training=*/false);
  nn::Variable cls = nn::SliceRows(hidden, 0, 1);
  nn::Variable logits = cls_head_->Forward(cls);
  const float a = logits.value().At(0, 0);
  const float b = logits.value().At(0, 1);
  // Softmax over two logits = sigmoid of their difference.
  return 1.0 / (1.0 + std::exp(static_cast<double>(a - b)));
}

std::vector<double> MiniBert::ScoreBatch(
    std::span<const std::string> texts) const {
  SEMTAG_CHECK(trained_);
  const size_t batch = EffectiveDeepBatch(score_batch_size());
  if (batch <= 1 || texts.size() <= 1) {
    return TaggingModel::ScoreBatch(texts);  // per-example (bit-identical)
  }
  const size_t T = static_cast<size_t>(backbone_->config().max_len);
  std::vector<double> out(texts.size());
  for (size_t start = 0; start < texts.size(); start += batch) {
    const size_t end = std::min(start + batch, texts.size());
    const size_t bsz = end - start;
    std::vector<std::vector<int32_t>> encoded;
    encoded.reserve(bsz);
    for (size_t i = start; i < end; ++i) {
      encoded.push_back(backbone_->EncodeIds(texts[i]));
    }
    std::vector<const std::vector<int32_t>*> ptrs;
    std::vector<int32_t> cls_rows;
    ptrs.reserve(bsz);
    cls_rows.reserve(bsz);
    for (size_t k = 0; k < bsz; ++k) {
      ptrs.push_back(&encoded[k]);
      cls_rows.push_back(static_cast<int32_t>(k * T));
    }
    nn::Variable hidden =
        backbone_->EncodeBatch(ptrs, /*rng=*/nullptr, /*training=*/false);
    nn::Variable cls = nn::GatherRows(hidden, cls_rows);
    nn::Variable logits = cls_head_->Forward(cls);
    for (size_t k = 0; k < bsz; ++k) {
      const float a = logits.value().At(k, 0);
      const float b = logits.value().At(k, 1);
      out[start + k] = 1.0 / (1.0 + std::exp(static_cast<double>(a - b)));
    }
  }
  return out;
}

std::vector<float> MiniBert::EmbedText(std::string_view text) const {
  const auto ids = backbone_->EncodeIds(text);
  nn::Variable hidden =
      backbone_->Encode(ids, /*rng=*/nullptr, /*training=*/false);
  const la::Matrix& h = hidden.value();
  return std::vector<float>(h.Row(0), h.Row(0) + h.cols());
}

std::vector<std::vector<float>> MiniBert::EmbedTextBatch(
    std::span<const std::string> texts) const {
  std::vector<std::vector<float>> out;
  out.reserve(texts.size());
  const size_t batch = EffectiveDeepBatch(score_batch_size());
  if (batch <= 1 || texts.size() <= 1) {
    for (const std::string& t : texts) out.push_back(EmbedText(t));
    return out;
  }
  const size_t T = static_cast<size_t>(backbone_->config().max_len);
  for (size_t start = 0; start < texts.size(); start += batch) {
    const size_t end = std::min(start + batch, texts.size());
    const size_t bsz = end - start;
    std::vector<std::vector<int32_t>> encoded;
    encoded.reserve(bsz);
    for (size_t i = start; i < end; ++i) {
      encoded.push_back(backbone_->EncodeIds(texts[i]));
    }
    std::vector<const std::vector<int32_t>*> ptrs;
    ptrs.reserve(bsz);
    for (const auto& ids : encoded) ptrs.push_back(&ids);
    nn::Variable hidden =
        backbone_->EncodeBatch(ptrs, /*rng=*/nullptr, /*training=*/false);
    const la::Matrix& h = hidden.value();
    for (size_t k = 0; k < bsz; ++k) {
      const float* row = h.Row(k * T);
      out.emplace_back(row, row + h.cols());
    }
  }
  return out;
}

}  // namespace semtag::models
