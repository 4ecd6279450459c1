#include "models/deep/embedding_models.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "common/timer.h"
#include "nn/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::models {

BertFeaturizer::BertFeaturizer(const MiniBertBackbone* backbone)
    : backbone_(backbone) {}

std::vector<std::vector<float>> BertFeaturizer::EmbedBatch(
    std::span<const std::string> texts) const {
  const size_t batch = EmbedBatchSize();
  std::vector<std::vector<float>> out;
  out.reserve(texts.size());
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
    const nn::Variable cls =
        backbone_->EncodeCls(ptrs, /*rng=*/nullptr, /*training=*/false);
    for (size_t k = 0; k < bsz; ++k) {
      const float* row = cls.value().Row(k);
      out.emplace_back(row, row + cls.cols());
    }
  }
  return out;
}

size_t BertFeaturizer::dim() const {
  return static_cast<size_t>(backbone_->config().dim);
}

EmbeddingLinearModel::EmbeddingLinearModel(std::string display_name,
                                           const MiniBertBackbone* backbone,
                                           EmbeddingLinearOptions options)
    : display_name_(std::move(display_name)),
      options_(options),
      featurizer_(backbone) {}

Status EmbeddingLinearModel::Train(const data::Dataset& train) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  const size_t d = featurizer_.dim();
  std::vector<std::vector<float>> features;
  features.reserve(train.size());
  const auto texts = train.Texts();
  // Featurization runs the transformer forward — the dominant cost of this
  // model — so it goes through the backbone a batch at a time and the
  // deadline is checked per chunk.
  const size_t chunk = BertFeaturizer::EmbedBatchSize();
  for (size_t start = 0; start < texts.size(); start += chunk) {
    SEMTAG_RETURN_NOT_OK(CheckCancelled());
    const size_t end = std::min(start + chunk, texts.size());
    auto embedded = featurizer_.EmbedBatch(
        std::span<const std::string>(texts.data() + start, end - start));
    for (auto& v : embedded) features.push_back(std::move(v));
  }
  const auto labels = train.Labels();
  weights_.assign(d, 0.0f);
  bias_ = 0.0f;
  Rng rng(options_.seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), size_t{0});
  nn::InverseTimeDecayLr schedule(options_.learning_rate, 1e-3);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    SEMTAG_RETURN_NOT_OK(CheckCancelled());
    obs::TraceSpan epoch_span("train/EmbLinear/epoch", display_name_.c_str());
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    for (size_t i : order) {
      const double lr = schedule.Next();
      const auto& x = features[i];
      double z = bias_;
      for (size_t j = 0; j < d; ++j) z += weights_[j] * x[j];
      double dz = 0.0;
      if (options_.hinge) {
        const double y = labels[i] == 1 ? 1.0 : -1.0;
        if (y * z < 1.0) dz = -y;
      } else {
        const double p = 1.0 / (1.0 + std::exp(-z));
        dz = p - labels[i];
      }
      if (dz != 0.0) {
        for (size_t j = 0; j < d; ++j) {
          weights_[j] -= static_cast<float>(lr * dz * x[j]);
        }
        bias_ -= static_cast<float>(lr * dz);
      }
      if (options_.l2 > 0.0) {
        const float shrink = static_cast<float>(1.0 - lr * options_.l2);
        for (auto& w : weights_) w *= shrink;
      }
    }
    if (obs::MetricsEnabled()) {
      obs::GetHistogram("train/EmbLinear/epoch_us", obs::LatencyBucketsUs())
          .ObserveAlways(epoch_timer.ElapsedSeconds() * 1e6);
      obs::GetCounter("train/EmbLinear/epochs").Add(1);
    }
  }
  trained_ = true;
  set_train_seconds(timer.ElapsedSeconds());
  return Status::OK();
}

std::vector<double> EmbeddingLinearModel::ScoreBatch(
    std::span<const std::string> texts) const {
  SEMTAG_CHECK(trained_);
  const auto features = featurizer_.EmbedBatch(texts);
  std::vector<double> out(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    const auto& x = features[i];
    double z = bias_;
    for (size_t j = 0; j < x.size(); ++j) z += weights_[j] * x[j];
    out[i] = options_.hinge ? z : 1.0 / (1.0 + std::exp(-z));
  }
  return out;
}

}  // namespace semtag::models
