#include "models/deep/sequence_classifier.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/train_guard.h"
#include "obs/trace.h"

namespace semtag::models {

namespace {

int EffectiveEpochs(const ClassifierTrainOptions& options, size_t n) {
  const size_t wanted = static_cast<size_t>(options.min_optimizer_steps) *
                        static_cast<size_t>(options.batch_size);
  return std::max<int>(options.epochs, static_cast<int>((wanted + n - 1) / n));
}

}  // namespace

Status TrainSequenceClassifier(
    const ClassifierTrainOptions& options, std::vector<nn::Variable> params,
    const std::vector<std::vector<int32_t>>& encoded,
    const std::vector<int32_t>& labels, Rng* rng,
    const CancellationToken& cancellation, const BatchLogitsFn& logits,
    int* retries) {
  SEMTAG_CHECK(!encoded.empty() && encoded.size() == labels.size());
  nn::Adam optimizer(std::move(params),
                     static_cast<float>(options.learning_rate));
  nn::TrainGuardOptions guard_options;
  guard_options.context = options.context;
  nn::TrainGuard guard(&optimizer, guard_options);
  std::vector<size_t> order(encoded.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const int epochs = EffectiveEpochs(options, encoded.size());
  const size_t batch = static_cast<size_t>(std::max(1, options.batch_size));
  Status status = Status::OK();
  for (int epoch = 0; epoch < epochs && status.ok(); ++epoch) {
    obs::TraceSpan epoch_span(options.epoch_span.c_str(),
                              options.span_tag.c_str());
    rng->Shuffle(&order);
    for (size_t start = 0; start < order.size() && status.ok();
         start += batch) {
      if (cancellation.cancelled()) {
        status = cancellation.status();
        break;
      }
      const size_t end = std::min(start + batch, order.size());
      std::vector<const std::vector<int32_t>*> ptrs;
      std::vector<int32_t> batch_labels;
      ptrs.reserve(end - start);
      batch_labels.reserve(end - start);
      for (size_t k = start; k < end; ++k) {
        ptrs.push_back(&encoded[order[k]]);
        batch_labels.push_back(labels[order[k]]);
      }
      nn::Variable loss = nn::SoftmaxCrossEntropy(
          logits(ptrs, /*training=*/true), batch_labels);
      nn::Backward(loss, static_cast<float>(end - start));
      status = guard.Step(loss.value().At(0, 0));
    }
  }
  *retries = guard.retries();
  return status;
}

std::vector<double> ScoreSequences(std::span<const std::string> texts,
                                   size_t batch, const EncodeFn& encode,
                                   const BatchLogitsFn& logits) {
  batch = std::max<size_t>(1, batch);
  std::vector<double> out(texts.size());
  for (size_t start = 0; start < texts.size(); start += batch) {
    const size_t end = std::min(start + batch, texts.size());
    std::vector<std::vector<int32_t>> encoded;
    encoded.reserve(end - start);
    for (size_t i = start; i < end; ++i) encoded.push_back(encode(texts[i]));
    std::vector<const std::vector<int32_t>*> ptrs;
    ptrs.reserve(encoded.size());
    for (const auto& ids : encoded) ptrs.push_back(&ids);
    const nn::Variable scores = logits(ptrs, /*training=*/false);
    for (size_t k = 0; k < encoded.size(); ++k) {
      const float a = scores.value().At(k, 0);
      const float b = scores.value().At(k, 1);
      // Softmax over two logits = sigmoid of their difference.
      out[start + k] = 1.0 / (1.0 + std::exp(static_cast<double>(a - b)));
    }
  }
  return out;
}

}  // namespace semtag::models
