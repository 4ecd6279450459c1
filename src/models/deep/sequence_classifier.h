#ifndef SEMTAG_MODELS_DEEP_SEQUENCE_CLASSIFIER_H_
#define SEMTAG_MODELS_DEEP_SEQUENCE_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/status.h"
#include "nn/variable.h"

namespace semtag::models {

/// Stacked forward of a deep classifier: B pre-encoded, padded sequences
/// -> [B x 2] logits. Every deep family (CNN, LSTM/GRU, BERT fine-tune)
/// has exactly one such graph; a single text is a batch of one.
using BatchLogitsFn = std::function<nn::Variable(
    const std::vector<const std::vector<int32_t>*>& batch, bool training)>;

/// Text -> padded id sequence (the model's fitted encoder).
using EncodeFn = std::function<std::vector<int32_t>(std::string_view)>;

/// The knobs the shared classifier loop reads from a family's options.
struct ClassifierTrainOptions {
  /// Minimum epochs; scaled up on tiny training sets so the optimizer-step
  /// count stays meaningful: max(epochs, ceil(min_optimizer_steps *
  /// batch_size / train_size)).
  int epochs = 1;
  int min_optimizer_steps = 0;
  int batch_size = 32;
  double learning_rate = 1e-3;
  /// TrainGuard tag, e.g. "CNN@SUGG" (matched by SEMTAG_FAULT specs).
  std::string context;
  /// Trace span opened per epoch, e.g. "train/CNN/epoch", tagged with
  /// `span_tag` (the dataset name).
  std::string epoch_span;
  std::string span_tag;
};

/// Trains a two-class softmax head end to end: per epoch one `rng`
/// shuffle, then batches of batch_size cut from the shuffled order, each
/// one stacked forward through `logits`, a mean softmax cross-entropy
/// backpropagated with seed B (so parameter gradients are the sum of the
/// per-example gradients), and one guarded Adam step over `params`.
/// `logits` draws its dropout masks from the same `rng` it closes over, so
/// the draw order is shuffle, then each batch's masks. Checks
/// `cancellation` before every batch. Sets *retries to the guard's
/// divergence recoveries.
Status TrainSequenceClassifier(
    const ClassifierTrainOptions& options, std::vector<nn::Variable> params,
    const std::vector<std::vector<int32_t>>& encoded,
    const std::vector<int32_t>& labels, Rng* rng,
    const CancellationToken& cancellation, const BatchLogitsFn& logits,
    int* retries);

/// Scores texts in chunks of `batch`: encode each chunk, run one
/// inference forward, and return P(y=1) = softmax(logits)[1] per text.
std::vector<double> ScoreSequences(std::span<const std::string> texts,
                                   size_t batch, const EncodeFn& encode,
                                   const BatchLogitsFn& logits);

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_DEEP_SEQUENCE_CLASSIFIER_H_
