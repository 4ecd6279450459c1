#ifndef SEMTAG_MODELS_MODEL_H_
#define SEMTAG_MODELS_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "data/dataset.h"

namespace semtag::models {

/// Common interface of all tagging models (simple and deep).
///
/// Usage: construct, Train() once on a training dataset, then Score() /
/// Predict() any number of texts. Training time is recorded and exposed via
/// train_seconds() (the paper's efficiency axis).
class TaggingModel {
 public:
  virtual ~TaggingModel() = default;
  TaggingModel() = default;
  TaggingModel(const TaggingModel&) = delete;
  TaggingModel& operator=(const TaggingModel&) = delete;

 protected:
  // Concrete models may be moved (e.g. returned from Load factories).
  TaggingModel(TaggingModel&&) = default;
  TaggingModel& operator=(TaggingModel&&) = default;

 public:

  /// Short display name, e.g. "LR", "BERT".
  virtual std::string name() const = 0;

  /// True for neural-network models (trained on GPU in the paper).
  virtual bool is_deep() const = 0;

  /// Fits the model. May be called once per instance.
  virtual Status Train(const data::Dataset& train) = 0;

  /// Real-valued decision score; higher means more positive. Probabilistic
  /// models return P(y=1 | text); margin models (SVM) return the signed
  /// distance to the separating hyperplane.
  virtual double Score(std::string_view text) const = 0;

  /// The score value at the model's natural decision boundary (argmax
  /// post-processing in the paper): 0.5 for probabilities, 0 for margins.
  virtual double DecisionThreshold() const { return 0.5; }

  /// 0/1 prediction at the natural boundary.
  int Predict(std::string_view text) const {
    return Score(text) >= DecisionThreshold() ? 1 : 0;
  }

  /// Maps a raw Score() value onto one probability scale, P(y=1):
  ///  - probabilistic families (DecisionThreshold() == 0.5: NB's log-odds
  ///    sigmoid, LR's sigmoid, GBDT, the deep softmax heads) are already
  ///    probabilities and pass through clamped to [0, 1];
  ///  - margin families (any other boundary: SVM's signed hyperplane
  ///    distance, the hinge embedding hybrids, the rule tagger) go through
  ///    a unit-slope Platt-style squash centred on the boundary,
  ///    sigmoid(score - DecisionThreshold()).
  /// Strictly monotone in `score` for every family and preserves the
  /// decision: ProbabilityFromScore(s) >= 0.5 iff s >= DecisionThreshold().
  double ProbabilityFromScore(double score) const;

  /// P(y=1 | text) on the unified scale: ProbabilityFromScore(Score(text)).
  double Probability(std::string_view text) const {
    return ProbabilityFromScore(Score(text));
  }

  /// Confidence margin in [0, 1] from a raw score: |2p - 1| where
  /// p = ProbabilityFromScore(score). 0 at the decision boundary (maximally
  /// uncertain), 1 at certainty — the quantity the confidence-gated
  /// cascade (core/cascade.h) thresholds on. Comparable across model
  /// families because the probability scale is.
  double MarginFromScore(double score) const;

  /// MarginFromScore(Score(text)).
  double Margin(std::string_view text) const {
    return MarginFromScore(Score(text));
  }

  /// Scores a batch of texts. The base implementation loops Score(); deep
  /// models override it to run the batch through their one stacked forward
  /// graph, score_batch_size() texts at a time (their Score() is a batch of
  /// one). Must return exactly texts.size() scores, element i scoring
  /// texts[i].
  virtual std::vector<double> ScoreBatch(
      std::span<const std::string> texts) const;

  /// Scores every text, in parallel on the global pool with deterministic
  /// (thread-count-invariant) results. Virtual so meta-models that route
  /// different examples through different sub-models (core/cascade.h) can
  /// keep the whole-corpus view the batching needs.
  virtual std::vector<double> ScoreAll(
      const std::vector<std::string>& texts) const;
  std::vector<int> PredictAll(const std::vector<std::string>& texts) const;

  /// Wall-clock seconds of the last Train() call.
  double train_seconds() const { return train_seconds_; }

  /// Attaches a cooperative cancellation token that Train() checks between
  /// steps; once it fires, Train() stops and returns DeadlineExceeded /
  /// Cancelled. Must be set before Train(). A null token (the default)
  /// never cancels and costs nothing to probe.
  void set_cancellation(CancellationToken token) {
    cancellation_ = std::move(token);
  }

  /// Divergence recoveries performed by the last Train() call (non-finite
  /// loss/gradient steps that were rolled back and retried; see
  /// nn::TrainGuard). 0 for models without a guarded loop.
  int train_retries() const { return train_retries_; }

 protected:
  /// Preferred ScoreBatch chunk size. 1 (the default) keeps ScoreAll on
  /// its per-text sharding; deep models return their training batch size.
  virtual size_t score_batch_size() const { return 1; }

  /// Score() of a model whose ScoreBatch is its one scoring path: a batch
  /// of one.
  double ScoreAsBatchOfOne(std::string_view text) const;

  void set_train_seconds(double s) { train_seconds_ = s; }
  void set_train_retries(int n) { train_retries_ = n; }
  const CancellationToken& cancellation() const { return cancellation_; }
  /// OK while training may continue; the token's error once it fired.
  Status CheckCancelled() const {
    return cancellation_.cancelled() ? cancellation_.status() : Status::OK();
  }

 private:
  double train_seconds_ = 0.0;
  int train_retries_ = 0;
  CancellationToken cancellation_;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_MODEL_H_
