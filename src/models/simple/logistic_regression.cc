#include "models/simple/logistic_regression.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/kernels.h"
#include "nn/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::models {

Status LogisticRegression::Train(const data::Dataset& train) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  const auto texts = train.Texts();
  vectorizer_ = text::BowVectorizer(options_.bow);
  vectorizer_.Fit(texts);
  la::SparseMatrix x = vectorizer_.TransformAll(texts);
  const auto labels = train.Labels();

  weights_.assign(vectorizer_.num_features(), 0.0f);
  bias_ = 0.0f;
  Rng rng(options_.seed);
  std::vector<size_t> order(x.rows());
  std::iota(order.begin(), order.end(), size_t{0});
  nn::InverseTimeDecayLr schedule(options_.learning_rate,
                                  options_.lr_decay);
  int64_t t = 0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    SEMTAG_RETURN_NOT_OK(CheckCancelled());
    obs::TraceSpan epoch_span("train/LR/epoch");
    // Read once per epoch; the per-sample loss accumulation below runs
    // only while the registry records, so the disabled path is the seed
    // loop plus one local-bool branch.
    const bool obs_on = obs::MetricsEnabled();
    WallTimer epoch_timer;
    double epoch_loss = 0.0;
    rng.Shuffle(&order);
    for (size_t i : order) {
      const double lr = schedule.Next();
      ++t;
      const la::SparseVector& xi = x.Row(i);
      const double z = xi.Dot(weights_.data()) + bias_;
      const double p = 1.0 / (1.0 + std::exp(-z));
      const double err = p - labels[i];  // d(logloss)/dz
      if (obs_on) {
        epoch_loss += labels[i] == 1 ? -std::log(p) : -std::log1p(-p);
      }
      // Lazy-ish L2: apply decay only to touched coordinates is biased;
      // with tiny l2 a global shrink per epoch is a good approximation.
      xi.AxpyInto(static_cast<float>(-lr * err), weights_.data());
      bias_ -= static_cast<float>(lr * err);
    }
    if (obs_on) {
      obs::GetHistogram("train/LR/epoch_loss", obs::LossBuckets())
          .ObserveAlways(epoch_loss / static_cast<double>(order.size()));
      obs::GetHistogram("train/LR/epoch_us", obs::LatencyBucketsUs())
          .ObserveAlways(epoch_timer.ElapsedSeconds() * 1e6);
      obs::GetCounter("train/LR/epochs").Add(1);
    }
    if (options_.l2 > 0.0) {
      const float shrink = static_cast<float>(
          1.0 - options_.l2 * options_.learning_rate *
                    static_cast<double>(x.rows()) /
                    (1.0 + options_.lr_decay * t));
      la::Kernels().scale(weights_.data(), shrink, weights_.size());
    }
  }
  trained_ = true;
  set_train_seconds(timer.ElapsedSeconds());
  return Status::OK();
}

double LogisticRegression::Score(std::string_view text) const {
  return 1.0 / (1.0 + std::exp(-Decision(text)));
}

}  // namespace semtag::models
