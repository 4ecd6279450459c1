#include "models/simple/linear_svm.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::models {

Status LinearSvm::Train(const data::Dataset& train) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  const auto texts = train.Texts();
  vectorizer_ = text::BowVectorizer(options_.bow);
  vectorizer_.Fit(texts);
  la::SparseMatrix x = vectorizer_.TransformAll(texts);
  const auto labels01 = train.Labels();
  const size_t n = x.rows();

  // y in {-1, +1}; the bias is an implicit constant feature of value 1,
  // the standard liblinear trick (so Q_ii includes the +1 term).
  std::vector<float> y(n);
  std::vector<float> qii(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = labels01[i] == 1 ? 1.0f : -1.0f;
    const float norm = x.Row(i).Norm();
    qii[i] = norm * norm + 1.0f;
  }

  weights_.assign(vectorizer_.num_features(), 0.0f);
  bias_ = 0.0f;
  std::vector<double> alpha(n, 0.0);
  Rng rng(options_.seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  const double c = options_.c;

  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    SEMTAG_RETURN_NOT_OK(CheckCancelled());
    obs::TraceSpan epoch_span("train/SVM/epoch");
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    double max_pg = 0.0;
    for (size_t i : order) {
      const la::SparseVector& xi = x.Row(i);
      const double margin = xi.Dot(weights_.data()) + bias_;
      const double g = y[i] * margin - 1.0;  // dual gradient
      // Projected gradient for box constraints [0, C].
      double pg = g;
      if (alpha[i] <= 0.0) pg = std::min(g, 0.0);
      else if (alpha[i] >= c) pg = std::max(g, 0.0);
      max_pg = std::max(max_pg, std::fabs(pg));
      if (std::fabs(pg) < 1e-12) continue;
      const double old = alpha[i];
      alpha[i] = std::min(std::max(old - g / qii[i], 0.0), c);
      const float delta = static_cast<float>((alpha[i] - old) * y[i]);
      if (delta != 0.0f) {
        xi.AxpyInto(delta, weights_.data());
        bias_ += delta;
      }
    }
    if (obs::MetricsEnabled()) {
      // Dual optimality gap stands in for a loss curve: it decays toward
      // the tolerance as the dual converges.
      obs::GetHistogram("train/SVM/max_pg", obs::LossBuckets())
          .ObserveAlways(max_pg);
      obs::GetHistogram("train/SVM/epoch_us", obs::LatencyBucketsUs())
          .ObserveAlways(epoch_timer.ElapsedSeconds() * 1e6);
      obs::GetCounter("train/SVM/epochs").Add(1);
    }
    if (max_pg < options_.tolerance) break;
  }
  trained_ = true;
  set_train_seconds(timer.ElapsedSeconds());
  return Status::OK();
}

double LinearSvm::Score(std::string_view text) const {
  return Decision(text);
}

}  // namespace semtag::models
