#include "eval/metrics.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/logging.h"

namespace semtag::eval {

double Confusion::Precision() const {
  const int64_t denom = tp + fp;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / denom;
}

double Confusion::Recall() const {
  const int64_t denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / denom;
}

double Confusion::F1() const {
  const double p = Precision();
  const double r = Recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double Confusion::Accuracy() const {
  const int64_t total = tp + fp + tn + fn;
  return total == 0 ? 0.0 : static_cast<double>(tp + tn) / total;
}

Confusion ComputeConfusion(const std::vector<int>& labels,
                           const std::vector<int>& predictions) {
  SEMTAG_CHECK(labels.size() == predictions.size());
  Confusion c;
  for (size_t i = 0; i < labels.size(); ++i) {
    const bool actual = labels[i] == 1;
    const bool predicted = predictions[i] == 1;
    if (actual && predicted) ++c.tp;
    else if (!actual && predicted) ++c.fp;
    else if (actual && !predicted) ++c.fn;
    else ++c.tn;
  }
  return c;
}

double F1Score(const std::vector<int>& labels,
               const std::vector<int>& predictions) {
  return ComputeConfusion(labels, predictions).F1();
}

double Auc(const std::vector<int>& labels,
           const std::vector<double>& scores) {
  SEMTAG_CHECK(labels.size() == scores.size());
  const size_t n = labels.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] < scores[b];
  });
  // Assign average ranks for ties (1-based).
  std::vector<double> rank(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) +
                             static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) rank[order[k]] = avg_rank;
    i = j + 1;
  }
  double rank_sum_pos = 0.0;
  int64_t n_pos = 0;
  for (size_t k = 0; k < n; ++k) {
    if (labels[k] == 1) {
      rank_sum_pos += rank[k];
      ++n_pos;
    }
  }
  const int64_t n_neg = static_cast<int64_t>(n) - n_pos;
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u = rank_sum_pos -
                   static_cast<double>(n_pos) * (n_pos + 1) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

std::vector<int> ThresholdScores(const std::vector<double>& scores,
                                 double threshold) {
  std::vector<int> out(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    out[i] = scores[i] >= threshold ? 1 : 0;
  }
  return out;
}

double MacroAverage(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double MicroAverage(const std::vector<double>& values,
                    const std::vector<int64_t>& weights) {
  SEMTAG_CHECK(values.size() == weights.size());
  double total_weight = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    weighted += values[i] * static_cast<double>(weights[i]);
    total_weight += static_cast<double>(weights[i]);
  }
  return total_weight == 0.0 ? 0.0 : weighted / total_weight;
}

}  // namespace semtag::eval
