#include "models/model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace semtag::models {

namespace {

/// Texts per inference chunk. Scoring one text costs anywhere from a few
/// hash lookups (NB/LR) to a full transformer forward pass (BERT), so the
/// grain is sized for the cheap end; deep models just see more chunks.
constexpr size_t kScoreGrain = 16;

}  // namespace

double TaggingModel::ProbabilityFromScore(double score) const {
  const double boundary = DecisionThreshold();
  if (boundary == 0.5) {
    // Probabilistic family: Score() is already P(y=1).
    return std::clamp(score, 0.0, 1.0);
  }
  // Margin family: unit-slope Platt-style squash centred on the boundary.
  // No fitted slope/offset — the cascade thresholds on *rank*, which any
  // strictly monotone squash preserves.
  return 1.0 / (1.0 + std::exp(-(score - boundary)));
}

double TaggingModel::MarginFromScore(double score) const {
  return std::abs(2.0 * ProbabilityFromScore(score) - 1.0);
}

std::vector<double> TaggingModel::ScoreBatch(
    std::span<const std::string> texts) const {
  std::vector<double> out(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) out[i] = Score(texts[i]);
  return out;
}

double TaggingModel::ScoreAsBatchOfOne(std::string_view text) const {
  const std::string s(text);
  return ScoreBatch(std::span<const std::string>(&s, 1))[0];
}

std::vector<double> TaggingModel::ScoreAll(
    const std::vector<std::string>& texts) const {
  // Score()/ScoreBatch() are const and draw no randomness at inference
  // time (dropout is disabled), so texts score independently on the global
  // pool. Each index writes only its own slot; results match the
  // sequential loop exactly.
  std::vector<double> out(texts.size());
  const size_t batch = score_batch_size();
  if (batch <= 1) {
    ParallelFor(0, texts.size(), kScoreGrain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) out[i] = Score(texts[i]);
    });
    return out;
  }
  // Deep batched path: parallelize over batch *indices* so the batch
  // boundaries are absolute ([bi*batch, (bi+1)*batch)) regardless of how
  // ParallelFor chunks the index range — batch composition, and therefore
  // every floating-point bit, is thread-count-invariant.
  const size_t num_batches = (texts.size() + batch - 1) / batch;
  ParallelFor(0, num_batches, 1, [&](size_t lo, size_t hi) {
    for (size_t bi = lo; bi < hi; ++bi) {
      const size_t begin = bi * batch;
      const size_t end = std::min(begin + batch, texts.size());
      const std::vector<double> scores = ScoreBatch(
          std::span<const std::string>(texts.data() + begin, end - begin));
      SEMTAG_CHECK(scores.size() == end - begin);
      std::copy(scores.begin(), scores.end(), out.begin() + begin);
    }
  });
  return out;
}

std::vector<int> TaggingModel::PredictAll(
    const std::vector<std::string>& texts) const {
  const std::vector<double> scores = ScoreAll(texts);
  const double threshold = DecisionThreshold();
  std::vector<int> out(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    out[i] = scores[i] >= threshold ? 1 : 0;
  }
  return out;
}

}  // namespace semtag::models
