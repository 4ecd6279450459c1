#include "data/sampling.h"

#include <cmath>

#include "common/logging.h"

namespace semtag::data {

namespace {

/// Splits indices by observed label.
void IndicesByLabel(const Dataset& d, std::vector<size_t>* pos,
                    std::vector<size_t>* neg) {
  for (size_t i = 0; i < d.size(); ++i) {
    (d[i].label == 1 ? pos : neg)->push_back(i);
  }
}

/// Picks `k` indices from `pool`; without replacement when possible.
std::vector<size_t> Draw(const std::vector<size_t>& pool, size_t k,
                         Rng* rng) {
  std::vector<size_t> out;
  out.reserve(k);
  if (k <= pool.size()) {
    std::vector<size_t> shuffled = pool;
    rng->Shuffle(&shuffled);
    out.assign(shuffled.begin(), shuffled.begin() + static_cast<long>(k));
  } else {
    SEMTAG_CHECK(!pool.empty());
    for (size_t i = 0; i < k; ++i) {
      out.push_back(pool[rng->Uniform(pool.size())]);
    }
  }
  return out;
}

}  // namespace

Dataset SampleWithRatio(const Dataset& source, size_t n, double r,
                        Rng* rng) {
  SEMTAG_CHECK(r > 0.0 && r < 1.0);
  std::vector<size_t> pos, neg;
  IndicesByLabel(source, &pos, &neg);
  const size_t n_pos = static_cast<size_t>(std::lround(n * r));
  const size_t n_neg = n - n_pos;
  Dataset out(source.name() + "@r" + std::to_string(r));
  out.Reserve(n);
  for (size_t i : Draw(pos, n_pos, rng)) out.Add(source[i]);
  for (size_t i : Draw(neg, n_neg, rng)) out.Add(source[i]);
  out.Shuffle(rng);
  return out;
}

Dataset UndersampleNegatives(const Dataset& source, double target_ratio,
                             Rng* rng) {
  std::vector<size_t> pos, neg;
  IndicesByLabel(source, &pos, &neg);
  if (pos.empty() || source.PositiveRatio() >= target_ratio) return source;
  // r = P / (P + N') -> N' = P * (1 - r) / r.
  const size_t keep_neg = static_cast<size_t>(
      std::lround(pos.size() * (1.0 - target_ratio) / target_ratio));
  Dataset out(source.name() + "*");
  out.Reserve(pos.size() + keep_neg);
  for (size_t i : pos) out.Add(source[i]);
  for (size_t i : Draw(neg, std::min(keep_neg, neg.size()), rng)) {
    out.Add(source[i]);
  }
  out.Shuffle(rng);
  return out;
}

}  // namespace semtag::data
