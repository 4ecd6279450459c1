#ifndef SEMTAG_COMMON_RNG_H_
#define SEMTAG_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace semtag {

/// Deterministic pseudo-random number generator used everywhere in the
/// library so that experiments are reproducible under a fixed seed.
///
/// The engine is xoshiro256** seeded through splitmix64, which gives good
/// statistical quality, a tiny state, and identical streams on every
/// platform (unlike std::mt19937 distributions, whose outputs are not
/// specified bit-for-bit across standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal (Box-Muller).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Uniform(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Precomputed Zipf CDF for fast repeated sampling of token ranks.
class ZipfTable {
 public:
  /// Builds the CDF for ranks [0, n) with exponent s.
  ZipfTable(uint64_t n, double s);

  /// Samples a rank in [0, n).
  uint64_t Sample(Rng* rng) const;

  uint64_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace semtag

#endif  // SEMTAG_COMMON_RNG_H_
