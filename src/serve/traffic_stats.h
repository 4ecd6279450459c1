#ifndef SEMTAG_SERVE_TRAFFIC_STATS_H_
#define SEMTAG_SERVE_TRAFFIC_STATS_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace semtag::serve {

/// Aggregate of the sealed logical epochs currently in the epoch window:
/// the live counterpart of core::DatasetProfile, consumed by the online
/// re-planner (serve/replanner.h).
struct TrafficProfile {
  uint64_t total = 0;         // requests observed since construction
  uint64_t total_epochs = 0;  // epochs sealed since construction
  uint64_t epochs = 0;        // sealed epochs in the window
  uint64_t count = 0;         // requests across the window epochs
  uint64_t vocab_size = 0;    // distinct token hashes ever observed
  double positive_ratio = 0.0;  // fraction with P(y=1) >= 0.5
  double mean_length = 0.0;     // mean text bytes
  /// Cleanliness proxy (mirrors core/characteristics): fraction of tokens
  /// outside the reference vocabulary the served model was trained over.
  double oov_rate = 0.0;
  /// Fraction of each epoch's distinct tokens never seen in any earlier
  /// epoch (or the seeded reference) — emerging-vocabulary rate.
  double vocab_churn = 0.0;
  /// Mean per-epoch Shannon entropy (bits) of the token hash-bucket
  /// distribution — the shape signal: entity soup flattens it, a drifted
  /// topic mix shifts it.
  double token_entropy = 0.0;
  /// Combined [0,1] dirtiness score: min(1, 2*oov_rate + vocab_churn).
  /// A stream drifting away from the trained vocabulary behaves like the
  /// paper's dirty/open-vocabulary regime (BOOK), whatever its labels.
  double dirtiness = 0.0;
};

/// Streaming dataset profiler over the live request stream: the dataset
/// characteristics the cascade planner keys on — arrival count, positive
/// ratio (on the unified probability scale, so it is comparable across
/// model families), mean text length — plus a cleanliness proxy, so the
/// re-planner (serve/replanner.h) can re-plan the simple/deep pair as
/// traffic drifts away from the distribution the cascade was calibrated
/// on. Exported as obs gauges (serve/traffic/*) by PublishGauges() after
/// every scored batch.
///
/// The window is made of wall-clock-free LOGICAL EPOCHS: Record(text, p)
/// accumulates into the current epoch, which seals every `epoch_records`
/// requests (0 = only on explicit AdvanceEpoch()). Profile() aggregates
/// the last `epoch_window` sealed epochs. Tests advance the window
/// deterministically without sleeping, and the re-planner counts
/// hysteresis dwell in epochs, not seconds.
///
/// The cleanliness proxy hashes tokens (FNV-1a 64) against a reference
/// vocabulary — seeded from the training corpus via
/// SeedReferenceFromTexts(), or lazily adopted from the first sealed
/// epoch — and tracks OOV rate, vocabulary churn, and token entropy per
/// epoch. Hash sets are capped (kVocabCap) so memory stays bounded on
/// open-vocabulary streams.
///
/// Thread-safe (one mutex; in the daemon every caller is on the event
/// loop thread — the batcher's Flush, the replanner's Poll and the kStats
/// handler — so contention is nil). All statistics are pure
/// functions of the record sequence — bit-identical across thread counts.
class TrafficStats {
 public:
  explicit TrafficStats(int epoch_records = 0, size_t epoch_window = 8);

  /// Records one completed request, its text and its unified-scale
  /// probability, into the current epoch.
  void Record(std::string_view text, double probability);

  /// Hashes every token of `texts` into the reference vocabulary and the
  /// seen-set, so OOV and churn measure drift away from the corpus the
  /// served model was trained on (instead of away from the first epoch).
  void SeedReferenceFromTexts(const std::vector<std::string>& texts);

  /// Seals the current epoch into the window. Returns false (and seals
  /// nothing) when the epoch is empty. Record seals on its own every
  /// `epoch_records` requests; this is the explicit advance.
  bool AdvanceEpoch();

  TrafficProfile Profile() const;

  /// Sets the serve/traffic/* gauges from Profile() (no-op while metrics
  /// are disabled).
  void PublishGauges() const;

 private:
  /// One sealed logical epoch.
  struct Epoch {
    uint64_t count = 0;
    uint64_t positives = 0;
    uint64_t bytes = 0;
    uint64_t tokens = 0;
    uint64_t ref_tokens = 0;  // tokens counted while a reference existed
    uint64_t oov_tokens = 0;
    uint64_t distinct = 0;    // distinct token hashes in this epoch
    uint64_t new_tokens = 0;  // distinct hashes never seen before
    double entropy = 0.0;     // hash-bucket Shannon entropy, bits
  };

  bool SealEpochLocked();

  mutable std::mutex mu_;
  uint64_t total_ = 0;

  // Logical-epoch state (all guarded by mu_).
  const int epoch_records_;
  const size_t epoch_window_;
  Epoch current_;
  std::vector<uint32_t> bucket_counts_;        // current epoch, 64 buckets
  std::unordered_set<uint64_t> epoch_hashes_;  // current epoch's distinct
  std::unordered_set<uint64_t> reference_;     // trained vocabulary
  std::unordered_set<uint64_t> seen_;          // cumulative, for churn
  bool reference_ready_ = false;
  std::deque<Epoch> sealed_;
  uint64_t total_epochs_ = 0;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_TRAFFIC_STATS_H_
