#ifndef SEMTAG_OBS_METRICS_H_
#define SEMTAG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace semtag::obs {

/// Process-wide metrics registry: named counters, gauges, and fixed-bucket
/// histograms shared by every layer of the library.
///
/// Design constraints (see DESIGN.md "Observability"):
///  - Disabled (the default) every instrumentation site costs exactly one
///    relaxed atomic load and a predictable branch; no clock reads, no
///    allocation, no stores. The bit-identical hot paths of the kernel /
///    batching layers are untouched.
///  - Enabled, increments are lock-free: each metric is sharded into
///    kMetricShards cache-line-separated atomic slots indexed by a
///    per-thread id, so concurrent writers never contend on one line.
///  - Snapshots merge shards deterministically. All accumulation is
///    integral (histogram sums are fixed-point, kSumScale units per 1.0),
///    so the merged snapshot is identical whatever the thread count or
///    interleaving that produced it.
///
/// The registry lives below common/ and depends only on the standard
/// library; everything above (common, la, nn, models, core) may link it.

inline constexpr int kMetricShards = 16;

/// Fixed-point scale used for histogram sums and sharded gauge adds:
/// values are accumulated as llround(v * kSumScale) so parallel merges
/// stay exact and deterministic.
inline constexpr double kSumScale = 1048576.0;  // 2^20

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
/// Shard slot of the calling thread (stable per thread).
int ShardIndex();
/// std-only atomic file publish (temp + rename); shared with trace export.
bool WriteFileAtomicStd(const std::string& path, const std::string& content);
struct alignas(64) ShardU64 {
  std::atomic<uint64_t> v{0};
};
struct alignas(64) ShardI64 {
  std::atomic<int64_t> v{0};
};
}  // namespace internal

/// True when the registry is recording. A single relaxed atomic load:
/// instrumentation sites branch on this and do nothing else when off.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off at runtime (benches' --metrics flag, tests).
/// Initialized to "on" at process start when $SEMTAG_METRICS is set.
void SetMetricsEnabled(bool on);

/// Where the atexit flush writes the JSON snapshot; empty disables the
/// flush. Initialized from $SEMTAG_METRICS.
void SetMetricsExportPath(std::string path);
std::string MetricsExportPath();

/// Monotonic counter. Handles returned by GetCounter are valid for the
/// process lifetime.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    shards_[internal::ShardIndex()].v.fetch_add(n,
                                                std::memory_order_relaxed);
  }
  /// Merged value (deterministic: integral sum over shards).
  uint64_t Value() const;

 private:
  friend class RegistryAccess;
  Counter() = default;
  internal::ShardU64 shards_[kMetricShards];
};

/// Last-writer-wins instantaneous value, with a deterministic sharded
/// Add() for accumulating gauges.
class Gauge {
 public:
  void Set(double v);
  void Add(double v) {
    if (!MetricsEnabled()) return;
    shards_[internal::ShardIndex()].v.fetch_add(
        static_cast<int64_t>(v * kSumScale), std::memory_order_relaxed);
  }
  /// set-value + merged shard adds.
  double Value() const;

 private:
  friend class RegistryAccess;
  Gauge() = default;
  std::atomic<int64_t> set_bits_{0};  // double bits; 0 = never Set
  std::atomic<bool> was_set_{false};
  internal::ShardI64 shards_[kMetricShards];
};

/// Fixed-boundary histogram. An observation v lands in the first bucket i
/// with v <= bounds[i]; values above the last bound land in the overflow
/// bucket (so counts has bounds.size() + 1 entries). Sum is accumulated in
/// kSumScale fixed-point units, min/max via CAS — all integral, so merged
/// snapshots are deterministic under any thread interleaving.
class Histogram {
 public:
  void Observe(double v) {
    if (!MetricsEnabled()) return;
    ObserveAlways(v);
  }
  void ObserveAlways(double v);

  uint64_t TotalCount() const;
  /// Merged per-bucket counts (bounds().size() + 1 entries).
  std::vector<uint64_t> Counts() const;
  const std::vector<double>& bounds() const { return bounds_; }
  double Sum() const;
  double Min() const;  // +inf when empty
  double Max() const;  // -inf when empty

 private:
  friend class RegistryAccess;
  explicit Histogram(std::vector<double> bounds);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{0};
    std::atomic<int64_t> max{0};
    std::atomic<bool> any{false};
  };
  std::vector<double> bounds_;
  Shard shards_[kMetricShards];
};

/// Looks up (or creates) a metric by name. Creation takes the registry
/// mutex; the returned reference is stable forever, so hot sites cache it
/// in a function-local static behind the MetricsEnabled() branch.
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
/// First registration fixes the bounds; later calls ignore `bounds`.
Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds);

/// Shared bucket presets.
const std::vector<double>& LatencyBucketsUs();   // 1us .. 60s, log-spaced
const std::vector<double>& LatencyBucketsMs();   // 0.1ms .. 600s
const std::vector<double>& LossBuckets();        // 1e-4 .. 100
const std::vector<double>& DepthBuckets();       // queue depths 0 .. 4096
/// Serving-latency preset: ~1.5x geometric steps from 10us to 1s plus a
/// 10s tail. The epoch/cell-scale presets above step 2-2.5x per bucket, so
/// an online daemon's 100us..10ms request latencies collapse into one or
/// two buckets and p50/p99 read off the histogram are meaningless; this
/// grid resolves percentiles to ~±25% across the whole SLO range.
const std::vector<double>& ServeLatencyBucketsUs();  // 10us .. 10s, fine
/// [0,1]-valued scores (dirtiness, OOV rate, escalation fraction): fine
/// near 0 where clean traffic lives, 0.05 steps through the decision range.
const std::vector<double>& UnitFractionBuckets();

/// Snapshot collectors: callbacks run at the start of every snapshot so
/// subsystems with their own counters (e.g. la::BufferPool) can publish
/// them as gauges. Returns true (registration result usable in a static
/// initializer).
bool RegisterCollector(void (*fn)());

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Deterministic merged view of the whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Runs collectors, merges every shard, returns the sorted snapshot.
MetricsSnapshot SnapshotMetrics();

/// "semtag-metrics-v1" JSON for a snapshot.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Snapshot + atomic write (temp file + rename). False on IO failure.
bool WriteMetricsJson(const std::string& path);

/// Zeroes every registered metric (handles stay valid). Tests only.
void ResetMetricsForTest();

/// Command-line twin of SEMTAG_METRICS / SEMTAG_TRACE, for a binary's
/// --metrics / --trace flags: a non-empty path arms that layer and sets
/// the file it exports to at exit; an empty one leaves the layer as the
/// environment set it.
void ArmExports(const std::string& metrics_path,
                const std::string& trace_path);

}  // namespace semtag::obs

/// Hot-site helpers: one relaxed-load branch when disabled; the handle
/// lookup (mutex + map) runs once, on the first *enabled* pass.
#define SEMTAG_OBS_COUNT(name, n)                               \
  do {                                                          \
    if (::semtag::obs::MetricsEnabled()) {                      \
      static ::semtag::obs::Counter& semtag_obs_counter_ =      \
          ::semtag::obs::GetCounter(name);                      \
      semtag_obs_counter_.Add(n);                               \
    }                                                           \
  } while (false)

#define SEMTAG_OBS_OBSERVE(name, bounds, value)                 \
  do {                                                          \
    if (::semtag::obs::MetricsEnabled()) {                      \
      static ::semtag::obs::Histogram& semtag_obs_hist_ =       \
          ::semtag::obs::GetHistogram(name, bounds);            \
      semtag_obs_hist_.ObserveAlways(value);                    \
    }                                                           \
  } while (false)

#define SEMTAG_OBS_GAUGE_SET(name, value)                       \
  do {                                                          \
    if (::semtag::obs::MetricsEnabled()) {                      \
      ::semtag::obs::GetGauge(name).Set(value);                 \
    }                                                           \
  } while (false)

#endif  // SEMTAG_OBS_METRICS_H_
