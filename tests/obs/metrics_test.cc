#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/validate.h"

namespace semtag::obs {
namespace {

/// Every test runs against the enabled, zeroed registry and restores the
/// process-level enabled state afterwards (a CI run exporting
/// $SEMTAG_METRICS still gets its atexit flush).
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = MetricsEnabled();
    SetMetricsEnabled(true);
    ResetMetricsForTest();
  }
  void TearDown() override {
    ResetMetricsForTest();
    SetMetricsEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(MetricsTest, CounterAccumulates) {
  Counter& c = GetCounter("test/counter_accumulates");
  c.Add(1);
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  // Same name -> same handle.
  GetCounter("test/counter_accumulates").Add(8);
  EXPECT_EQ(c.Value(), 50u);
}

TEST_F(MetricsTest, DisabledIncrementsAreDropped) {
  Counter& c = GetCounter("test/disabled_counter");
  SetMetricsEnabled(false);
  c.Add(100);
  SEMTAG_OBS_COUNT("test/disabled_counter", 5);
  SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
}

TEST_F(MetricsTest, GaugeSetIsLastWriterAndAddAccumulates) {
  Gauge& g = GetGauge("test/gauge");
  g.Set(2.5);
  g.Set(7.25);
  EXPECT_DOUBLE_EQ(g.Value(), 7.25);
  g.Add(0.5);
  g.Add(0.25);
  EXPECT_DOUBLE_EQ(g.Value(), 8.0);
}

TEST_F(MetricsTest, HistogramBucketBoundariesAreInclusive) {
  // An observation v lands in the first bucket with v <= bounds[i].
  const std::vector<double> bounds = {1.0, 2.0, 5.0};
  Histogram& h = GetHistogram("test/bounds", bounds);
  h.Observe(-3.0);   // below every bound -> bucket 0
  h.Observe(1.0);    // exactly on a bound -> that bucket
  h.Observe(1.0001); // just above -> next bucket
  h.Observe(2.0);    // on the second bound -> bucket 1
  h.Observe(5.0);    // on the last bound -> bucket 2
  h.Observe(5.0001); // above the last bound -> overflow bucket
  const std::vector<uint64_t> counts = h.Counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_DOUBLE_EQ(h.Min(), -3.0);
  // Fixed-point storage: values are exact to 1/kSumScale.
  EXPECT_NEAR(h.Max(), 5.0001, 2.0 / kSumScale);
  EXPECT_NEAR(h.Sum(), -3.0 + 1.0 + 1.0001 + 2.0 + 5.0 + 5.0001,
              12.0 / kSumScale);
}

TEST_F(MetricsTest, EmptyHistogramHasInfiniteExtrema) {
  Histogram& h = GetHistogram("test/empty", LossBuckets());
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_TRUE(std::isinf(h.Min()));
  EXPECT_TRUE(std::isinf(h.Max()));
  EXPECT_GT(h.Min(), 0.0);
  EXPECT_LT(h.Max(), 0.0);
}

/// Distributes the same multiset of observations over `threads` threads
/// and returns the merged snapshot of one histogram + one counter. The
/// registry guarantees the result is identical for any partition.
HistogramSnapshot ObserveAcrossThreads(int threads, uint64_t* counter_total) {
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test/sharded", LossBuckets());
  Counter& c = GetCounter("test/sharded_counter");
  constexpr int kValues = 4096;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&h, &c, t, threads] {
      for (int i = t; i < kValues; i += threads) {
        h.Observe(0.001 * static_cast<double>(i));
        c.Add(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  *counter_total = c.Value();
  const MetricsSnapshot snap = SnapshotMetrics();
  for (const auto& [name, hs] : snap.histograms) {
    if (name == "test/sharded") return hs;
  }
  ADD_FAILURE() << "test/sharded missing from snapshot";
  return HistogramSnapshot();
}

TEST_F(MetricsTest, ShardedMergeIsDeterministicAcrossThreadCounts) {
  uint64_t total1 = 0, total4 = 0, total16 = 0;
  const HistogramSnapshot one = ObserveAcrossThreads(1, &total1);
  const HistogramSnapshot four = ObserveAcrossThreads(4, &total4);
  const HistogramSnapshot sixteen = ObserveAcrossThreads(16, &total16);
  EXPECT_EQ(total1, total4);
  EXPECT_EQ(total1, total16);
  EXPECT_EQ(one.counts, four.counts);
  EXPECT_EQ(one.counts, sixteen.counts);
  // Sums/extrema accumulate in fixed-point integers, so the merged doubles
  // are bit-identical, not merely close.
  EXPECT_EQ(one.sum, four.sum);
  EXPECT_EQ(one.sum, sixteen.sum);
  EXPECT_EQ(one.min, four.min);
  EXPECT_EQ(one.max, sixteen.max);
}

TEST_F(MetricsTest, CollectorRunsAtSnapshot) {
  static bool registered = RegisterCollector(
      +[] { GetGauge("test/collected").Set(123.0); });
  EXPECT_TRUE(registered);
  const MetricsSnapshot snap = SnapshotMetrics();
  bool found = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test/collected") {
      found = true;
      EXPECT_DOUBLE_EQ(value, 123.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, JsonRoundTripsThroughValidator) {
  GetCounter("test/json_counter").Add(7);
  GetGauge("test/json_gauge").Set(1.5);
  Histogram& h = GetHistogram("test/json_hist", LatencyBucketsUs());
  h.Observe(3.0);
  h.Observe(250.0);
  const std::string json = MetricsToJson(SnapshotMetrics());
  const ValidationResult check = ValidateMetricsJson(json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GE(check.counters, 1);
  EXPECT_GE(check.histograms, 1);

  JsonValue root;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &root, &err)) << err;
  const JsonValue* counter = root.Find("counters")->Find("test/json_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 7.0);
  const JsonValue* hist = root.Find("histograms")->Find("test/json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 2.0);
}

TEST_F(MetricsTest, WriteMetricsJsonPublishesAtomically) {
  GetCounter("test/file_counter").Add(3);
  const std::string path =
      ::testing::TempDir() + "/metrics_test_snapshot.json";
  ASSERT_TRUE(WriteMetricsJson(path));
  const ValidationResult check = ValidateMetricsFile(path);
  EXPECT_TRUE(check.ok) << check.error;
  std::remove(path.c_str());
}

TEST_F(MetricsTest, ResetZeroesEverythingButKeepsHandles) {
  Counter& c = GetCounter("test/reset_counter");
  Histogram& h = GetHistogram("test/reset_hist", LossBuckets());
  c.Add(5);
  h.Observe(0.5);
  ResetMetricsForTest();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.TotalCount(), 0u);
  c.Add(2);
  EXPECT_EQ(c.Value(), 2u);
}

TEST_F(MetricsTest, HandleObsFlagParsesBothFlags) {
  const std::string saved_path = MetricsExportPath();
  EXPECT_FALSE(HandleObsFlag("--unrelated"));
  EXPECT_FALSE(HandleObsFlag("--metricsx"));
  EXPECT_TRUE(HandleObsFlag("--metrics=/tmp/m.json"));
  EXPECT_EQ(MetricsExportPath(), "/tmp/m.json");
  EXPECT_TRUE(MetricsEnabled());
  EXPECT_TRUE(HandleObsFlag("--metrics"));
  EXPECT_EQ(MetricsExportPath(), "semtag_metrics.json");
  SetMetricsExportPath(saved_path);
}

TEST(BucketPresetTest, ServeLatencyBucketsResolveSloPercentiles) {
  const std::vector<double>& buckets = ServeLatencyBucketsUs();
  ASSERT_GE(buckets.size(), 24u);
  EXPECT_DOUBLE_EQ(buckets.front(), 10.0);   // 10us floor
  EXPECT_DOUBLE_EQ(buckets.back(), 1e7);     // 10s tail
  // Strictly ascending, and fine-grained across the whole SLO range
  // (10us..1s): adjacent bounds within ~1.6x so a percentile read off the
  // histogram is within ±25% of the true value.
  for (size_t i = 1; i < buckets.size(); ++i) {
    ASSERT_LT(buckets[i - 1], buckets[i]) << "bucket " << i;
    if (buckets[i] <= 1e6) {
      EXPECT_LE(buckets[i] / buckets[i - 1], 1.6)
          << "gap too coarse at bucket " << i;
    }
  }
}

TEST(ParseJsonTest, HostileNestingIsAParseErrorNotAStackOverflow) {
  // 100k unclosed '[' used to recurse once per level and overflow the
  // stack (an ASan crash); the depth cap turns it into a plain error.
  JsonValue root;
  std::string err;
  EXPECT_FALSE(ParseJson(std::string(100000, '['), &root, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  // Objects count toward the same cap as arrays.
  EXPECT_FALSE(ParseJson(std::string(50000, '[') + "{\"k\":" +
                             std::string(50000, '['),
                         &root, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(ParseJsonTest, NestingUpToTheCapParses) {
  JsonValue root;
  std::string err;
  const std::string at_cap = std::string(kMaxJsonDepth, '[') +
                             std::string(kMaxJsonDepth, ']');
  ASSERT_TRUE(ParseJson(at_cap, &root, &err)) << err;
  EXPECT_TRUE(root.is_array());
  const std::string over = std::string(kMaxJsonDepth + 1, '[') +
                           std::string(kMaxJsonDepth + 1, ']');
  EXPECT_FALSE(ParseJson(over, &root, &err));
}

}  // namespace
}  // namespace semtag::obs
