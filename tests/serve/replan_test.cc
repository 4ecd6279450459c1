// Online re-planning loop (serve/replanner.h) and its deterministic drift
// harness: logical-epoch TrafficStats rotation, the streaming cleanliness
// proxy, the seeded drift-scenario generator (data/drift.h), detector
// firing exactly at a scripted boundary, hysteresis suppressing
// oscillating profiles, mid-stream hot-swaps that never split a batch,
// and the whole loop bit-identical across 1/4/16 threads and under the
// SEMTAG_QUANT / SEMTAG_DEEP_BATCH lanes.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/thread_pool.h"
#include "core/cascade.h"
#include "data/dataset.h"
#include "data/drift.h"
#include "data/specs.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/replanner.h"
#include "serve/server.h"
#include "serve/traffic_stats.h"

namespace semtag::serve {
namespace {

/// Restores (or clears) one environment variable on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

// ---------------------------------------------------------------------------
// TrafficStats logical epochs + cleanliness proxy
// ---------------------------------------------------------------------------

TEST(TrafficEpochTest, ExplicitRotationIsWallClockFree) {
  TrafficStats stats(/*window=*/64, /*epoch_records=*/0, /*epoch_window=*/4);
  EXPECT_FALSE(stats.AdvanceEpoch()) << "empty epoch must not seal";

  stats.Record(std::string_view("alpha beta gamma"), 0.9);
  stats.Record(std::string_view("delta epsilon"), 0.1);
  EXPECT_EQ(stats.Profile().total_epochs, 0u) << "no auto-seal at records=0";
  EXPECT_TRUE(stats.AdvanceEpoch());
  EXPECT_FALSE(stats.AdvanceEpoch()) << "double-advance must be a no-op";

  const TrafficProfile profile = stats.Profile();
  EXPECT_EQ(profile.total_epochs, 1u);
  EXPECT_EQ(profile.epochs, 1u);
  EXPECT_EQ(profile.count, 2u);
  EXPECT_DOUBLE_EQ(profile.positive_ratio, 0.5);
}

TEST(TrafficEpochTest, CountBasedAutoSealRotatesWindow) {
  TrafficStats stats(/*window=*/64, /*epoch_records=*/2, /*epoch_window=*/2);
  for (int i = 0; i < 10; ++i) {
    stats.Record(std::string_view("one two three"), 0.5);
  }
  const TrafficProfile profile = stats.Profile();
  EXPECT_EQ(profile.total_epochs, 5u);
  EXPECT_EQ(profile.epochs, 2u) << "window keeps only the last 2 epochs";
  EXPECT_EQ(profile.count, 4u);
  // Legacy snapshot is untouched by epoch rotation.
  EXPECT_EQ(stats.Snapshot().total, 10u);
}

TEST(TrafficEpochTest, CleanlinessProxySeparatesCleanFromDriftedTraffic) {
  const data::DriftScenario scenario = data::CleanToDirtyScenario(
      /*records_per_segment=*/160, /*seed=*/11);
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(scenario);
  ASSERT_EQ(stream.size(), 320u);

  // Reference = the clean segment's own vocabulary (stands in for the
  // served model's training corpus).
  std::vector<std::string> reference;
  for (int i = 0; i < 160; ++i) reference.push_back(stream[i].text);

  TrafficStats stats(/*window=*/64, /*epoch_records=*/0, /*epoch_window=*/1);
  stats.SeedReferenceFromTexts(reference);

  for (int i = 0; i < 160; ++i) {
    stats.Record(std::string_view(stream[i].text), 0.5);
  }
  ASSERT_TRUE(stats.AdvanceEpoch());
  const TrafficProfile clean = stats.Profile();

  for (int i = 160; i < 320; ++i) {
    stats.Record(std::string_view(stream[i].text), 0.5);
  }
  ASSERT_TRUE(stats.AdvanceEpoch());
  const TrafficProfile dirty = stats.Profile();

  // The clean phase re-draws the training distribution: near-zero OOV.
  // The drifted phase (entity soup + rotated topics) must be clearly
  // separated — this 4x gap is what the detector thresholds ride on.
  EXPECT_LT(clean.dirtiness, 0.15) << "clean=" << clean.dirtiness;
  EXPECT_GT(dirty.dirtiness, 0.30) << "dirty=" << dirty.dirtiness;
  EXPECT_GT(dirty.dirtiness, 4.0 * std::max(clean.dirtiness, 0.01));
  EXPECT_GT(dirty.oov_rate, clean.oov_rate);
  EXPECT_GT(dirty.vocab_churn, clean.vocab_churn);
}

TEST(TrafficEpochTest, ProfileIsBitIdenticalForTheSameRecordSequence) {
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(data::CleanToDirtyScenario(64, 3));
  const auto run = [&stream] {
    TrafficStats stats(/*window=*/32, /*epoch_records=*/16,
                       /*epoch_window=*/4);
    for (const auto& record : stream) {
      stats.Record(std::string_view(record.text),
                   record.label == 1 ? 0.9 : 0.1);
    }
    return stats.Profile();
  };
  const TrafficProfile a = run();
  const TrafficProfile b = run();
  EXPECT_EQ(a.total_epochs, b.total_epochs);
  EXPECT_EQ(a.vocab_size, b.vocab_size);
  // Exact double equality: the proxy must be a pure function of the
  // record sequence.
  EXPECT_EQ(a.oov_rate, b.oov_rate);
  EXPECT_EQ(a.vocab_churn, b.vocab_churn);
  EXPECT_EQ(a.token_entropy, b.token_entropy);
  EXPECT_EQ(a.dirtiness, b.dirtiness);
}

// ---------------------------------------------------------------------------
// Drift-scenario generator
// ---------------------------------------------------------------------------

TEST(DriftStreamTest, StreamIsDeterministicAcrossCalls) {
  const data::DriftScenario scenario = data::CleanToDirtyScenario(48, 9);
  const auto a = data::GenerateDriftStream(scenario);
  const auto b = data::GenerateDriftStream(scenario);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text) << "record " << i;
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].segment, b[i].segment);
  }
}

TEST(DriftStreamTest, SegmentsDrawIndependentStreams) {
  // Editing a later segment must not perturb an earlier one's bytes.
  data::DriftScenario base = data::CleanToDirtyScenario(32, 5);
  data::DriftScenario edited = base;
  edited.segments[1].entity_rate = 0.9;
  edited.segments[1].vocab_shift = 7;
  const auto a = data::GenerateDriftStream(base);
  const auto b = data::GenerateDriftStream(edited);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(a[i].text, b[i].text) << "clean segment changed at " << i;
  }
  // And the edit did change the dirty segment.
  bool any_diff = false;
  for (size_t i = 32; i < a.size(); ++i) any_diff |= a[i].text != b[i].text;
  EXPECT_TRUE(any_diff);
}

TEST(DriftStreamTest, SegmentsHonorScheduleOrderAndRatio) {
  data::DriftScenario scenario;
  scenario.base_dataset = "HETER";
  scenario.seed = 21;
  data::DriftSegment a;
  a.label = "a";
  a.records = 40;
  a.positive_ratio = 0.5;
  data::DriftSegment b = a;
  b.label = "b";
  b.records = 20;
  b.positive_ratio = 0.25;
  scenario.segments = {a, b};
  const auto stream = data::GenerateDriftStream(scenario);
  ASSERT_EQ(stream.size(), 60u);
  int positives_a = 0, positives_b = 0;
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(stream[i].segment, 0);
    positives_a += stream[i].label;
  }
  for (int i = 40; i < 60; ++i) {
    EXPECT_EQ(stream[i].segment, 1);
    positives_b += stream[i].label;
  }
  EXPECT_EQ(positives_a, 20);  // max(1, lround(40*0.5))
  EXPECT_EQ(positives_b, 5);   // max(1, lround(20*0.25))
}

// ---------------------------------------------------------------------------
// Detector: dry-run replanner over scripted profiles
// ---------------------------------------------------------------------------

/// A profile with everything the detector reads: dirtiness plus the live
/// fallbacks (total/ratio are pinned in these tests, so only dirtiness
/// drives the decision).
TrafficProfile ScriptedProfile(double dirtiness, uint64_t epoch) {
  TrafficProfile profile;
  profile.total = 1000 * (epoch + 1);
  profile.total_epochs = epoch + 1;
  profile.epochs = 1;
  profile.count = 1000;
  profile.positive_ratio = 0.5;
  profile.dirtiness = dirtiness;
  profile.oov_rate = dirtiness / 2.0;
  return profile;
}

/// Detector options pinned to the FUNNY-scale heat-map cell
/// (4.75M records, ratio 0.3) where clean wants the SVM+CNN cascade and
/// dirty wants simple-only — the scripted boundary all detector tests
/// cross.
ReplanOptions DetectorOptions() {
  ReplanOptions options;
  options.enabled = true;
  options.dwell_epochs = 3;
  options.margin_pts = 0.25;
  options.dirty_threshold = 0.25;
  options.dirty_band = 0.10;
  options.profile_records = 4750000;
  options.profile_ratio = 0.3;
  options.cascade.simple = models::ModelKind::kSvm;
  options.cascade.deep = models::ModelKind::kCnn;
  options.cascade.budget_pts = 1.0;
  return options;
}

core::CascadePlan CascadeIncumbent() {
  core::CascadePlan plan;
  plan.simple = models::ModelKind::kSvm;
  plan.deep = models::ModelKind::kCnn;
  plan.simple_only = false;
  return plan;
}

TEST(ReplanDetectorTest, PlannerCrossesCellOnCleanliness) {
  // Pin the planner geometry the detector tests ride on: at the FUNNY
  // cell, clean keeps the cascade and dirty degenerates to simple-only.
  const ReplanOptions options = DetectorOptions();
  core::DatasetProfile dp;
  dp.num_records = options.profile_records;
  dp.positive_ratio = options.profile_ratio;
  dp.labels_clean = true;
  const auto clean_plan =
      core::PlanCascade(dp, core::PaperHeatMap(), options.cascade);
  EXPECT_FALSE(clean_plan.simple_only)
      << clean_plan.rationale << " (svm " << clean_plan.expected_simple_f1
      << " bert " << clean_plan.expected_deep_f1 << ")";
  EXPECT_EQ(core::CascadePairName(clean_plan), "SVM+CNN");

  dp.labels_clean = false;
  const auto dirty_plan =
      core::PlanCascade(dp, core::PaperHeatMap(), options.cascade);
  EXPECT_TRUE(dirty_plan.simple_only)
      << dirty_plan.rationale << " (svm " << dirty_plan.expected_simple_f1
      << " bert " << dirty_plan.expected_deep_f1 << ")";
  EXPECT_EQ(core::CascadePairName(dirty_plan), "simple");
}

TEST(ReplanDetectorTest, FiresExactlyAtTheScriptedBoundary) {
  Replanner replanner(/*registry=*/nullptr, /*stats=*/nullptr,
                      DetectorOptions());
  replanner.SetIncumbent(CascadeIncumbent());

  uint64_t epoch = 0;
  // Five clean epochs: no candidate, no swap.
  for (int i = 0; i < 5; ++i) {
    replanner.Step(ScriptedProfile(0.05, epoch++));
    const ReplanState state = replanner.state();
    EXPECT_EQ(state.swaps, 0u) << "clean epoch " << i;
    EXPECT_EQ(state.dwell, 0);
    EXPECT_FALSE(state.dirty);
  }
  // The scripted boundary: traffic turns dirty. The swap must land on
  // exactly the dwell_epochs-th consecutive dirty epoch — not before,
  // not after.
  for (int i = 1; i <= 3; ++i) {
    replanner.Step(ScriptedProfile(0.60, epoch++));
    const ReplanState state = replanner.state();
    EXPECT_TRUE(state.dirty);
    if (i < 3) {
      EXPECT_EQ(state.swaps, 0u) << "dirty epoch " << i << " (dwell "
                                 << state.dwell << ")";
      EXPECT_EQ(state.dwell, i);
      EXPECT_EQ(state.candidate, "simple");
    } else {
      EXPECT_EQ(state.swaps, 1u) << "swap must fire at dwell epoch 3";
      EXPECT_EQ(state.incumbent, "simple");
    }
  }
  // Stable dirty regime afterwards: the new incumbent holds, zero flaps.
  for (int i = 0; i < 10; ++i) {
    replanner.Step(ScriptedProfile(0.60, epoch++));
  }
  const ReplanState state = replanner.state();
  EXPECT_EQ(state.swaps, 1u);
  EXPECT_EQ(state.incumbent, "simple");
  EXPECT_EQ(state.epochs, 18u);
}

TEST(ReplanDetectorTest, HysteresisSuppressesAnOscillatingProfile) {
  // A profile flapping clean/dirty every epoch: with dwell=3 the
  // candidate never accumulates, so the pair NEVER swaps.
  Replanner replanner(nullptr, nullptr, DetectorOptions());
  replanner.SetIncumbent(CascadeIncumbent());
  uint64_t epoch = 0;
  for (int i = 0; i < 40; ++i) {
    replanner.Step(ScriptedProfile(i % 2 == 0 ? 0.60 : 0.05, epoch++));
  }
  const ReplanState state = replanner.state();
  EXPECT_EQ(state.swaps, 0u) << "oscillation must be suppressed";
  EXPECT_LE(state.dwell, 1);

  // Control: dwell=1 (no hysteresis) flaps on the same schedule.
  ReplanOptions no_dwell = DetectorOptions();
  no_dwell.dwell_epochs = 1;
  Replanner flappy(nullptr, nullptr, no_dwell);
  flappy.SetIncumbent(CascadeIncumbent());
  epoch = 0;
  for (int i = 0; i < 40; ++i) {
    flappy.Step(ScriptedProfile(i % 2 == 0 ? 0.60 : 0.05, epoch++));
  }
  EXPECT_GE(flappy.state().swaps, 2u)
      << "without dwell the same schedule must flap — otherwise the "
         "suppression assertion above is vacuous";
}

TEST(ReplanDetectorTest, DirtyBandHoldsStateInsideTheDeadZone) {
  // Dirtiness hovering INSIDE the band (threshold 0.25 +/- 0.10) must
  // never flip the cleanliness state in either direction.
  Replanner replanner(nullptr, nullptr, DetectorOptions());
  replanner.SetIncumbent(CascadeIncumbent());
  uint64_t epoch = 0;
  for (int i = 0; i < 12; ++i) {
    replanner.Step(ScriptedProfile(i % 2 == 0 ? 0.30 : 0.20, epoch++));
    EXPECT_FALSE(replanner.state().dirty) << "epoch " << i;
  }
  EXPECT_EQ(replanner.state().swaps, 0u);

  // Once dirty, the same hovering holds dirty.
  for (int i = 0; i < 3; ++i) {
    replanner.Step(ScriptedProfile(0.60, epoch++));
  }
  ASSERT_TRUE(replanner.state().dirty);
  for (int i = 0; i < 12; ++i) {
    replanner.Step(ScriptedProfile(i % 2 == 0 ? 0.30 : 0.20, epoch++));
    EXPECT_TRUE(replanner.state().dirty) << "epoch " << i;
  }
}

TEST(ReplanDetectorTest, MarginBiasHoldsIncumbentAtTheCellEdge) {
  // The YELP-scale cell (560K, 0.5, clean) sits just past the simple-only
  // edge: the unbiased planner degenerates, but an incumbent cascade with
  // a wide margin holds on — the margin half of the hysteresis.
  core::DatasetProfile dp;
  dp.num_records = 560000;
  dp.positive_ratio = 0.5;
  dp.labels_clean = true;
  core::CascadeOptions cascade;
  cascade.simple = models::ModelKind::kSvm;
  cascade.deep = models::ModelKind::kCnn;
  const auto unbiased =
      core::PlanCascade(dp, core::PaperHeatMap(), cascade);
  ASSERT_TRUE(unbiased.simple_only)
      << "cell moved: " << unbiased.rationale;

  ReplanOptions options = DetectorOptions();
  options.profile_records = 560000;
  options.profile_ratio = 0.5;
  options.cascade = cascade;
  options.margin_pts = 2.0;  // wider than the cell's ~0.5-pt edge
  Replanner held(nullptr, nullptr, options);
  held.SetIncumbent(CascadeIncumbent());
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    held.Step(ScriptedProfile(0.05, epoch));
  }
  EXPECT_EQ(held.state().swaps, 0u) << "margin must hold the incumbent";
  EXPECT_EQ(held.state().incumbent, "SVM+CNN");

  // Zero margin on the same schedule swaps to simple-only: the margin is
  // what did the holding.
  options.margin_pts = 0.0;
  Replanner swapped(nullptr, nullptr, options);
  swapped.SetIncumbent(CascadeIncumbent());
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    swapped.Step(ScriptedProfile(0.05, epoch));
  }
  EXPECT_EQ(swapped.state().swaps, 1u);
  EXPECT_EQ(swapped.state().incumbent, "simple");
}

// ---------------------------------------------------------------------------
// Closed loop: drift stream -> batcher -> detector -> hot-swap
// ---------------------------------------------------------------------------

struct CollectedScores {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ScoredRequest> results;

  ScoreCallback Collector() {
    return [this](const ScoredRequest& r) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(r);
      cv.notify_all();
    };
  }
  bool WaitForCount(size_t n, int timeout_ms = 120000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return results.size() >= n; });
  }
};

constexpr int kWave = 32;          // records per wave == batch cap
constexpr int kSegmentWaves = 4;   // waves per drift segment
constexpr int kRunRecords = 2 * kSegmentWaves * kWave;

ModelSpec RunSpec(const std::string& cascade) {
  ModelSpec spec;
  spec.model = "CASCADE";
  spec.dataset = "HETER";
  spec.records = 140;
  spec.seed = 1;
  spec.cascade = cascade;
  spec.budget_pts = 1.0;
  return spec;
}

std::vector<std::string> TrainingTexts() {
  data::DatasetSpec spec = data::FindSpec("HETER").ValueOrDie();
  spec.scaled_records = 140;
  data::Dataset dataset = data::BuildDataset(spec);
  auto [train, test] = dataset.Split(spec.train_fraction);
  return train.Texts();
}

struct DriftRunResult {
  std::vector<uint64_t> versions;  // per request, submission order
  std::vector<double> scores;      // per request, submission order
  std::vector<int> wave_of;        // wave index per request
  uint64_t swaps = 0;
  uint64_t failures = 0;
  std::string final_pair;
};

/// Runs the canonical clean->dirty schedule through a real batcher +
/// synchronous replanner at `threads` pool threads, one 32-record wave at
/// a time. Each wave seals exactly one epoch: the batcher may score a
/// wave as several batches, but epochs seal by request count and the
/// replanner only steps on a sealed epoch, so a swap lands between waves.
DriftRunResult RunDriftLoop(int threads) {
  SetGlobalPoolThreads(threads);
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(data::CleanToDirtyScenario(
          /*records_per_segment=*/kSegmentWaves * kWave, /*seed=*/7));
  EXPECT_EQ(stream.size(), static_cast<size_t>(kRunRecords));

  ModelRegistry registry;
  auto model = BuildModelFromSpec(RunSpec("SVM+CNN"));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  registry.Install(std::move(model).ValueOrDie(), "initial");

  TrafficStats stats(/*window=*/256, /*epoch_records=*/kWave,
                     /*epoch_window=*/2);
  stats.SeedReferenceFromTexts(TrainingTexts());

  ReplanOptions options;
  options.enabled = true;
  options.synchronous = true;  // swap inside the batcher's Poll
  options.dwell_epochs = 2;
  options.margin_pts = 0.25;
  // Measured on this exact geometry (32-record epochs, window 2, the
  // HETER@140 training reference): clean waves sit at 0.22-0.33
  // dirtiness (small epochs churn against a small corpus), dirty waves
  // at 0.95-1.0. Flip dirty above 0.70, back clean below 0.40.
  options.dirty_threshold = 0.55;
  options.dirty_band = 0.15;
  options.profile_records = 4750000;
  options.profile_ratio = 0.3;
  options.cascade.simple = models::ModelKind::kSvm;
  options.cascade.deep = models::ModelKind::kCnn;
  options.cascade.budget_pts = 1.0;
  options.cascade.seed = 1;
  options.dataset = "HETER";
  options.records = 140;
  options.spec_dir = testing::TempDir();
  Replanner replanner(&registry, &stats, options);
  replanner.AdoptIncumbentFromRegistry();
  EXPECT_EQ(replanner.state().incumbent, "SVM+CNN");

  BatchingOptions batching;
  batching.batch_cap = kWave;
  Batcher batcher(&registry, &stats, batching, &replanner);
  batcher.Start();

  DriftRunResult result;
  CollectedScores collected;
  for (int wave = 0; wave * kWave < kRunRecords; ++wave) {
    for (int i = 0; i < kWave; ++i) {
      EXPECT_TRUE(batcher.Submit(stream[wave * kWave + i].text,
                                 collected.Collector()));
    }
    EXPECT_TRUE(collected.WaitForCount((wave + 1) * kWave))
        << "wave " << wave << " did not complete";
    for (int i = 0; i < kWave; ++i) result.wave_of.push_back(wave);
  }
  batcher.Stop();
  replanner.WaitIdle();

  for (const ScoredRequest& r : collected.results) {
    result.versions.push_back(r.model_version);
    result.scores.push_back(r.score);
  }
  const ReplanState state = replanner.state();
  result.swaps = state.swaps;
  result.failures = state.failures;
  result.final_pair = state.incumbent;
  return result;
}

TEST(ReplanLoopTest, MidStreamSwapNeverSplitsABatchAndEndsOnPlannedPair) {
  const DriftRunResult run = RunDriftLoop(/*threads=*/4);
  ASSERT_EQ(run.versions.size(), static_cast<size_t>(kRunRecords));

  // (a) No wave (hence no batch) is ever split across model versions.
  for (int wave = 0; wave < 2 * kSegmentWaves; ++wave) {
    for (int i = 1; i < kWave; ++i) {
      ASSERT_EQ(run.versions[wave * kWave + i],
                run.versions[wave * kWave])
          << "wave " << wave << " split across versions";
    }
  }
  // (b) Versions are monotone: v1 then v2, exactly one boundary.
  int boundaries = 0;
  for (size_t i = 1; i < run.versions.size(); ++i) {
    ASSERT_GE(run.versions[i], run.versions[i - 1]);
    boundaries += run.versions[i] != run.versions[i - 1];
  }
  EXPECT_EQ(boundaries, 1) << "exactly one scripted crossing -> one swap";
  EXPECT_EQ(run.versions.front(), 1u);
  EXPECT_EQ(run.versions.back(), 2u);
  // (c) Swap count equals the scripted boundary crossings: zero flaps.
  EXPECT_EQ(run.swaps, 1u);
  EXPECT_EQ(run.failures, 0u);
  // (d) The loop ends serving the heat-map-correct pair for the drifted
  // profile: simple-only.
  EXPECT_EQ(run.final_pair, "simple");
  // The clean phase (first segment) must be served entirely by v1: the
  // detector cannot fire before the scripted boundary.
  for (int i = 0; i < kSegmentWaves * kWave; ++i) {
    ASSERT_EQ(run.versions[i], 1u) << "premature swap at record " << i;
  }

  // (e) Responses are bit-identical to an offline run of the same
  // schedule: rebuild both models from the same specs and score each wave
  // with whichever version served it.
  auto v1 = BuildModelFromSpec(RunSpec("SVM+CNN"));
  ASSERT_TRUE(v1.ok());
  auto v2 = BuildModelFromSpec(RunSpec("simple"));
  ASSERT_TRUE(v2.ok());
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(data::CleanToDirtyScenario(
          kSegmentWaves * kWave, 7));
  for (int wave = 0; wave < 2 * kSegmentWaves; ++wave) {
    std::vector<std::string> texts;
    for (int i = 0; i < kWave; ++i) {
      texts.push_back(stream[wave * kWave + i].text);
    }
    const models::TaggingModel* offline =
        run.versions[wave * kWave] == 1u ? v1->get() : v2->get();
    const std::vector<double> expected = offline->ScoreAll(texts);
    for (int i = 0; i < kWave; ++i) {
      ASSERT_EQ(run.scores[wave * kWave + i], expected[i])
          << "wave " << wave << " record " << i
          << " not bit-identical to offline";
    }
  }
}

TEST(ReplanLoopTest, LoopIsBitIdenticalAcrossThreadCounts) {
  const DriftRunResult t1 = RunDriftLoop(1);
  const DriftRunResult t4 = RunDriftLoop(4);
  const DriftRunResult t16 = RunDriftLoop(16);
  SetGlobalPoolThreads(0);

  for (const DriftRunResult* other : {&t4, &t16}) {
    ASSERT_EQ(t1.versions, other->versions);
    ASSERT_EQ(t1.swaps, other->swaps);
    ASSERT_EQ(t1.final_pair, other->final_pair);
    ASSERT_EQ(t1.scores.size(), other->scores.size());
    for (size_t i = 0; i < t1.scores.size(); ++i) {
      ASSERT_EQ(t1.scores[i], other->scores[i])
          << "record " << i << " diverged across thread counts";
    }
  }
}

TEST(ReplanLoopTest, LoopIsThreadInvariantUnderQuantLane) {
  ScopedEnv quant("SEMTAG_QUANT", "1");
  const DriftRunResult t1 = RunDriftLoop(1);
  const DriftRunResult t4 = RunDriftLoop(4);
  SetGlobalPoolThreads(0);
  ASSERT_EQ(t1.versions, t4.versions);
  EXPECT_EQ(t1.swaps, t4.swaps);
  EXPECT_EQ(t1.final_pair, t4.final_pair);
  for (size_t i = 0; i < t1.scores.size(); ++i) {
    ASSERT_EQ(t1.scores[i], t4.scores[i]) << "record " << i;
  }
  EXPECT_EQ(t1.swaps, 1u) << "the drift crossing must survive the lane";
}

TEST(ReplanLoopTest, LoopIsThreadInvariantUnderDeepBatchLane) {
  ScopedEnv batch("SEMTAG_DEEP_BATCH", "8");
  const DriftRunResult t1 = RunDriftLoop(1);
  const DriftRunResult t4 = RunDriftLoop(4);
  SetGlobalPoolThreads(0);
  ASSERT_EQ(t1.versions, t4.versions);
  EXPECT_EQ(t1.swaps, t4.swaps);
  EXPECT_EQ(t1.final_pair, t4.final_pair);
  for (size_t i = 0; i < t1.scores.size(); ++i) {
    ASSERT_EQ(t1.scores[i], t4.scores[i]) << "record " << i;
  }
  EXPECT_EQ(t1.swaps, 1u);
}

// ---------------------------------------------------------------------------
// Env parsing + kStats over the wire
// ---------------------------------------------------------------------------

TEST(ReplanOptionsTest, EnvOverridesParse) {
  ScopedEnv enable("SEMTAG_REPLAN", "1");
  ScopedEnv epoch("SEMTAG_REPLAN_EPOCH", "64");
  ScopedEnv window("SEMTAG_REPLAN_WINDOW", "4");
  ScopedEnv hysteresis("SEMTAG_REPLAN_HYSTERESIS", "5,1.5");
  ScopedEnv dirty("SEMTAG_REPLAN_DIRTY", "0.3,0.05");
  ScopedEnv profile("SEMTAG_REPLAN_PROFILE", "4750000,0.3");
  ScopedEnv pair("SEMTAG_REPLAN_PAIR", "LR+CNN");
  ScopedEnv budget("SEMTAG_REPLAN_BUDGET", "2.0");
  ScopedEnv dir("SEMTAG_REPLAN_DIR", "/tmp/replan");

  const ReplanOptions options = ReplanOptionsFromEnv();
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.epoch_records, 64);
  EXPECT_EQ(options.epoch_window, 4);
  EXPECT_EQ(options.dwell_epochs, 5);
  EXPECT_DOUBLE_EQ(options.margin_pts, 1.5);
  EXPECT_DOUBLE_EQ(options.dirty_threshold, 0.3);
  EXPECT_DOUBLE_EQ(options.dirty_band, 0.05);
  EXPECT_EQ(options.profile_records, 4750000);
  EXPECT_DOUBLE_EQ(options.profile_ratio, 0.3);
  EXPECT_EQ(options.cascade.simple, models::ModelKind::kLr);
  EXPECT_EQ(options.cascade.deep, models::ModelKind::kCnn);
  EXPECT_DOUBLE_EQ(options.cascade.budget_pts, 2.0);
  EXPECT_EQ(options.spec_dir, "/tmp/replan");
}

TEST(ReplanOptionsTest, BadValuesKeepDefaultsAndZeroDisables) {
  ScopedEnv enable("SEMTAG_REPLAN", "0");
  ScopedEnv hysteresis("SEMTAG_REPLAN_HYSTERESIS", "nonsense");
  ScopedEnv pair("SEMTAG_REPLAN_PAIR", "not-a-pair");
  const ReplanOptions options = ReplanOptionsFromEnv();
  EXPECT_FALSE(options.enabled);
  EXPECT_EQ(options.dwell_epochs, ReplanOptions{}.dwell_epochs);
  EXPECT_EQ(options.cascade.simple, models::ModelKind::kSvm);
}

#ifdef __linux__

TEST(ReplanServerTest, KStatsExposesCascadePairThresholdAndReplanState) {
  ModelRegistry registry;
  auto model = BuildModelFromSpec(RunSpec("simple"));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  registry.Install(std::move(model).ValueOrDie(), "initial");

  ServerOptions options;
  options.replan.enabled = true;
  options.replan.epoch_records = 0;  // no auto-seal: state stays static
  options.replan.dataset = "HETER";
  options.replan.records = 140;
  options.replan.synchronous = true;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  // Speak the wire protocol directly (kStats = 0x03).
  struct Client {
    int fd = -1;
    ~Client() {
      if (fd >= 0) ::close(fd);
    }
  } client;
  client.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client.fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(client.fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string frame;
  AppendFrame(static_cast<uint8_t>(Opcode::kStats), "", &frame);
  ASSERT_EQ(::write(client.fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  FrameReader reader;
  uint8_t tag = 0;
  std::string payload;
  for (int spin = 0; spin < 1000 && !reader.Next(&tag, &payload); ++spin) {
    char buf[4096];
    const ssize_t n = ::read(client.fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    ASSERT_TRUE(reader.Feed(buf, static_cast<size_t>(n)));
  }
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  // The serving pair, its threshold (simple-only => -1, never escalate),
  // and the replan state are all visible over the wire.
  EXPECT_NE(payload.find("\"pair\": \"simple\""), std::string::npos)
      << payload;
  EXPECT_NE(payload.find("\"threshold\": -1"), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"replan\": {\"enabled\": true"),
            std::string::npos)
      << payload;
  EXPECT_NE(payload.find("\"incumbent\": \"simple\""), std::string::npos)
      << payload;
  EXPECT_NE(payload.find("\"dirtiness\""), std::string::npos) << payload;
  server.Stop();
}

#endif  // __linux__

}  // namespace
}  // namespace semtag::serve
