// Online re-planning loop (serve/replanner.h) and its deterministic drift
// harness: logical-epoch TrafficStats rotation, the streaming cleanliness
// proxy, the seeded drift-scenario generator (data/drift.h), detector
// firing exactly at a scripted boundary, hysteresis suppressing
// oscillating profiles, mid-stream hot-swaps that never split a batch,
// the whole loop bit-identical across 1/4/16 threads and at a batch cap
// that cuts each wave into batches, and the one swap slot that kSwap and
// the re-planner share.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "config/runtime_config.h"
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
#include "test_client.h"

namespace semtag::serve {
namespace {

/// The two-phase scenario the drift tests replay: a clean segment matching
/// HETER's training distribution, then a dirty segment (open-vocabulary
/// entity soup + label contamination + topic rotation + ratio shift) that
/// lands the live profile in the heat map's dirty regime.
data::DriftScenario CleanToDirtyScenario(int records_per_segment,
                                         uint64_t seed) {
  data::DriftScenario scenario;
  scenario.base_dataset = "HETER";
  scenario.seed = seed;

  data::DriftSegment clean;
  clean.label = "clean";
  clean.records = records_per_segment;
  // HETER's observed training ratio (Table 3): the live profile stays in
  // the trained cell through this phase.
  clean.positive_ratio = 0.714;
  scenario.segments.push_back(clean);

  data::DriftSegment dirty;
  dirty.label = "dirty";
  dirty.records = records_per_segment;
  dirty.positive_ratio = 0.3;
  // Most entity names occur once at this pool size (the BOOK effect), so
  // OOV rate and vocabulary churn both jump: what the TrafficStats
  // dirtiness proxy keys on.
  dirty.entity_rate = 0.35;
  dirty.entity_signal = 0.5;
  dirty.entity_pool_size = 4000;
  dirty.neg_contamination = 0.08;
  dirty.vocab_shift = 3;
  scenario.segments.push_back(dirty);
  return scenario;
}

// ---------------------------------------------------------------------------
// TrafficStats logical epochs + cleanliness proxy
// ---------------------------------------------------------------------------

TEST(TrafficEpochTest, ExplicitRotationIsWallClockFree) {
  TrafficStats stats(/*epoch_records=*/0, /*epoch_window=*/4);
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
  TrafficStats stats(/*epoch_records=*/2, /*epoch_window=*/2);
  for (int i = 0; i < 10; ++i) {
    stats.Record(std::string_view("one two three"), 0.5);
  }
  const TrafficProfile profile = stats.Profile();
  EXPECT_EQ(profile.total_epochs, 5u);
  EXPECT_EQ(profile.epochs, 2u) << "window keeps only the last 2 epochs";
  EXPECT_EQ(profile.count, 4u);
  EXPECT_EQ(profile.total, 10u) << "the total counts every record";
}

TEST(TrafficEpochTest, CleanlinessProxySeparatesCleanFromDriftedTraffic) {
  const data::DriftScenario scenario = CleanToDirtyScenario(
      /*records_per_segment=*/160, /*seed=*/11);
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(scenario);
  ASSERT_EQ(stream.size(), 320u);

  // Reference = the clean segment's own vocabulary (stands in for the
  // served model's training corpus).
  std::vector<std::string> reference;
  for (int i = 0; i < 160; ++i) reference.push_back(stream[i].text);

  TrafficStats stats(/*epoch_records=*/0, /*epoch_window=*/1);
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
      data::GenerateDriftStream(CleanToDirtyScenario(64, 3));
  const auto run = [&stream] {
    TrafficStats stats(/*epoch_records=*/16, /*epoch_window=*/4);
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
  const data::DriftScenario scenario = CleanToDirtyScenario(48, 9);
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
  data::DriftScenario base = CleanToDirtyScenario(32, 5);
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

constexpr int kWave = 32;          // records per wave == default batch cap
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

/// Runs the canonical clean->dirty schedule through a real batcher,
/// replanner and swap slot at `threads` pool threads, one 32-record wave
/// per flush, as one epoll round would submit it. Each wave seals exactly
/// one epoch: the flush may score a wave as several batches, but epochs
/// seal by request count and the replanner only steps on a sealed epoch,
/// after the wave's last batch. A triggered retrain builds on the slot's
/// worker; the Finish() after each wave stands in for the daemon's
/// eventfd wakeup and waits for it, so the swap lands between waves.
/// Replan specs go to a directory of this run's own, removed before it
/// returns.
DriftRunResult RunDriftLoop(int threads, int batch_cap = kWave) {
  SetGlobalPoolThreads(threads);
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(CleanToDirtyScenario(
          /*records_per_segment=*/kSegmentWaves * kWave, /*seed=*/7));
  EXPECT_EQ(stream.size(), static_cast<size_t>(kRunRecords));

  ModelRegistry registry;
  auto model = BuildModelFromSpec(RunSpec("SVM+CNN"));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  registry.Install(std::move(model).ValueOrDie(), "initial");

  TrafficStats stats(/*epoch_records=*/kWave, /*epoch_window=*/2);
  stats.SeedReferenceFromTexts(TrainingTexts());

  ReplanOptions options;
  options.enabled = true;
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
  std::string spec_dir = testing::TempDir() + "/replan_test_XXXXXX";
  EXPECT_NE(::mkdtemp(spec_dir.data()), nullptr);
  options.spec_dir = spec_dir;
  SwapSlot slot(&registry);
  Replanner replanner(&slot, &stats, options);
  replanner.AdoptIncumbentFromRegistry();
  EXPECT_EQ(replanner.state().incumbent, "SVM+CNN");

  BatchingOptions batching;
  batching.batch_cap = batch_cap;
  Batcher batcher(&registry, &stats, batching, &replanner);

  DriftRunResult result;
  for (int wave = 0; wave * kWave < kRunRecords; ++wave) {
    for (int i = 0; i < kWave; ++i) {
      EXPECT_TRUE(batcher.Submit(/*conn_id=*/1, wave * kWave + i,
                                 stream[wave * kWave + i].text));
    }
    batcher.Flush([&result](const std::vector<ScoredRequest>& batch) {
      for (const ScoredRequest& r : batch) {
        result.versions.push_back(r.model_version);
        result.scores.push_back(r.score);
      }
    });
    slot.Finish();
    EXPECT_EQ(result.scores.size(), static_cast<size_t>((wave + 1) * kWave))
        << "wave " << wave << " did not complete";
    for (int i = 0; i < kWave; ++i) result.wave_of.push_back(wave);
  }

  const ReplanState state = replanner.state();
  result.swaps = state.swaps;
  result.failures = state.failures;
  result.final_pair = state.incumbent;
  // Every spec this run wrote is in its own directory, which goes with it.
  EXPECT_EQ(std::filesystem::exists(spec_dir + "/replan_1.spec"),
            result.swaps > 0);
  std::filesystem::remove_all(spec_dir);
  EXPECT_FALSE(std::filesystem::exists(spec_dir));
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
      data::GenerateDriftStream(CleanToDirtyScenario(
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

TEST(ReplanLoopTest, LoopIsThreadInvariantUnderDeepBatchLane) {
  // A batch cap of 8 cuts every 32-record wave into several batches, so
  // the cascade's deep tier sees smaller, differently composed batches.
  const DriftRunResult t1 = RunDriftLoop(1, /*batch_cap=*/8);
  const DriftRunResult t4 = RunDriftLoop(4, /*batch_cap=*/8);
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
// Option defaults and flags + kStats over the wire
// ---------------------------------------------------------------------------

// The defaults the SEMTAG_REPLAN_* knob table held before the settings
// became semtag_serve flags; the loop runs only when --replan enables it.
TEST(ReplanOptionsTest, DefaultsEqualTheOldKnobTable) {
  const ReplanOptions options;
  EXPECT_FALSE(options.enabled);
  EXPECT_EQ(options.epoch_records, 256);
  EXPECT_EQ(options.epoch_window, 8);
  EXPECT_EQ(options.dwell_epochs, 3);
  EXPECT_EQ(options.margin_pts, 0.25);
  EXPECT_EQ(options.dirty_threshold, 0.25);
  EXPECT_EQ(options.dirty_band, 0.10);
  EXPECT_EQ(options.profile_records, 0);
  EXPECT_EQ(options.profile_ratio, 0.0);
  EXPECT_EQ(options.dataset, "");
  EXPECT_EQ(options.spec_dir, ".");
  // No pair hint: the planner's own default pair.
  EXPECT_EQ(options.cascade.simple, core::CascadeOptions{}.simple);
  EXPECT_EQ(options.cascade.deep, core::CascadeOptions{}.deep);
}

/// Parses `args` as semtag_serve's re-planning flags into `options` and
/// `pair`, as semtag_serve's main does.
Status ParseReplanFlags(std::vector<const char*> args, ReplanOptions* options,
                        std::string* pair) {
  Flags flags("semtag_serve");
  AddReplanFlags(&flags, options, pair);
  args.insert(args.begin(), "semtag_serve");
  return flags.Parse(static_cast<int>(args.size()), args.data());
}

// The overrides the SEMTAG_REPLAN_* environment knobs carried now parse
// from semtag_serve's flags, in both value forms.
TEST(ReplanOptionsTest, EnvOverridesParse) {
  ReplanOptions options;
  options.cascade.budget_pts = 2.0;  // semtag_serve --budget
  std::string pair;
  ASSERT_TRUE(ParseReplanFlags({"--replan-epoch", "64", "--replan-window=4",
                                "--replan-dwell", "5", "--replan-dirty",
                                "0.3", "--replan-dirty-band=0.05",
                                "--replan-profile-records", "4750000",
                                "--replan-profile-ratio", "0.3",
                                "--replan-pair", "LR+CNN", "--spec-dir",
                                "/var/replan"},
                               &options, &pair)
                  .ok());
  ASSERT_TRUE(core::ParseCascadePair(pair, &options.cascade.simple,
                                     &options.cascade.deep)
                  .ok());
  EXPECT_FALSE(options.enabled);
  EXPECT_EQ(options.epoch_records, 64);
  EXPECT_EQ(options.epoch_window, 4);
  EXPECT_EQ(options.dwell_epochs, 5);
  EXPECT_DOUBLE_EQ(options.margin_pts, ReplanOptions{}.margin_pts);
  EXPECT_DOUBLE_EQ(options.dirty_threshold, 0.3);
  EXPECT_DOUBLE_EQ(options.dirty_band, 0.05);
  EXPECT_EQ(options.profile_records, 4750000);
  EXPECT_DOUBLE_EQ(options.profile_ratio, 0.3);
  EXPECT_EQ(options.cascade.simple, models::ModelKind::kLr);
  EXPECT_EQ(options.cascade.deep, models::ModelKind::kCnn);
  EXPECT_EQ(options.cascade.policy, core::CascadePolicy::kAuto);
  EXPECT_DOUBLE_EQ(options.cascade.budget_pts, 2.0);
  EXPECT_EQ(options.spec_dir, "/var/replan");
  // A pair that parses as a pair but names no models keeps the pair.
  EXPECT_FALSE(core::ParseCascadePair("FOO+BAR", &options.cascade.simple,
                                      &options.cascade.deep)
                   .ok());
  EXPECT_EQ(options.cascade.simple, models::ModelKind::kLr);
  EXPECT_EQ(options.cascade.deep, models::ModelKind::kCnn);
}

// A bad value is an error that names its flag and leaves the default in
// place; zero is a bad --replan-epoch (the daemon never advances an epoch
// itself, so no epoch would ever seal); only --replan turns the loop on.
TEST(ReplanOptionsTest, BadValuesKeepDefaultsAndZeroDisables) {
  ReplanOptions options;
  std::string pair;
  const Status bad =
      ParseReplanFlags({"--replan-dwell", "nonsense"}, &options, &pair);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("--replan-dwell"), std::string::npos)
      << bad.message();
  EXPECT_EQ(options.dwell_epochs, ReplanOptions{}.dwell_epochs);
  EXPECT_FALSE(
      ParseReplanFlags({"--replan-window", "0"}, &options, &pair).ok());
  EXPECT_EQ(options.epoch_window, ReplanOptions{}.epoch_window);
  EXPECT_FALSE(core::ParseCascadePair("not-a-pair", &options.cascade.simple,
                                      &options.cascade.deep)
                   .ok());
  EXPECT_EQ(options.cascade.simple, core::CascadeOptions{}.simple);

  ReplanOptions zero;
  const Status zero_epoch =
      ParseReplanFlags({"--replan-epoch", "0"}, &zero, &pair);
  EXPECT_FALSE(zero_epoch.ok());
  EXPECT_NE(zero_epoch.message().find("--replan-epoch"), std::string::npos)
      << zero_epoch.message();
  EXPECT_EQ(zero.epoch_records, ReplanOptions{}.epoch_records);
  EXPECT_FALSE(zero.enabled);
  ReplanOptions enabled;
  ASSERT_TRUE(ParseReplanFlags({"--replan"}, &enabled, &pair).ok());
  EXPECT_TRUE(enabled.enabled);
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
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  uint8_t tag = 0;
  const std::string payload = client.Call(Opcode::kStats, "", &tag);
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

// ---------------------------------------------------------------------------
// One swap slot shared by kSwap and the re-planner
// ---------------------------------------------------------------------------

/// A replan spec directory of the test's own, removed with it.
struct SpecDir {
  SpecDir() : path(testing::TempDir() + "/replan_slot_XXXXXX") {
    EXPECT_NE(::mkdtemp(path.data()), nullptr);
  }
  ~SpecDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// A registry serving `spec`'s model as v1.
void InstallInitial(ModelRegistry* registry, const ModelSpec& spec) {
  auto model = BuildModelFromSpec(spec);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  registry->Install(std::move(model).ValueOrDie(), "initial");
}

/// Re-planning that wants SVM+CNN at every sealed epoch, whatever the
/// traffic: the FUNNY-cell pins with the dirty threshold out of reach and
/// no margin, four-request epochs and a dwell of one. A daemon serving
/// the "simple" pair retrains on its first four requests.
ServerOptions EagerReplanOptions(const std::string& spec_dir) {
  ServerOptions options;
  options.replan = DetectorOptions();
  options.replan.epoch_records = 4;
  options.replan.epoch_window = 1;
  options.replan.dwell_epochs = 1;
  options.replan.margin_pts = 0.0;
  options.replan.dirty_threshold = 1.0;
  options.replan.dirty_band = 0.0;
  options.replan.cascade.seed = 1;
  options.replan.dataset = "HETER";
  options.replan.records = 140;
  options.replan.spec_dir = spec_dir;
  return options;
}

/// Four score frames, one epoch under EagerReplanOptions.
std::string FourScores() {
  const std::vector<std::string> texts = TrainingTexts();
  std::string wire;
  for (int i = 0; i < 4; ++i) {
    AppendFrame(static_cast<uint8_t>(Opcode::kScore), ScorePayload(i, texts[i]),
                &wire);
  }
  return wire;
}

TEST(SwapSlotTest, KSwapWhileAReplanBuildIsHeldIsShed) {
  const SpecDir dir;
  ASSERT_TRUE(
      WriteModelSpecFile(dir.path + "/operator.spec", RunSpec("simple")).ok());
  ModelRegistry registry;
  InstallInitial(&registry, RunSpec("simple"));
  Server server(&registry, EagerReplanOptions(dir.path));
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  {
    const ScopedFaults faults("stall:match=replan_1.spec:count=1:ms=500");
    // The epoch these four requests seal triggers the retrain before
    // their responses are written, so the slot is busy once they are read.
    ASSERT_TRUE(client.Write(FourScores()));
    for (int i = 0; i < 4; ++i) {
      uint8_t tag = 0;
      std::string payload;
      ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << i;
      EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
    }
    uint8_t tag = 0;
    EXPECT_EQ(client.Call(Opcode::kSwap, "operator.spec", &tag),
              "swap in flight");
    EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kShed));
    server.Stop();  // the drain cancels the held retrain
    EXPECT_EQ(FaultTriggerCount(FaultPoint::kStall), 1);
  }
  EXPECT_EQ(registry.version(), 1u)
      << "the shed kSwap never builds, and the cancelled retrain never "
         "installs";
  const ReplanState state = server.replanner()->state();
  EXPECT_EQ(state.swaps, 0u);
  EXPECT_EQ(state.failures, 1u);
  EXPECT_EQ(state.incumbent, "simple");
  EXPECT_FALSE(state.swap_in_flight);
  EXPECT_EQ(server.counters().swaps_ok, 0u);
  EXPECT_EQ(server.counters().swaps_failed, 0u);
}

TEST(SwapSlotTest, ReplanTriggerWhileAKSwapBuildIsHeldIsSuppressed) {
  const SpecDir dir;
  ASSERT_TRUE(
      WriteModelSpecFile(dir.path + "/operator.spec", RunSpec("simple")).ok());
  ModelRegistry registry;
  InstallInitial(&registry, RunSpec("simple"));
  Server server(&registry, EagerReplanOptions(dir.path));
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  {
    const ScopedFaults faults("stall:match=operator.spec:count=1:ms=500");
    // One read: the kSwap takes the slot, then the four scores seal the
    // epoch whose trigger finds it busy.
    std::string wire;
    AppendFrame(static_cast<uint8_t>(Opcode::kSwap), "operator.spec", &wire);
    ASSERT_TRUE(client.Write(wire + FourScores()));
    int scores = 0;
    std::string swap_reply;
    for (int i = 0; i < 5; ++i) {
      uint8_t tag = 0;
      std::string payload;
      ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << i;
      ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk)) << payload;
      if (payload.front() == 'v') {
        swap_reply = payload;
      } else {
        ++scores;
      }
    }
    EXPECT_EQ(scores, 4);
    EXPECT_EQ(swap_reply, "v2");
  }
  server.Stop();
  EXPECT_EQ(registry.version(), 2u) << "one build: the kSwap's";
  const ReplanState state = server.replanner()->state();
  EXPECT_EQ(state.suppressed, 1u);
  EXPECT_EQ(state.swaps, 0u);
  EXPECT_EQ(state.failures, 0u);
  EXPECT_EQ(state.incumbent, "simple");
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/replan_1.spec"));
  EXPECT_EQ(server.counters().swaps_ok, 1u);
}

TEST(SwapSlotTest, KStatsIncumbentFollowsAKSwap) {
  const SpecDir dir;
  ModelSpec svm;
  svm.model = "SVM";
  svm.dataset = "HETER";
  svm.records = 140;
  svm.seed = 1;
  ASSERT_TRUE(WriteModelSpecFile(dir.path + "/svm.spec", svm).ok());
  ASSERT_TRUE(
      WriteModelSpecFile(dir.path + "/simple.spec", RunSpec("simple")).ok());
  ModelRegistry registry;
  InstallInitial(&registry, svm);
  ServerOptions options;
  options.replan.enabled = true;
  options.replan.epoch_records = 0;  // no epochs: only swaps move the state
  options.replan.spec_dir = dir.path;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  uint8_t tag = 0;
  std::string stats = client.Call(Opcode::kStats, "", &tag);
  EXPECT_NE(stats.find("\"pair\": \"SVM\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"incumbent\": \"\""), std::string::npos) << stats;

  // A cascade swapped in by hand becomes the pair the re-planner credits.
  EXPECT_EQ(client.Call(Opcode::kSwap, "simple.spec", &tag), "v2");
  stats = client.Call(Opcode::kStats, "", &tag);
  EXPECT_NE(stats.find("\"pair\": \"simple\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"incumbent\": \"simple\""), std::string::npos)
      << stats;

  // A non-cascade model leaves no pair to credit.
  EXPECT_EQ(client.Call(Opcode::kSwap, "svm.spec", &tag), "v3");
  stats = client.Call(Opcode::kStats, "", &tag);
  EXPECT_NE(stats.find("\"pair\": \"SVM\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"incumbent\": \"\""), std::string::npos) << stats;
  server.Stop();
}

#endif  // __linux__

}  // namespace
}  // namespace semtag::serve
