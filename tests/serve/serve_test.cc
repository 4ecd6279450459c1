// Serving stack (src/serve/): wire protocol framing, the CRC-sealed model
// registry with hot-swap, the dynamic batcher's edge cases (an idle
// batcher scores nothing, cap=1 bit-identity, the drain's partial batch,
// admission rejection, swap-between-rounds consistency, one queue delay
// per scored request), traffic stats, and end-to-end socket tests pinning
// responses bit-identical to offline Score(), one round's batch cuts, the
// one-swap-in-flight bound, and the drain cancelling a build in flight.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/string_util.h"
#include "data/dataset.h"
#include "data/specs.h"
#include "models/factory.h"
#include "models/simple/linear_svm.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/traffic_stats.h"
#include "test_client.h"

namespace semtag::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, FrameRoundTripByteAtATime) {
  std::string wire;
  AppendFrame(0x01, "hello", &wire);
  AppendFrame(0x02, "", &wire);
  AppendFrame(0x03, std::string(1000, 'x'), &wire);

  FrameReader reader;
  std::vector<std::pair<uint8_t, std::string>> frames;
  for (const char c : wire) {
    ASSERT_TRUE(reader.Feed(&c, 1));
    uint8_t tag = 0;
    std::string payload;
    while (reader.Next(&tag, &payload)) frames.emplace_back(tag, payload);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], (std::pair<uint8_t, std::string>{0x01, "hello"}));
  EXPECT_EQ(frames[1].first, 0x02);
  EXPECT_TRUE(frames[1].second.empty());
  EXPECT_EQ(frames[2].second.size(), 1000u);
  EXPECT_FALSE(reader.violated());
}

TEST(ProtocolTest, ZeroLengthFrameIsViolation) {
  // A length prefix of 0 cannot carry the mandatory tag byte.
  const char wire[4] = {0, 0, 0, 0};
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(wire, sizeof(wire)));
  EXPECT_TRUE(reader.violated());
}

TEST(ProtocolTest, OversizedFrameIsViolation) {
  // "GET " little-endian is ~0x20544547 bytes — far over kMaxFrameBytes.
  const char wire[] = "GET / HTTP/1.1\r\n";
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(wire, sizeof(wire) - 1));
  EXPECT_TRUE(reader.violated());
  // The reader stays violated: later feeds never yield frames.
  std::string good;
  AppendFrame(0x01, "x", &good);
  EXPECT_FALSE(reader.Feed(good.data(), good.size()));
}

TEST(ProtocolTest, ScorePayloadRoundTrip) {
  const std::string payload = ScorePayload(0x0123456789abcdefULL, "text");
  uint64_t ticket = 0;
  std::string_view text;
  ASSERT_TRUE(ParseScorePayload(payload, &ticket, &text));
  EXPECT_EQ(ticket, 0x0123456789abcdefULL);
  EXPECT_EQ(text, "text");

  EXPECT_FALSE(ParseScorePayload("short", &ticket, &text));
}

TEST(ProtocolTest, ScoreResponseRoundTripsDoubleBits) {
  // %.17g must round-trip arbitrary doubles exactly (the bit-identity
  // contract of the wire format).
  const double values[] = {1.0 / 3.0, -0.0, 1e-300, -123456.789012345678,
                           5.0e-324};
  for (const double v : values) {
    uint64_t ticket = 0;
    uint64_t version = 0;
    double parsed = 0.0;
    ASSERT_TRUE(ParseScoreResponse(FormatScoreResponse(7, 3, v), &ticket,
                                   &version, &parsed));
    EXPECT_EQ(ticket, 7u);
    EXPECT_EQ(version, 3u);
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof(double)), 0)
        << "value " << v << " did not round-trip bit-identically";
  }
}

// ---------------------------------------------------------------------------
// Model registry
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ModelSpecTest, WriteLoadRoundTrip) {
  ModelSpec spec;
  spec.model = "CASCADE";
  spec.dataset = "HETER";
  spec.records = 220;
  spec.seed = 7;
  spec.cascade = "SVM+CNN";
  spec.budget_pts = 1.25;
  const std::string path = TempPath("spec_roundtrip.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());

  auto loaded = LoadModelSpecFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model, "CASCADE");
  EXPECT_EQ(loaded->dataset, "HETER");
  EXPECT_EQ(loaded->records, 220);
  EXPECT_EQ(loaded->seed, 7u);
  EXPECT_EQ(loaded->cascade, "SVM+CNN");
  EXPECT_DOUBLE_EQ(loaded->budget_pts, 1.25);
}

TEST(ModelSpecTest, CorruptSpecIsQuarantined) {
  ModelSpec spec;
  spec.model = "SVM";
  spec.dataset = "HETER";
  const std::string path = TempPath("spec_corrupt.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  // Flip a content byte under the seal.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = *content;
  bytes[bytes.find("HETER")] = 'X';
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());

  EXPECT_FALSE(LoadModelSpecFile(path).ok());
  // Quarantine moved the poisoned file aside.
  EXPECT_FALSE(ReadFileToString(path).ok());
}

TEST(ModelSpecTest, SemanticErrorDoesNotQuarantine) {
  // A well-formed, correctly-sealed spec with a semantic problem (both
  // dataset and file) is rejected but NOT quarantined: the file is exactly
  // what its writer intended, not corrupt.
  std::string body =
      "semtag-model-spec-v1\nmodel SVM\ndataset HETER\nfile /tmp/x\n";
  body += StrFormat("crc %08x\n", Crc32(body));
  const std::string path = TempPath("spec_semantic.spec");
  ASSERT_TRUE(WriteFileAtomic(path, body).ok());

  EXPECT_FALSE(LoadModelSpecFile(path).ok());
  EXPECT_TRUE(ReadFileToString(path).ok()) << "file must not be quarantined";
}

TEST(ModelSpecTest, OutOfRangeRecordsAreInvalidNotTruncated) {
  // A sealed spec's records is int64 on disk; 99999999999 used to be
  // static_cast to a wrapped int. Every out-of-range value is a plain
  // semantic reject: no quarantine.
  for (const char* records : {"99999999999", "0", "-5", "1000001", "12x"}) {
    std::string body = "semtag-model-spec-v1\nmodel SVM\ndataset HETER\n";
    body += StrFormat("records %s\n", records);
    body += StrFormat("crc %08x\n", Crc32(body));
    const std::string path = TempPath("spec_records.spec");
    ASSERT_TRUE(WriteFileAtomic(path, body).ok());
    const auto loaded = LoadModelSpecFile(path);
    ASSERT_FALSE(loaded.ok()) << "records " << records;
    EXPECT_NE(loaded.status().ToString().find("records"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_TRUE(ReadFileToString(path).ok()) << "records " << records;
  }
  std::string body =
      "semtag-model-spec-v1\nmodel SVM\ndataset HETER\nrecords 1000000\n";
  body += StrFormat("crc %08x\n", Crc32(body));
  const std::string path = TempPath("spec_records_cap.spec");
  ASSERT_TRUE(WriteFileAtomic(path, body).ok());
  const auto loaded = LoadModelSpecFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records, kMaxSpecRecords);
}

data::Dataset TinyDataset(uint64_t seed = 5) {
  data::DatasetSpec spec = data::FindSpec("HETER").ValueOrDie();
  spec.scaled_records = 220;
  spec.generator.seed = seed;
  return data::BuildDataset(spec);
}

std::unique_ptr<models::TaggingModel> TrainedSvm(
    const data::Dataset& dataset) {
  auto model = models::CreateModelSeeded(models::ModelKind::kSvm, 1);
  EXPECT_TRUE(model->Train(dataset).ok());
  return model;
}

TEST(ModelRegistryTest, InstallAcquireAndSwapBumpVersion) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.Acquire(), nullptr);

  EXPECT_EQ(registry.Install(TrainedSvm(dataset), "svm-a"), 1u);
  EXPECT_EQ(registry.version(), 1u);
  const auto first = registry.Acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);

  EXPECT_EQ(registry.Install(TrainedSvm(dataset), "svm-b"), 2u);
  EXPECT_EQ(registry.version(), 2u);
  // The old snapshot stays valid for in-flight batches.
  EXPECT_EQ(first->version, 1u);
  EXPECT_NE(first->model, nullptr);
}

TEST(ModelRegistryTest, SwapFromCheckpointSpecFile) {
  const data::Dataset dataset = TinyDataset();
  auto svm = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("svm_checkpoint.bin");
  ASSERT_TRUE(
      static_cast<models::LinearSvm*>(svm.get())->Save(checkpoint).ok());

  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  const std::string path = TempPath("svm_swap.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());

  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "initial");
  auto version = registry.SwapFromSpecFile(path);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 2u);
  const auto servable = registry.Acquire();
  const std::string text = dataset[0].text;
  EXPECT_EQ(servable->model->Score(text), svm->Score(text));
}

// LoadLinearModel returns whichever family the checkpoint names, so a
// family mismatch is refused where the spec names one: an SVM spec over an
// LR checkpoint must not serve LR scores under the SVM name.
TEST(LinearIoTest, ModelTypeMismatchRejected) {
  auto lr = models::CreateModelSeeded(models::ModelKind::kLr, 1);
  ASSERT_TRUE(lr->Train(TinyDataset()).ok());
  const std::string checkpoint = TempPath("lr_as_svm.ckpt");
  ASSERT_TRUE(
      static_cast<models::LinearModel*>(lr.get())->Save(checkpoint).ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  const auto built = BuildModelFromSpec(spec);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), semtag::StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("mismatch"), std::string::npos)
      << built.status().ToString();
  spec.model = "LR";
  const auto matched = BuildModelFromSpec(spec);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  EXPECT_EQ((*matched)->name(), "LR");
}

TEST(ModelRegistryTest, CancelledBuildStopsTrainingAndInstallsNothing) {
  ModelSpec spec;
  spec.model = "CNN";
  spec.dataset = "SUGG";
  spec.records = 200;
  CancellationToken cancel = CancellationToken::Manual();
  cancel.Cancel();
  // The CNN polls the token before its first batch.
  const auto built = BuildModelFromSpec(spec, cancel);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), semtag::StatusCode::kCancelled);

  const std::string path = TempPath("cancelled_swap.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  ModelRegistry registry;
  registry.Install(TrainedSvm(TinyDataset()), "initial");
  const auto swapped = registry.SwapFromSpecFile(path, cancel);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), semtag::StatusCode::kCancelled);
  EXPECT_EQ(registry.version(), 1u);
}

// ---------------------------------------------------------------------------
// Swap failure paths under fault injection (common/fault.h)
// ---------------------------------------------------------------------------

TEST(SwapFaultTest, WriteFailSurfacesIoErrorAndLeavesNoSpecBehind) {
  ModelSpec spec;
  spec.model = "SVM";
  spec.dataset = "HETER";
  spec.records = 220;
  const std::string path = TempPath("fault_write.spec");
  // A prior run's success-path spec (written after the fault cleared)
  // must not masquerade as a partial write.
  std::remove(path.c_str());
  {
    ScopedFaults faults("write_fail:match=fault_write.spec");
    const Status st = WriteModelSpecFile(path, spec);
    EXPECT_FALSE(st.ok());
    EXPECT_GE(FaultTriggerCount(FaultPoint::kWriteFail), 1);
  }
  // The atomic-write protocol failed before the rename: no partial spec
  // file exists for a swapper to trip over.
  EXPECT_FALSE(ReadFileToString(path).ok());

  // With the fault cleared the identical call succeeds: nothing about the
  // failure was sticky.
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  EXPECT_TRUE(LoadModelSpecFile(path).ok());
}

TEST(SwapFaultTest, ReadCorruptSwapKeepsOldModelAndQuarantines) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "initial");
  const auto before = registry.Acquire();
  const std::string text = dataset[0].text;
  const double before_score = before->model->Score(text);

  ModelSpec spec;
  spec.model = "SVM";
  spec.dataset = "HETER";
  spec.records = 220;
  const std::string path = TempPath("fault_read.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());

  {
    // Flip a byte in the freshly read spec content: the CRC seal must
    // catch it, the swap must fail, and the old model must keep serving.
    ScopedFaults faults("read_corrupt:match=fault_read.spec");
    const auto swapped = registry.SwapFromSpecFile(path);
    EXPECT_FALSE(swapped.ok());
    EXPECT_GE(FaultTriggerCount(FaultPoint::kReadCorrupt), 1);
  }
  EXPECT_EQ(registry.version(), 1u) << "failed swap must not bump version";
  const auto after = registry.Acquire();
  EXPECT_EQ(after->model->Score(text), before_score)
      << "old model must keep serving bit-identically";

  // The poisoned file was quarantined aside, not left as a retry trap.
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_TRUE(ReadFileToString(path + ".corrupt").ok())
      << "quarantine must preserve the evidence";

  // A clean rewrite swaps fine afterwards.
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  const auto retried = registry.SwapFromSpecFile(path);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2u);
}

// ---------------------------------------------------------------------------
// Traffic stats
// ---------------------------------------------------------------------------

TEST(TrafficStatsTest, SlidingWindowEvicts) {
  // Two-record epochs, a window of two: the first epoch (two long,
  // positive texts) slides out once two more epochs seal.
  TrafficStats stats(/*epoch_records=*/2, /*epoch_window=*/2);
  const std::string long_text(100, 'x');
  stats.Record(long_text, 0.9);
  stats.Record(long_text, 0.9);
  for (int i = 0; i < 4; ++i) stats.Record("tenletters", 0.1);

  const TrafficProfile profile = stats.Profile();
  EXPECT_EQ(profile.total, 6u);
  EXPECT_EQ(profile.total_epochs, 3u);
  EXPECT_EQ(profile.count, 4u);
  EXPECT_DOUBLE_EQ(profile.positive_ratio, 0.0);
  EXPECT_DOUBLE_EQ(profile.mean_length, 10.0);
}

TEST(TrafficStatsTest, PartialWindowAverages) {
  // One sealed epoch in a window of 100 averages over just its records.
  TrafficStats stats(/*epoch_records=*/0, /*epoch_window=*/100);
  stats.Record(std::string(10, 'a'), 0.8);
  stats.Record(std::string(30, 'b'), 0.2);
  ASSERT_TRUE(stats.AdvanceEpoch());
  const TrafficProfile profile = stats.Profile();
  EXPECT_EQ(profile.total, 2u);
  EXPECT_EQ(profile.epochs, 1u);
  EXPECT_EQ(profile.count, 2u);
  EXPECT_DOUBLE_EQ(profile.positive_ratio, 0.5);
  EXPECT_DOUBLE_EQ(profile.mean_length, 20.0);
}

// ---------------------------------------------------------------------------
// Batcher edge cases
// ---------------------------------------------------------------------------

/// Flushes `batcher` once, collecting each batch the sink is handed.
std::vector<std::vector<ScoredRequest>> FlushBatches(Batcher* batcher) {
  std::vector<std::vector<ScoredRequest>> batches;
  batcher->Flush([&batches](const std::vector<ScoredRequest>& batch) {
    batches.push_back(batch);
  });
  return batches;
}

std::vector<ScoredRequest> Concat(
    const std::vector<std::vector<ScoredRequest>>& batches) {
  std::vector<ScoredRequest> all;
  for (const auto& batch : batches) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(BatcherTest, IdleBatcherScoresNothing) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  Batcher batcher(&registry, nullptr, BatchingOptions{});
  EXPECT_TRUE(FlushBatches(&batcher).empty()) << "an empty flush is a no-op";
  EXPECT_EQ(batcher.BatchCount(), 0u);
}

TEST(BatcherTest, CapOneIsBitIdenticalToScore) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  BatchingOptions options;
  options.batch_cap = 1;
  Batcher batcher(&registry, nullptr, options);
  const int n = 16;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(batcher.Submit(/*conn_id=*/9, /*ticket=*/100 + i,
                               dataset[i].text));
  }
  const auto batches = FlushBatches(&batcher);
  ASSERT_EQ(batches.size(), static_cast<size_t>(n));
  EXPECT_EQ(batcher.BatchCount(), static_cast<uint64_t>(n));

  // cap=1 batches are singletons handed back in submission order: each
  // carries its conn id and ticket and exactly Score(text) — the offline
  // answer — bit for bit.
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(batches[i].size(), 1u);
    const ScoredRequest& r = batches[i][0];
    EXPECT_EQ(r.conn_id, 9u);
    EXPECT_EQ(r.ticket, static_cast<uint64_t>(100 + i));
    EXPECT_EQ(r.model_version, 1u);
    EXPECT_EQ(r.score, servable->model->Score(dataset[i].text))
        << "text " << i;
  }
}

TEST(BatcherTest, DrainAnswersPendingAndClosesAdmission) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  BatchingOptions options;
  options.batch_cap = 32;
  Batcher batcher(&registry, nullptr, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Submit(1, i, dataset[i].text));
  }
  // The drain answers the 3 requests, far short of the cap, as one final
  // partial batch; afterwards every request sheds.
  std::vector<ScoredRequest> answered;
  batcher.Drain([&answered](const std::vector<ScoredRequest>& batch) {
    answered.insert(answered.end(), batch.begin(), batch.end());
  });
  ASSERT_EQ(answered.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(answered[i].ticket, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(batcher.BatchCount(), 1u);
  EXPECT_FALSE(batcher.Submit(1, 3, dataset[3].text));
  EXPECT_EQ(batcher.ShedCount(), 1u);
  EXPECT_TRUE(FlushBatches(&batcher).empty());
}

TEST(BatcherTest, QueueDelayObservedOncePerScoredRequest) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::ResetMetricsForTest();

  BatchingOptions options;
  options.batch_cap = 4;
  Batcher batcher(&registry, nullptr, options);
  // One flush of a 10-deep queue must cut it into batches of 4 + 4 + 2.
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(batcher.Submit(1, i, dataset[i].text));
  }
  const auto batches = FlushBatches(&batcher);
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  obs::ResetMetricsForTest();
  obs::SetMetricsEnabled(was_enabled);

  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4u);
  EXPECT_EQ(batches[1].size(), 4u);
  EXPECT_EQ(batches[2].size(), 2u);
  EXPECT_EQ(batcher.BatchCount(), 3u);
  const obs::HistogramSnapshot* delay = nullptr;
  const obs::HistogramSnapshot* wait = nullptr;
  const obs::HistogramSnapshot* depth = nullptr;
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "serve/queue_delay_us") delay = &hist;
    if (name == "serve/queue_wait_us") wait = &hist;
    if (name == "serve/queue_depth_at_flush") depth = &hist;
  }
  ASSERT_NE(delay, nullptr);
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(delay->count, static_cast<uint64_t>(n));
  EXPECT_EQ(wait->count, static_cast<uint64_t>(n));
  // The wait runs on past the cut by each batch's ScoreAll.
  EXPECT_LE(delay->sum, wait->sum);
  // One depth observation per flush: the whole queue when it started.
  EXPECT_EQ(depth->count, 1u);
  EXPECT_EQ(depth->sum, static_cast<double>(n));
}

TEST(BatcherTest, AdmissionControlShedsWhenFull) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  BatchingOptions options;
  options.queue_cap = 2;
  options.batch_cap = 32;
  Batcher batcher(&registry, nullptr, options);
  // Nothing flushes between submits, so the bound is exact.
  EXPECT_TRUE(batcher.Submit(1, 0, dataset[0].text));
  EXPECT_TRUE(batcher.Submit(1, 1, dataset[1].text));
  EXPECT_FALSE(batcher.Submit(1, 2, dataset[2].text));
  EXPECT_EQ(batcher.ShedCount(), 1u);
  // The flush answers the two admitted requests (never the shed one) and
  // frees the queue for the next round.
  const std::vector<ScoredRequest> answered = Concat(FlushBatches(&batcher));
  ASSERT_EQ(answered.size(), 2u);
  EXPECT_EQ(answered[0].ticket, 0u);
  EXPECT_EQ(answered[1].ticket, 1u);
  EXPECT_TRUE(batcher.Submit(1, 3, dataset[3].text));
}

TEST(BatcherTest, HotSwapMidStreamIsPerBatchConsistent) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  auto svm_a = TrainedSvm(dataset);
  auto lr = models::CreateModelSeeded(models::ModelKind::kLr, 1);
  ASSERT_TRUE(lr->Train(dataset).ok());
  const models::TaggingModel* model_v1 = svm_a.get();
  const models::TaggingModel* model_v2 = lr.get();
  // Keep scoring copies alive; the registry owns its own instances.
  auto svm_for_registry = TrainedSvm(dataset);
  registry.Install(std::move(svm_for_registry), "svm");

  BatchingOptions options;
  options.batch_cap = 4;
  Batcher batcher(&registry, nullptr, options);

  std::vector<std::string> texts;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    texts.push_back(dataset[i % dataset.size()].text);
  }
  // Two rounds of 32 with the swap installed between their flushes, as a
  // swap build's pointer flip lands between two epoll rounds.
  std::vector<std::vector<ScoredRequest>> batches;
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      auto replacement =
          models::CreateModelSeeded(models::ModelKind::kLr, 1);
      ASSERT_TRUE(replacement->Train(dataset).ok());
      registry.Install(std::move(replacement), "lr");
    }
    for (int i = round * n / 2; i < (round + 1) * n / 2; ++i) {
      ASSERT_TRUE(batcher.Submit(1, i, texts[i]));
    }
    for (auto& batch : FlushBatches(&batcher)) {
      batches.push_back(std::move(batch));
    }
  }
  ASSERT_EQ(batches.size(), static_cast<size_t>(n / 4));

  // Every response must be self-consistent: the score it carries is the
  // one the model version it names produces, and a batch names one
  // version. A batch split across the swap would break this.
  int v1 = 0;
  int v2 = 0;
  for (const auto& batch : batches) {
    for (const ScoredRequest& r : batch) {
      EXPECT_EQ(r.model_version, batch[0].model_version);
      const int i = static_cast<int>(r.ticket);
      if (r.model_version == 1) {
        EXPECT_EQ(r.score, model_v1->Score(texts[i])) << "request " << i;
        EXPECT_LT(i, n / 2) << "v1 scored after the swap";
        ++v1;
      } else {
        ASSERT_EQ(r.model_version, 2u);
        EXPECT_EQ(r.score, model_v2->Score(texts[i])) << "request " << i;
        ++v2;
      }
    }
  }
  EXPECT_EQ(v1, n / 2);
  EXPECT_EQ(v2, n / 2);
}

// ---------------------------------------------------------------------------
// End-to-end over a real socket
// ---------------------------------------------------------------------------

TEST(ServerTest, EndToEndScoresBitIdenticalToOffline) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  ServerOptions options;
  options.batching.batch_cap = 1;  // singleton batches == offline Score
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Ping.
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kPing), ""));
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(payload, "pong");

  // Pipelined scores: responses may arrive out of order; correlate by
  // ticket and pin every score to the offline answer bit for bit.
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                            ScorePayload(100 + i, dataset[i].text)));
  }
  int got = 0;
  while (got < n) {
    ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << got;
    ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
    uint64_t ticket = 0;
    uint64_t version = 0;
    double score = 0.0;
    ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
    ASSERT_GE(ticket, 100u);
    ASSERT_LT(ticket, 100u + n);
    EXPECT_EQ(version, 1u);
    const std::string& text = dataset[ticket - 100].text;
    EXPECT_EQ(score, servable->model->Score(text))
        << "ticket " << ticket << " not bit-identical to offline";
    ++got;
  }

  // Stats op mentions the live model version.
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kStats), ""));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_NE(payload.find("\"version\": 1"), std::string::npos) << payload;

  server.Stop();
  EXPECT_FALSE(server.running());
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.requests, static_cast<uint64_t>(n));
  EXPECT_EQ(counters.protocol_errors, 0u);
  EXPECT_EQ(counters.shed, 0u);
}

TEST(ServerTest, OneRoundIsScoredInBatches) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  ServerOptions options;
  options.batching.batch_cap = 4;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Ten score frames in one write reach the loop in one read, so one
  // flush cuts them into batches of 4 + 4 + 2.
  const int n = 10;
  std::string wire;
  for (int i = 0; i < n; ++i) {
    AppendFrame(static_cast<uint8_t>(Opcode::kScore),
                ScorePayload(i, dataset[i].text), &wire);
  }
  ASSERT_TRUE(client.Write(wire));
  std::vector<bool> seen(n, false);
  uint8_t tag = 0;
  std::string payload;
  for (int got = 0; got < n; ++got) {
    ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << got;
    ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
    uint64_t ticket = 0;
    uint64_t version = 0;
    double score = 0.0;
    ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
    ASSERT_LT(ticket, static_cast<uint64_t>(n));
    EXPECT_FALSE(seen[ticket]) << "ticket " << ticket << " answered twice";
    seen[ticket] = true;
    EXPECT_EQ(score, servable->model->Score(dataset[ticket].text))
        << "ticket " << ticket << " not bit-identical to offline";
  }

  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kStats), ""));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_NE(payload.find("\"batches\": 3,"), std::string::npos) << payload;
  EXPECT_EQ(payload.find("queue_depth"), std::string::npos) << payload;
  server.Stop();
  EXPECT_EQ(server.counters().requests, static_cast<uint64_t>(n));
}

TEST(ServerTest, SecondSwapWhileOneBuildsIsShed) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");

  auto replacement = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("e2e_busy_checkpoint.bin");
  ASSERT_TRUE(static_cast<models::LinearSvm*>(replacement.get())
                  ->Save(checkpoint)
                  .ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  ASSERT_TRUE(WriteModelSpecFile(TempPath("e2e_busy_swap.spec"), spec).ok());

  ServerOptions options;
  options.replan.spec_dir = testing::TempDir();
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  uint8_t tag = 0;
  std::string payload;
  {
    // The first swap stalls in SwapFromSpecFile; the second, in the same
    // write, finds it in flight and gets the busy reply at once.
    ScopedFaults faults("stall:match=e2e_busy_swap.spec:count=1:ms=300");
    std::string wire;
    AppendFrame(static_cast<uint8_t>(Opcode::kSwap), "e2e_busy_swap.spec",
                &wire);
    AppendFrame(static_cast<uint8_t>(Opcode::kSwap), "e2e_busy_swap.spec",
                &wire);
    ASSERT_TRUE(client.Write(wire));
    ASSERT_TRUE(client.ReadFrame(&tag, &payload));
    EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kShed));
    EXPECT_EQ(payload, "swap in flight");
    ASSERT_TRUE(client.ReadFrame(&tag, &payload));
    EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
    EXPECT_EQ(payload, "v2");
    EXPECT_EQ(FaultTriggerCount(FaultPoint::kStall), 1);
  }

  // The first swap has replied, so the slot is free again.
  ASSERT_TRUE(
      client.Send(static_cast<uint8_t>(Opcode::kSwap), "e2e_busy_swap.spec"));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(payload, "v3");

  server.Stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.swaps_ok, 2u);
  EXPECT_EQ(counters.swaps_failed, 0u);
  EXPECT_EQ(registry.version(), 3u);
}

TEST(ServerTest, StopCancelsASwapBuildInFlight) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");

  auto replacement = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("e2e_stop_checkpoint.bin");
  ASSERT_TRUE(static_cast<models::LinearSvm*>(replacement.get())
                  ->Save(checkpoint)
                  .ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  ASSERT_TRUE(WriteModelSpecFile(TempPath("e2e_stop_swap.spec"), spec).ok());

  ServerOptions options;
  options.replan.spec_dir = testing::TempDir();
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  {
    // Hold the build in flight, then stop the server under it: the drain
    // cancels the build instead of waiting it out and installing it.
    ScopedFaults faults("stall:match=e2e_stop_swap.spec:count=1:ms=300");
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap),
                            "e2e_stop_swap.spec"));
    for (int i = 0; i < 1000 && FaultTriggerCount(FaultPoint::kStall) == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(FaultTriggerCount(FaultPoint::kStall), 1);
    server.Stop();
  }
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError));
  EXPECT_NE(payload.find("Cancelled"), std::string::npos) << payload;
  EXPECT_EQ(registry.version(), 1u);
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.swaps_ok, 0u);
  EXPECT_EQ(counters.swaps_failed, 1u);
}

TEST(ServerTest, HotSwapOverTheWire) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");

  // Replacement: an SVM checkpoint behind a sealed spec file.
  auto replacement = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("e2e_swap_checkpoint.bin");
  ASSERT_TRUE(static_cast<models::LinearSvm*>(replacement.get())
                  ->Save(checkpoint)
                  .ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  ASSERT_TRUE(WriteModelSpecFile(TempPath("e2e_swap.spec"), spec).ok());

  ServerOptions options;
  options.replan.spec_dir = testing::TempDir();
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  ASSERT_TRUE(
      client.Send(static_cast<uint8_t>(Opcode::kSwap), "e2e_swap.spec"));
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(payload, "v2");

  // Requests scored after the swap response carry the new version.
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                          ScorePayload(1, dataset[0].text)));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  uint64_t ticket = 0;
  uint64_t version = 0;
  double score = 0.0;
  ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
  EXPECT_EQ(version, 2u);

  // A missing spec reports kError (and never kills the daemon).
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap),
                          "does_not_exist.spec"));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError));

  server.Stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.swaps_ok, 1u);
  EXPECT_EQ(counters.swaps_failed, 1u);
}

TEST(ServerTest, SwapUnderReadCorruptFaultKeepsServingOldModel) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  auto replacement = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("e2e_fault_checkpoint.bin");
  ASSERT_TRUE(static_cast<models::LinearSvm*>(replacement.get())
                  ->Save(checkpoint)
                  .ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  const std::string spec_path = TempPath("e2e_fault_swap.spec");
  ASSERT_TRUE(WriteModelSpecFile(spec_path, spec).ok());

  ServerOptions options;
  options.batching.batch_cap = 1;
  options.replan.spec_dir = testing::TempDir();
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  uint8_t tag = 0;
  std::string payload;
  {
    // The daemon reads a bit-flipped spec: kSwap must answer kError, not
    // crash, and scoring must continue on the old model/version.
    ScopedFaults faults("read_corrupt:match=e2e_fault_swap.spec");
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap),
                            "e2e_fault_swap.spec"));
    ASSERT_TRUE(client.ReadFrame(&tag, &payload));
    EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError));
  }

  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                          ScorePayload(9, dataset[0].text)));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  uint64_t ticket = 0;
  uint64_t version = 0;
  double score = 0.0;
  ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
  EXPECT_EQ(version, 1u) << "failed swap must leave the version alone";
  EXPECT_EQ(score, servable->model->Score(dataset[0].text));

  server.Stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.swaps_ok, 0u);
  EXPECT_EQ(counters.swaps_failed, 1u);
  // The poisoned spec was quarantined by the failed swap.
  EXPECT_FALSE(ReadFileToString(spec_path).ok());
  EXPECT_TRUE(ReadFileToString(spec_path + ".corrupt").ok());
}

TEST(ServerTest, SwapRefusesPathsOutsideTheSpecDir) {
  // A failed load quarantines (renames) the file it read, so a kSwap that
  // could name any path could rename any file the daemon can write.
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const std::string spec_dir = TempPath("swap_spec_dir");
  std::filesystem::create_directories(spec_dir);
  const std::string victim = TempPath("swap_victim.txt");
  ASSERT_TRUE(WriteFileAtomic(victim, "not a spec\n").ok());

  ServerOptions options;
  options.replan.spec_dir = spec_dir;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (const std::string& name :
       {std::string("../swap_victim.txt"), victim, std::string("."),
        std::string(".."), std::string()}) {
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap), name));
    uint8_t tag = 0;
    std::string payload;
    ASSERT_TRUE(client.ReadFrame(&tag, &payload));
    EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError)) << name;
  }
  server.Stop();
  EXPECT_EQ(server.counters().swaps_failed, 5u);
  EXPECT_EQ(registry.version(), 1u);
  const auto content = ReadFileToString(victim);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "not a spec\n");
  EXPECT_FALSE(std::filesystem::exists(victim + ".corrupt"));
}

TEST(ServerTest, ShedResponseWhenQueueFull) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");

  ServerOptions options;
  options.batching.queue_cap = 1;
  options.batching.batch_cap = 1;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Flood far past the queue bound; with queue_cap=1 some requests MUST
  // shed, and every request gets exactly one response either way.
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                            ScorePayload(i, dataset[0].text)));
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < n; ++i) {
    uint8_t tag = 0;
    std::string payload;
    ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << i;
    if (tag == static_cast<uint8_t>(StatusCode::kOk)) {
      ++ok;
    } else {
      ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kShed));
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, n);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "queue_cap=1 under a 64-deep flood must shed";
  server.Stop();
}

TEST(ServerTest, ProtocolViolationDropsConnectionOnly) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  Server server(&registry, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient bad;
    ASSERT_TRUE(bad.Connect(server.port()));
    ASSERT_TRUE(bad.Send(0x7f, "junk-opcode"));
    uint8_t tag = 0;
    std::string payload;
    EXPECT_FALSE(bad.ReadFrame(&tag, &payload));  // connection dropped
  }
  // The server survives and keeps serving new connections.
  TestClient good;
  ASSERT_TRUE(good.Connect(server.port()));
  ASSERT_TRUE(good.Send(static_cast<uint8_t>(Opcode::kPing), ""));
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(good.ReadFrame(&tag, &payload));
  EXPECT_EQ(payload, "pong");

  server.Stop();
  EXPECT_GE(server.counters().protocol_errors, 1u);
}

}  // namespace
}  // namespace semtag::serve
