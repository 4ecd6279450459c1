// Fault-tolerance tests for the study runner: divergence recovery, cell
// deadlines, crash-safe cache resume, concurrent-writer merge, and corrupt
// cache quarantine. Everything runs against injected faults (SEMTAG_FAULT
// machinery) in a private SEMTAG_CACHE_DIR.

#include <cmath>
#include <filesystem>
#include <optional>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/string_util.h"
#include "config/runtime_config.h"
#include "core/experiment.h"
#include "data/specs.h"

namespace semtag::core {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and per process: ctest -j runs each test as its
    // own process, and concurrent fixtures sharing a directory would
    // remove_all each other's cache mid-test.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    cache_dir_ = (std::filesystem::temp_directory_path() /
                  StrFormat("semtag_recovery_%s_%d", info->name(),
                            static_cast<int>(getpid())))
                     .string();
    std::filesystem::remove_all(cache_dir_);
    UseCacheDir(cache_dir_);
    ClearFaults();
  }
  void TearDown() override {
    ClearFaults();
    cache_override_.reset();
    std::filesystem::remove_all(cache_dir_);
  }
  /// Points the runtime config's cache dir at `dir` until the next call.
  void UseCacheDir(const std::string& dir) {
    cache_override_.reset();
    cache_override_.emplace(KnobMap{{"SEMTAG_CACHE_DIR", dir}});
  }
  std::string cache_dir_;
  std::optional<ScopedRuntimeOverride> cache_override_;
};

/// Tiny HETER-derived specs (a few hundred records) so whole sweeps fit in
/// test time; distinct names and generator seeds make distinct cells.
std::vector<data::DatasetSpec> TinySpecs(int n) {
  std::vector<data::DatasetSpec> specs;
  data::DatasetSpec base = data::FindSpec("HETER").ValueOrDie();
  base.scaled_records = 220;
  for (int i = 0; i < n; ++i) {
    data::DatasetSpec spec = base;
    spec.name = StrFormat("TINY%d", i);
    spec.generator.seed = base.generator.seed + 1000 +
                          static_cast<uint64_t>(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST_F(RecoveryTest, DivergenceRecoveryRetriesAndSucceeds) {
  // Poison the first two optimizer steps of the CNN; the guard must
  // restore the last-good snapshot, halve the LR, and finish training.
  ASSERT_TRUE(SetFaultsFromSpec("nan_grad:match=CNN:count=2").ok());
  ExperimentRunner runner(true);
  const ExperimentResult r =
      runner.RunMany(EnumerateGrid(TinySpecs(1), {models::ModelKind::kCnn}))
          .results[0];
  EXPECT_EQ(r.outcome, CellOutcome::kRetried);
  EXPECT_EQ(r.retries, 2);
  EXPECT_EQ(FaultTriggerCount(FaultPoint::kNonFiniteGrad), 2);
  EXPECT_TRUE(std::isfinite(r.f1));
  EXPECT_GE(r.f1, 0.0);
  EXPECT_LE(r.f1, 1.0);
  EXPECT_GT(r.auc, 0.0);
}

TEST_F(RecoveryTest, ExhaustedRetriesFailTheCellNotTheSweep) {
  // Unlimited NaN losses exhaust the retry budget; the cell is recorded
  // as failed, nothing enters the cache, and the report accounts for it.
  ASSERT_TRUE(SetFaultsFromSpec("nan_loss:match=CNN").ok());
  ExperimentRunner runner(true);
  const RunReport report =
      runner.RunMany(EnumerateGrid(TinySpecs(1), {models::ModelKind::kCnn}));
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.failed, 1);
  EXPECT_FALSE(report.all_ok());
  const ExperimentResult& r = report.results[0];
  EXPECT_EQ(r.outcome, CellOutcome::kFailed);
  EXPECT_FALSE(r.error.empty());
  EXPECT_DOUBLE_EQ(r.f1, 0.0);
  // Failed cells never enter the journal, so the next run retries them.
  EXPECT_FALSE(std::filesystem::exists(cache_dir_ + "/results.csv"));
}

TEST_F(RecoveryTest, StalledCellHitsDeadlineAndSweepContinues) {
  std::optional<ScopedRuntimeOverride> deadline;
  deadline.emplace(KnobMap{{"SEMTAG_CELL_DEADLINE_MS", "100"}});
  ASSERT_TRUE(SetFaultsFromSpec("stall:match=TINY0:ms=400").ok());
  const auto specs = TinySpecs(2);
  ExperimentRunner runner(true);
  const auto cells = EnumerateGrid(specs, {models::ModelKind::kLr});
  const RunReport report = runner.RunMany(cells);
  EXPECT_EQ(report.timed_out, 1);
  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(report.results[0].outcome, CellOutcome::kTimedOut);
  EXPECT_EQ(report.results[1].outcome, CellOutcome::kOk);
  // Timed-out cells stay uncached: with the stall gone and no deadline,
  // the rerun recomputes TINY0 and serves TINY1 from cache.
  ClearFaults();
  deadline.reset();
  ExperimentRunner second(true);
  const RunReport rerun = second.RunMany(cells);
  EXPECT_EQ(rerun.ok, 1);
  EXPECT_EQ(rerun.cached, 1);
  EXPECT_EQ(rerun.results[0].outcome, CellOutcome::kOk);
  EXPECT_EQ(rerun.results[1].outcome, CellOutcome::kCached);
}

TEST_F(RecoveryTest, ConcurrentStoreMergesInsteadOfClobbering) {
  const auto specs = TinySpecs(2);
  // Both runners load the (empty) cache before either stores, so each is
  // blind to the other's in-memory results — exactly two bench binaries
  // racing. The merge-under-file-lock keeps both cells.
  ExperimentRunner a(true);
  ExperimentRunner b(true);
  ASSERT_EQ(a.Run(specs[0], models::ModelKind::kLr).outcome,
            CellOutcome::kOk);
  ASSERT_EQ(b.Run(specs[1], models::ModelKind::kLr).outcome,
            CellOutcome::kOk);
  ExperimentRunner fresh(true);
  EXPECT_EQ(fresh.Run(specs[0], models::ModelKind::kLr).outcome,
            CellOutcome::kCached);
  EXPECT_EQ(fresh.Run(specs[1], models::ModelKind::kLr).outcome,
            CellOutcome::kCached);
}

TEST_F(RecoveryTest, CorruptCacheIsQuarantinedAndRecomputed) {
  const auto specs = TinySpecs(1);
  {
    ExperimentRunner runner(true);
    ASSERT_EQ(runner.Run(specs[0], models::ModelKind::kLr).outcome,
              CellOutcome::kOk);
  }
  const std::string path = cache_dir_ + "/results.csv";
  // Flip one payload byte: the CRC32 footer must catch it.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string corrupted = *content;
  corrupted[corrupted.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());
  ExperimentRunner reloaded(true);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_FALSE(std::filesystem::exists(path));
  // The cell recomputes cleanly and repopulates the cache.
  EXPECT_EQ(reloaded.Run(specs[0], models::ModelKind::kLr).outcome,
            CellOutcome::kOk);
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(RecoveryTest, LegacyFooterlessRowsLoadAndMalformedRowsAreSkipped) {
  const auto specs = TinySpecs(1);
  const std::string key =
      ExperimentCacheKey(specs[0], models::ModelKind::kLr, 0);
  // A pre-CRC cache file: one valid 12-column legacy row plus assorted
  // garbage rows that strict parsing must reject without aborting the load.
  std::string csv =
      key + ",TINY0,LR,0.5,0.4,0.3,0.6,0.7,0.55,0.01,176,44\n";
  csv += "short,row\n";
  csv += "k2,TINY0,LR,not_a_number,0,0,0,0,0,0,1,1\n";
  csv += "k3,TINY0,LR,0.1,0.1,0.1,0.1,0.1,0.1,0.1,1,1,bogus_outcome\n";
  std::filesystem::create_directories(cache_dir_);
  ASSERT_TRUE(WriteFileAtomic(cache_dir_ + "/results.csv", csv).ok());
  ExperimentRunner runner(true);
  const ExperimentResult r = runner.Run(specs[0], models::ModelKind::kLr);
  EXPECT_EQ(r.outcome, CellOutcome::kCached);
  EXPECT_DOUBLE_EQ(r.f1, 0.5);
  EXPECT_DOUBLE_EQ(r.auc, 0.7);
  EXPECT_EQ(r.train_size, 176);
}

#ifdef __unix__
TEST_F(RecoveryTest, KilledSweepResumesBitIdentical) {
  const auto specs = TinySpecs(4);
  const auto cells = EnumerateGrid(specs, {models::ModelKind::kLr});
  // Reference: an uninterrupted sweep in its own cache dir.
  const std::string ref_dir = cache_dir_ + "_ref";
  std::filesystem::remove_all(ref_dir);
  UseCacheDir(ref_dir);
  {
    ExperimentRunner runner(true);
    const RunReport report = runner.RunMany(cells);
    ASSERT_EQ(report.ok, 4);
  }
  // Interrupted: a child process completes two cells, then dies without
  // any shutdown path — every completed cell must already be durable.
  UseCacheDir(cache_dir_);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ExperimentRunner child(true);
    child.Run(specs[0], models::ModelKind::kLr);
    child.Run(specs[1], models::ModelKind::kLr);
    _exit(23);  // no destructors, no flush — like a kill between cells
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 23);
  // Resume: the journal serves the two completed cells, the rest
  // recompute, and the sweep finishes.
  {
    ExperimentRunner resumed(true);
    const RunReport report = resumed.RunMany(cells);
    EXPECT_EQ(report.cached, 2);
    EXPECT_EQ(report.ok, 2);
  }
  // Bit-identity: replay both sweeps fully from their caches (so both
  // sides went through the same %.17g round trip) and compare every metric.
  ExperimentRunner replay_interrupted(true);
  UseCacheDir(ref_dir);
  ExperimentRunner replay_ref(true);
  for (const auto& spec : specs) {
    const ExperimentResult a =
        replay_interrupted.Run(spec, models::ModelKind::kLr);
    const ExperimentResult b = replay_ref.Run(spec, models::ModelKind::kLr);
    EXPECT_EQ(a.outcome, CellOutcome::kCached);
    EXPECT_EQ(b.outcome, CellOutcome::kCached);
    EXPECT_DOUBLE_EQ(a.f1, b.f1);
    EXPECT_DOUBLE_EQ(a.precision, b.precision);
    EXPECT_DOUBLE_EQ(a.recall, b.recall);
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
    EXPECT_DOUBLE_EQ(a.auc, b.auc);
    EXPECT_DOUBLE_EQ(a.calibrated_f1, b.calibrated_f1);
    EXPECT_EQ(a.train_size, b.train_size);
    EXPECT_EQ(a.test_size, b.test_size);
  }
  std::filesystem::remove_all(ref_dir);
}

TEST_F(RecoveryTest, InjectedCrashDiesWithoutCorruptingTheCache) {
  const auto specs = TinySpecs(2);
  {
    ExperimentRunner runner(true);
    ASSERT_EQ(runner.Run(specs[0], models::ModelKind::kLr).outcome,
              CellOutcome::kOk);
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The crash fault fires at the TINY1 grid cell: _exit(137) mid-sweep.
    if (!SetFaultsFromSpec("crash:match=TINY1").ok()) _exit(1);
    ExperimentRunner child(true);
    child.Run(specs[1], models::ModelKind::kLr);
    _exit(0);  // unreachable when the fault fires
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137);
  // The pre-crash cache survived intact (CRC verifies, cell still cached).
  ExperimentRunner after(true);
  EXPECT_EQ(after.Run(specs[0], models::ModelKind::kLr).outcome,
            CellOutcome::kCached);
}
#endif  // __unix__

}  // namespace
}  // namespace semtag::core
