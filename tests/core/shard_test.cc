// Chaos tests for the multi-process sharded grid runner: clean fan-out,
// SIGKILLed workers (before and after the cache store), frozen heartbeats,
// injected double-claim races, random chaos kills, retry-budget exhaustion,
// resume, and mixed-config rejection. The invariant under every failure
// pattern: the merged report is bit-identical to a single-process sweep and
// no cell is lost or double-counted.

#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/string_util.h"
#include "config/runtime_config.h"
#include "core/experiment.h"
#include "core/shard.h"
#include "data/specs.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "obs/snapshot_merge.h"
#include "obs/validate.h"

namespace semtag::core {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND per process: ctest -j runs each test of this
    // suite as its own process, and two concurrent fixtures sharing one
    // directory would remove_all each other's journal mid-sweep.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            StrFormat("semtag_shard_%s_%d", info->name(),
                      static_cast<int>(getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_dir_.emplace(KnobMap{{"SEMTAG_CACHE_DIR", dir_ + "/cache"}});
    obs::SetMetricsEnabled(false);
    ClearFaults();
  }
  void TearDown() override {
    ClearFaults();
    obs::SetMetricsEnabled(false);
    cache_dir_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Fork-mode options (empty worker_argv) against a private journal; the
  /// tight lease keeps reclaim tests fast.
  ShardOptions Options(int workers) const {
    ShardOptions opts;
    opts.num_workers = workers;
    opts.lease_ms = 400;
    opts.cell_retries = 3;
    opts.journal_dir = dir_ + "/journal";
    return opts;
  }

  std::string dir_;
  std::optional<ScopedRuntimeOverride> cache_dir_;
};

/// Tiny HETER-derived specs with distinct names and generator seeds.
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

std::vector<GridCell> TinyGrid(int n) {
  return EnumerateGrid(
      TinySpecs(n), {models::ModelKind::kLr, models::ModelKind::kSvm});
}

/// The ground truth a sharded sweep must reproduce exactly: every cell run
/// fresh, in one process, with the cache off.
RunReport SequentialBaseline(const std::vector<GridCell>& cells) {
  ExperimentRunner runner(false);
  RunReport report;
  for (const auto& cell : cells) {
    report.results.push_back(runner.Run(cell.spec, cell.kind, 0));
  }
  TallyOutcomes(&report);
  return report;
}

void ExpectBitIdentical(const std::vector<GridCell>& cells,
                        const RunReport& sharded, const RunReport& seq) {
  ASSERT_EQ(sharded.results.size(), seq.results.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].id);
    const ExperimentResult& a = sharded.results[i];
    const ExperimentResult& b = seq.results[i];
    EXPECT_EQ(a.dataset, b.dataset);
    EXPECT_EQ(a.model, b.model);
    EXPECT_DOUBLE_EQ(a.f1, b.f1);
    EXPECT_DOUBLE_EQ(a.precision, b.precision);
    EXPECT_DOUBLE_EQ(a.recall, b.recall);
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
    EXPECT_DOUBLE_EQ(a.auc, b.auc);
    EXPECT_DOUBLE_EQ(a.calibrated_f1, b.calibrated_f1);
    EXPECT_EQ(a.train_size, b.train_size);
    EXPECT_EQ(a.test_size, b.test_size);
  }
  EXPECT_EQ(CanonicalReportCsv(cells, sharded),
            CanonicalReportCsv(cells, seq));
}

int TotalWorkerCells(const ShardReport& shard) {
  int total = 0;
  for (const auto& w : shard.workers) total += w.cells;
  return total;
}

TEST(ShardGridTest, EnumerateGridRunsSimpleModelsFirst) {
  const auto cells = EnumerateGrid(
      TinySpecs(2), {models::ModelKind::kBert, models::ModelKind::kLr,
                     models::ModelKind::kSvm});
  ASSERT_EQ(cells.size(), 6u);
  // Cheap linear cells lead the claim order; the transformer cells trail.
  EXPECT_EQ(cells[0].id, "TINY0/LR");
  EXPECT_EQ(cells[1].id, "TINY1/LR");
  EXPECT_EQ(cells[2].id, "TINY0/SVM");
  EXPECT_EQ(cells[3].id, "TINY1/SVM");
  EXPECT_EQ(cells[4].id, "TINY0/BERT");
  EXPECT_EQ(cells[5].id, "TINY1/BERT");
}

TEST(ShardConfigTest, DescribeParseRoundTrip) {
  ShardConfig config = ShardConfig::Current(42);
  EXPECT_EQ(config.seed, 42u);
  ShardConfig parsed;
  ASSERT_TRUE(ShardConfig::Parse(config.Describe(), &parsed));
  EXPECT_EQ(parsed, config);
  EXPECT_FALSE(ShardConfig::Parse("threads=2;simd=avx2", &parsed));
  EXPECT_FALSE(ShardConfig::Parse("nonsense", &parsed));
  ShardConfig other = config;
  other.num_threads = config.num_threads + 1;
  EXPECT_NE(other.Describe(), config.Describe());
}

TEST_F(ShardTest, CleanFourWorkerRunMatchesSequential) {
  const auto cells = TinyGrid(4);  // 8 cells
  const ShardReport shard = RunShardedGrid(cells, Options(4));
  ASSERT_TRUE(shard.error.empty()) << shard.error;
  EXPECT_TRUE(shard.ok());
  EXPECT_EQ(shard.workers_spawned, 4);
  EXPECT_EQ(shard.workers_died, 0);
  EXPECT_EQ(shard.report.ok, static_cast<int>(cells.size()));
  // Every cell counted exactly once across the worker reports.
  EXPECT_EQ(TotalWorkerCells(shard), static_cast<int>(cells.size()));
  ExpectBitIdentical(cells, shard.report, SequentialBaseline(cells));
}

TEST_F(ShardTest, WorkerKilledBeforeCellIsReclaimed) {
  // Worker 0 takes SIGKILL before running its first cell: its lease must
  // expire, another worker (or the respawn) must reclaim and re-run it.
  ASSERT_TRUE(SetFaultsFromSpec("kill_self:match=w0@pre@:count=1").ok());
  const auto cells = TinyGrid(4);
  const ShardReport shard = RunShardedGrid(cells, Options(4));
  ASSERT_TRUE(shard.error.empty()) << shard.error;
  EXPECT_TRUE(shard.ok());
  EXPECT_EQ(shard.workers_died, 1);
  EXPECT_GE(shard.workers_spawned, 5);  // the dead worker was replaced
  EXPECT_GE(shard.leases_reclaimed, 1);
  EXPECT_EQ(TotalWorkerCells(shard), static_cast<int>(cells.size()));
  ExpectBitIdentical(cells, shard.report, SequentialBaseline(cells));
}

TEST_F(ShardTest, WorkerKilledAfterCacheStoreServesCachedCell) {
  // SIGKILL lands AFTER the result is in the shared cache but BEFORE the
  // done-mark: the reclaiming worker must serve the cache (bit-identical
  // since the cache stores %.17g), not retrain, and the cell must still be
  // counted exactly once.
  ASSERT_TRUE(SetFaultsFromSpec("kill_self:match=w0@post@:count=1").ok());
  const auto cells = TinyGrid(4);
  const ShardReport shard = RunShardedGrid(cells, Options(4));
  ASSERT_TRUE(shard.error.empty()) << shard.error;
  EXPECT_TRUE(shard.ok());
  EXPECT_EQ(shard.workers_died, 1);
  EXPECT_GE(shard.leases_reclaimed, 1);
  EXPECT_GE(shard.report.cached, 1);  // the reclaimed cell came from cache
  EXPECT_EQ(TotalWorkerCells(shard), static_cast<int>(cells.size()));
  ExpectBitIdentical(cells, shard.report, SequentialBaseline(cells));
}

TEST_F(ShardTest, FrozenHeartbeatLosesLeaseWithoutDoubleCount) {
  // Every cell is slowed to 600ms while worker 0's first heartbeat renewal
  // freezes for 1500ms: whichever cell worker 0 claims first (claim order
  // is a race between workers, so the stall must cover all of them), its
  // 400ms lease expires mid-cell, another worker steals the cell, and
  // worker 0's own result must be discarded.
  ASSERT_TRUE(SetFaultsFromSpec(
                  "stall:ms=600;"
                  "lease_stall:match=w0@hb@:count=1:ms=1500")
                  .ok());
  const auto cells = TinyGrid(2);  // 4 cells: bounds the stalled runtime
  const ShardReport shard = RunShardedGrid(cells, Options(3));
  ASSERT_TRUE(shard.error.empty()) << shard.error;
  EXPECT_TRUE(shard.ok());
  EXPECT_EQ(shard.workers_died, 0);  // nobody crashed — only stalled
  EXPECT_GE(shard.leases_reclaimed, 1);
  EXPECT_EQ(TotalWorkerCells(shard), static_cast<int>(cells.size()));
  ExpectBitIdentical(cells, shard.report, SequentialBaseline(cells));
}

TEST_F(ShardTest, InjectedClaimRaceKeepsEveryCellCountedOnce) {
  // Worker 1 deliberately double-claims live leases on every claim while
  // all cells are slowed enough to guarantee victims exist. Exactly one of
  // the two racers may win each done-mark.
  obs::SetMetricsEnabled(true);
  obs::ResetMetricsForTest();
  ASSERT_TRUE(SetFaultsFromSpec(
                  "stall:ms=120;claim_race:match=w1@:every=1").ok());
  const auto cells = TinyGrid(3);
  const ShardReport shard = RunShardedGrid(cells, Options(3));
  ASSERT_TRUE(shard.error.empty()) << shard.error;
  EXPECT_TRUE(shard.ok());
  EXPECT_EQ(TotalWorkerCells(shard), static_cast<int>(cells.size()));
  ExpectBitIdentical(cells, shard.report, SequentialBaseline(cells));
  // The loser of at least one race discarded its result; the merged
  // cross-process metrics make that visible.
  const auto merged = obs::MergeMetricsFiles(
      {Options(3).journal_dir + "/merged.metrics.json"});
  ASSERT_TRUE(merged.ok) << merged.error;
  uint64_t lost = 0;
  for (const auto& [name, v] : merged.merged.counters) {
    if (name == "shard/cells_lost") lost = v;
  }
  EXPECT_GE(lost, 1u);
}

TEST_F(ShardTest, ChaosKillsEveryThirdCellStaysBitIdentical) {
  // Every worker dies on its third claimed cell (after=2 skips the first
  // two probes; every=3 keeps firing on the 6th, 9th, ...), respawns
  // included. The sweep must still drain, with the merged grid
  // bit-identical.
  ASSERT_TRUE(
      SetFaultsFromSpec("kill_self:match=@pre@:after=2:every=3").ok());
  const auto cells = TinyGrid(5);  // 10 cells
  ShardOptions opts = Options(4);
  opts.cell_retries = 6;  // chaos may land several kills on one cell
  opts.max_respawns = 24;
  const ShardReport shard = RunShardedGrid(cells, opts);
  ASSERT_TRUE(shard.error.empty()) << shard.error;
  EXPECT_TRUE(shard.ok());
  EXPECT_GE(shard.workers_died, 1);
  EXPECT_GE(shard.leases_reclaimed, 1);
  EXPECT_EQ(TotalWorkerCells(shard), static_cast<int>(cells.size()));
  ExpectBitIdentical(cells, shard.report, SequentialBaseline(cells));
}

TEST_F(ShardTest, PoisonedCellExhaustsRetryBudgetAndFailsTheSweep) {
  // Every process that claims TINY0/LR dies before running it. With
  // cell_retries=1 the cell gets 2 lease grants, then must be marked
  // exhausted — surfacing as a failed cell and a non-zero sweep.
  ASSERT_TRUE(SetFaultsFromSpec("kill_self:match=@pre@TINY0/LR").ok());
  const auto cells = TinyGrid(3);
  ShardOptions opts = Options(3);
  opts.cell_retries = 1;
  opts.max_respawns = 8;
  const ShardReport shard = RunShardedGrid(cells, opts);
  EXPECT_FALSE(shard.ok());
  EXPECT_EQ(shard.exhausted, 1);
  EXPECT_EQ(shard.workers_died, 2);  // one death per lease grant
  EXPECT_EQ(shard.report.failed, 1);
  ASSERT_EQ(shard.report.results.size(), cells.size());
  EXPECT_EQ(shard.report.results[0].outcome, CellOutcome::kFailed);
  // The healthy remainder of the grid still matches the baseline.
  const RunReport seq = SequentialBaseline(cells);
  for (size_t i = 1; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].id);
    EXPECT_DOUBLE_EQ(shard.report.results[i].f1, seq.results[i].f1);
    EXPECT_DOUBLE_EQ(shard.report.results[i].auc, seq.results[i].auc);
  }
}

TEST_F(ShardTest, ResumeServesCompletedSweepWithoutRecompute) {
  const auto cells = TinyGrid(3);
  const ShardReport first = RunShardedGrid(cells, Options(2));
  ASSERT_TRUE(first.ok());
  ShardOptions opts = Options(2);
  opts.resume = true;
  const ShardReport resumed = RunShardedGrid(cells, opts);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.ok());
  // Nothing re-ran: the journal is already fully done.
  EXPECT_EQ(CanonicalReportCsv(cells, resumed.report),
            CanonicalReportCsv(cells, first.report));
}

TEST_F(ShardTest, MixedConfigWorkerReportIsRejectedLoudly) {
  const auto cells = TinyGrid(2);
  const ShardReport first = RunShardedGrid(cells, Options(2));
  ASSERT_TRUE(first.ok());
  // Tamper worker 0's determinism stamp as if it had run with different
  // threading/SIMD knobs, then resume (which re-reads the reports).
  const std::string report_path = Options(2).journal_dir + "/worker_0.csv";
  ASSERT_TRUE(std::filesystem::exists(report_path));
  std::ifstream in(report_path);
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string content = buf.str();
  const size_t pos = content.find("#config,");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = content.find('\n', pos);
  content.replace(pos, eol - pos,
                  "#config,threads=99;simd=bogus;deep_batch=7;quant=1;"
                  "seed=0");
  std::ofstream out(report_path, std::ios::trunc);
  out << content;
  out.close();
  ShardOptions opts = Options(2);
  opts.resume = true;
  const ShardReport resumed = RunShardedGrid(cells, opts);
  EXPECT_TRUE(resumed.config_mismatch);
  EXPECT_FALSE(resumed.ok());
  EXPECT_FALSE(resumed.error.empty());
}

TEST_F(ShardTest, MergedMetricsAccountForEveryCellAndReclaim) {
  obs::SetMetricsEnabled(true);
  obs::ResetMetricsForTest();
  ASSERT_TRUE(SetFaultsFromSpec("kill_self:match=w0@pre@:count=1").ok());
  const auto cells = TinyGrid(3);
  const ShardReport shard = RunShardedGrid(cells, Options(3));
  ASSERT_TRUE(shard.ok());
  const std::string merged_path =
      Options(3).journal_dir + "/merged.metrics.json";
  ASSERT_TRUE(std::filesystem::exists(merged_path));
  const auto merged = obs::MergeMetricsFiles({merged_path});
  ASSERT_TRUE(merged.ok) << merged.error;
  uint64_t executed = 0, reclaimed = 0, spawned = 0;
  for (const auto& [name, v] : merged.merged.counters) {
    if (name == "shard/cells_executed") executed = v;
    if (name == "shard/leases_reclaimed") reclaimed = v;
    if (name == "shard/workers_spawned") spawned = v;
  }
  // Exactly one done-mark per cell, the reclaim visible, the coordinator's
  // own counters merged in alongside the workers'.
  EXPECT_EQ(executed, cells.size());
  EXPECT_GE(reclaimed, 1u);
  EXPECT_EQ(spawned, static_cast<uint64_t>(shard.workers_spawned));
}

}  // namespace
}  // namespace semtag::core
