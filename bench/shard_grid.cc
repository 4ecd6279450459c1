// Sharded-grid scaling bench -> BENCH_shard.json.
//
// Measures the wall-clock speedup of semtag's multi-process sharded sweep
// (core/shard.h) at N workers versus 1 worker on a reduced grid, plus the
// coordination overhead the claim journal adds. Two regimes:
//
//  - stall-bound: every cell is slowed by an injected 250ms stall
//    (SEMTAG_FAULT machinery), modeling the I/O- and wait-dominated cells
//    of a real sweep (BERT cache misses, disk-bound folds). Stalls overlap
//    across worker processes regardless of core count, so this regime
//    measures the lease/claim protocol's ability to keep workers busy —
//    the ≥3x-at-4-workers gate in CI.
//  - compute-bound: the same grid with no stall. Scaling here is bounded
//    by physical cores; the JSON records host_cores alongside so a 1-core
//    CI runner's ~1x is read as the hardware fact it is, not a regression
//    (DESIGN.md "Sharded execution" discusses this honestly).
//
// Both regimes also assert the merged 4-worker report is bit-identical to
// the 1-worker run — a perf number from a wrong merge is worthless.
//
//   shard_grid [--cells N] [--workers N] [--stall-ms N] [--out FILE]

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "config/runtime_config.h"
#include "core/experiment.h"
#include "core/shard.h"
#include "data/specs.h"
#include "models/factory.h"

namespace semtag {
namespace {

struct RegimeResult {
  double wall_1w = 0;
  double wall_nw = 0;
  int reclaims = 0;
  bool bit_identical = false;
  double speedup() const { return wall_nw > 0 ? wall_1w / wall_nw : 0; }
};

std::vector<core::GridCell> BenchGrid(int n) {
  std::vector<data::DatasetSpec> specs;
  data::DatasetSpec base = data::FindSpec("HETER").ValueOrDie();
  base.scaled_records = 220;
  for (int i = 0; i < n; ++i) {
    data::DatasetSpec spec = base;
    spec.name = StrFormat("BENCH%d", i);
    spec.generator.seed = base.generator.seed + 7000 +
                          static_cast<uint64_t>(i);
    specs.push_back(std::move(spec));
  }
  return core::EnumerateGrid(specs, {models::ModelKind::kLr});
}

double RunOnce(const std::vector<core::GridCell>& cells, int workers,
               const std::string& journal_dir, std::string* canonical,
               int* reclaims) {
  core::ShardOptions opts;
  opts.num_workers = workers;
  opts.lease_ms = 2000;
  opts.cell_retries = 3;
  opts.journal_dir = journal_dir;
  opts.use_cache = false;  // measure execution, not cache replay
  const core::ShardReport report = core::RunShardedGrid(cells, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "sharded run failed: %s\n", report.error.c_str());
    std::exit(1);
  }
  *canonical = core::CanonicalReportCsv(cells, report.report);
  *reclaims += report.leases_reclaimed;
  return report.wall_seconds;
}

RegimeResult RunRegime(const std::vector<core::GridCell>& cells,
                       int workers, const std::string& dir) {
  RegimeResult r;
  std::string base, sharded;
  r.wall_1w = RunOnce(cells, 1, dir + "/w1", &base, &r.reclaims);
  r.wall_nw = RunOnce(cells, workers, dir + "/wN", &sharded, &r.reclaims);
  r.bit_identical = base == sharded;
  return r;
}

int Main(int argc, char** argv) {
  bench::BenchSetup("Sharded grid scaling",
                    "multi-process lease/heartbeat work-stealing", argc,
                    argv);
  int cells_n = 8, workers = 4, stall_ms = 250;
  std::string out = "BENCH_shard.json";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--cells") == 0) cells_n = atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--workers") == 0) workers = atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--stall-ms") == 0) {
      stall_ms = atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "semtag_shard_bench")
          .string();
  std::filesystem::remove_all(tmp);
  // Forked workers share this process's config, so the override reaches
  // them without touching the environment.
  const ScopedRuntimeOverride cache_dir({{"SEMTAG_CACHE_DIR", tmp + "/cache"}});
  const auto cells = BenchGrid(cells_n);
  const int host_cores = bench::HostCores();

  // Stall-bound regime: the injected stall fires inside every cell of
  // every worker process (fault registry state is inherited across fork).
  SEMTAG_CHECK(
      SetFaultsFromSpec(StrFormat("stall:match=BENCH:ms=%d", stall_ms))
          .ok());
  const RegimeResult stalled = RunRegime(cells, workers, tmp + "/stall");
  ClearFaults();
  const RegimeResult compute = RunRegime(cells, workers, tmp + "/compute");

  bench::Table table({"regime", "1 worker", StrFormat("%d workers", workers),
                      "speedup", "bit-identical"});
  table.AddRow({StrFormat("stall-bound (%dms)", stall_ms),
                bench::Fmt(stalled.wall_1w) + "s",
                bench::Fmt(stalled.wall_nw) + "s",
                bench::Fmt(stalled.speedup()) + "x",
                stalled.bit_identical ? "yes" : "NO"});
  table.AddRow({"compute-bound", bench::Fmt(compute.wall_1w) + "s",
                bench::Fmt(compute.wall_nw) + "s",
                bench::Fmt(compute.speedup()) + "x",
                compute.bit_identical ? "yes" : "NO"});
  table.Print();
  std::printf("\nhost cores: %d (compute-bound scaling is bounded by "
              "this; stall-bound is not)\n",
              host_cores);

  std::string json = "{\n";
  json += "  \"bench\": \"shard_grid\",\n";
  json += bench::JsonContextFields() + "\n";
  json += StrFormat("  \"grid_cells\": %zu,\n"
                    "  \"workers\": %d,\n",
                    cells.size(), workers);
  const auto regime = [](const char* name, const RegimeResult& r,
                         bool last) {
    return StrFormat("  \"%s\": {\"wall_s_1w\": %.3f, \"wall_s_%s\": %.3f, "
                     "\"speedup\": %.2f, \"leases_reclaimed\": %d, "
                     "\"bit_identical\": %s}%s\n",
                     name, r.wall_1w, "nw", r.wall_nw, r.speedup(),
                     r.reclaims, r.bit_identical ? "true" : "false",
                     last ? "" : ",");
  };
  json += StrFormat("  \"stall_ms\": %d,\n", stall_ms);
  json += regime("stall_bound", stalled, false);
  json += regime("compute_bound", compute, true);
  json += "}\n";
  const Status st = WriteFileAtomic(out, json);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("-> %s\n", out.c_str());
  std::filesystem::remove_all(tmp);
  // The CI gate: the claim protocol must not serialize stall-bound cells.
  if (!stalled.bit_identical || !compute.bit_identical) return 1;
  return 0;
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
