// semtag_shard: run the experiment grid as N cooperating worker processes.
//
//   semtag_shard --workers 4 --tiny 8 --models LR,SVM --report grid.csv
//   semtag_shard --datasets SUGG,HOTEL --models LR,SVM,CNN
//   semtag_shard --resume --journal /tmp/shard   # pick up a killed sweep
//
// The coordinator seeds a claim journal (one lease row per grid cell),
// spawns `--workers` copies of this binary in `--worker` mode, monitors
// their liveness, respawns the dead, and merges the per-worker reports into
// one deterministic report — bit-identical to a single-process RunAll, even
// when workers are SIGKILLed mid-cell (see DESIGN.md "Sharded execution").
// Exits non-zero if any cell exhausts its retry budget.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/shard.h"
#include "data/specs.h"
#include "models/factory.h"
#include "obs/metrics.h"

namespace semtag {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: semtag_shard [grid flags] [coordinator flags]\n"
      "grid flags (identical for every process of one sweep):\n"
      "  --datasets A,B,C   dataset names (default: all 21 specs)\n"
      "  --tiny N           synthetic TINY0..TINY<N-1> grid instead\n"
      "  --models M1,M2     model names (default: the 5 representative)\n"
      "  --seed N           base seed for every cell (default 0)\n"
      "coordinator flags:\n"
      "  --workers N        worker processes (default 4)\n"
      "  --lease-ms N       lease duration (default 2000)\n"
      "  --retries N        extra leases per cell (default 3)\n"
      "  --journal DIR      claim journal dir (default: cache dir /shard)\n"
      "  --report FILE      write the canonical merged report CSV here\n"
      "  --resume           keep completed cells from an existing journal\n"
      "  --no-cache         bypass the persistent result cache\n"
      "internal:\n"
      "  --worker --worker-id N   run one worker (spawned by coordinator)\n");
  return 2;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const std::string key = arg + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "true";
    }
  }
  return flags;
}

bool FlagInt(const std::map<std::string, std::string>& flags,
             const std::string& key, int* out) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  int64_t v = 0;
  if (!ParseInt64(it->second, &v)) {
    std::fprintf(stderr, "--%s: not an integer: %s\n", key.c_str(),
                 it->second.c_str());
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// The synthetic tiny grid (mirrors the shard tests): HETER-shaped
/// 220-record datasets with distinct generator seeds.
std::vector<data::DatasetSpec> TinySpecs(int n) {
  std::vector<data::DatasetSpec> specs;
  data::DatasetSpec base = data::FindSpec("HETER").ValueOrDie();
  base.scaled_records = 220;
  for (int i = 0; i < n; ++i) {
    data::DatasetSpec spec = base;
    spec.name = StrFormat("TINY%d", i);
    spec.generator.seed =
        base.generator.seed + 1000 + static_cast<uint64_t>(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Builds the grid from the shared grid flags. Coordinator and workers MUST
/// call this with identical flags — EnumerateGrid order is the claim order.
bool BuildGrid(const std::map<std::string, std::string>& flags,
               std::vector<core::GridCell>* out) {
  std::vector<data::DatasetSpec> specs;
  if (const auto it = flags.find("tiny"); it != flags.end()) {
    int n = 0;
    int64_t v = 0;
    if (!ParseInt64(it->second, &v) || v <= 0) {
      std::fprintf(stderr, "--tiny: need a positive count\n");
      return false;
    }
    n = static_cast<int>(v);
    specs = TinySpecs(n);
  } else if (const auto ds = flags.find("datasets"); ds != flags.end()) {
    for (const auto& name : Split(ds->second, ',')) {
      auto spec = data::FindSpec(name);
      if (!spec.ok()) {
        std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
        return false;
      }
      specs.push_back(std::move(spec).ValueOrDie());
    }
  } else {
    specs = data::AllDatasetSpecs();
  }
  std::vector<models::ModelKind> kinds;
  if (const auto it = flags.find("models"); it != flags.end()) {
    for (const auto& name : Split(it->second, ',')) {
      auto kind = models::ModelKindFromName(name);
      if (!kind.ok()) {
        std::fprintf(stderr, "unknown model %s\n", name.c_str());
        return false;
      }
      kinds.push_back(kind.ValueOrDie());
    }
  } else {
    kinds = models::RepresentativeModels();
  }
  if (specs.empty() || kinds.empty()) {
    std::fprintf(stderr, "empty grid\n");
    return false;
  }
  *out = core::EnumerateGrid(specs, kinds);
  return true;
}

bool BuildOptions(const std::map<std::string, std::string>& flags,
                  core::ShardOptions* out) {
  core::ShardOptions opts;
  if (!FlagInt(flags, "workers", &opts.num_workers) ||
      !FlagInt(flags, "lease-ms", &opts.lease_ms) ||
      !FlagInt(flags, "retries", &opts.cell_retries)) {
    return false;
  }
  int seed = 0;
  if (!FlagInt(flags, "seed", &seed) || seed < 0) return false;
  opts.seed = static_cast<uint64_t>(seed);
  if (const auto it = flags.find("journal"); it != flags.end()) {
    opts.journal_dir = it->second;
  }
  opts.resume = flags.count("resume") > 0;
  opts.use_cache = flags.count("no-cache") == 0;
  *out = opts;
  return true;
}

int CoordinatorMain(const std::map<std::string, std::string>& flags,
                    int argc, char** argv) {
  std::vector<core::GridCell> cells;
  core::ShardOptions opts;
  if (!BuildGrid(flags, &cells) || !BuildOptions(flags, &opts)) {
    return Usage();
  }
  // Workers re-exec this binary with the coordinator's own grid flags plus
  // --worker; RunShardedGrid appends --worker-id <n> per spawn.
  opts.worker_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) opts.worker_argv.push_back(argv[i]);
  opts.worker_argv.push_back("--worker");

  const core::ShardReport shard = core::RunShardedGrid(cells, opts);
  if (!shard.error.empty()) {
    std::fprintf(stderr, "error: %s\n", shard.error.c_str());
  }
  std::printf("grid: %zu cells, %d workers spawned (%d died, %d respawn "
              "budget used)\n",
              cells.size(), shard.workers_spawned, shard.workers_died,
              shard.workers_spawned > 0
                  ? shard.workers_spawned - opts.Resolved().num_workers
                  : 0);
  double busy_total = 0;
  for (const auto& w : shard.workers) {
    std::printf("  worker %-3d cells=%-4d reclaims=%-3d busy=%.2fs\n",
                w.worker_id, w.cells, w.reclaims, w.busy_seconds);
    busy_total += w.busy_seconds;
  }
  std::printf("outcomes: ok=%d cached=%d retried=%d timed_out=%d "
              "failed=%d\n",
              shard.report.ok, shard.report.cached, shard.report.retried,
              shard.report.timed_out, shard.report.failed);
  std::printf("leases reclaimed: %d   exhausted cells: %d\n",
              shard.leases_reclaimed, shard.exhausted);
  if (shard.wall_seconds > 0) {
    std::printf("wall: %.2fs   busy: %.2fs   overlap: %.2fx\n",
                shard.wall_seconds, busy_total,
                busy_total / shard.wall_seconds);
  }
  if (const auto it = flags.find("report"); it != flags.end()) {
    const Status st = WriteFileAtomic(
        it->second, core::CanonicalReportCsv(cells, shard.report));
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", it->second.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("canonical report -> %s\n", it->second.c_str());
  }
  return shard.ok() ? 0 : 1;
}

int WorkerMain(const std::map<std::string, std::string>& flags) {
  int worker_id = -1;
  if (!FlagInt(flags, "worker-id", &worker_id) || worker_id < 0) {
    std::fprintf(stderr, "--worker requires --worker-id <n>\n");
    return 2;
  }
  std::vector<core::GridCell> cells;
  core::ShardOptions opts;
  if (!BuildGrid(flags, &cells) || !BuildOptions(flags, &opts)) return 2;
  return core::RunShardWorker(cells, opts, worker_id);
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const auto flags = ParseFlags(argc, argv);
  if (flags.count("help") > 0) return Usage();
  if (flags.count("worker") > 0) return WorkerMain(flags);
  return CoordinatorMain(flags, argc, argv);
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
