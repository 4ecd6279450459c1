#ifndef SEMTAG_CORE_SHARD_H_
#define SEMTAG_CORE_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace semtag::core {

/// Multi-process sharded grid execution (DESIGN.md "Sharded execution").
///
/// A coordinator process spawns N workers; every worker claims cells of the
/// experiment grid through a shared on-disk claim journal layered on the
/// crash-safe result cache. Each claim is a lease row (cell id, worker,
/// attempt count, deadline) written under the journal's advisory file lock,
/// renewed by a per-cell heartbeat thread, and reclaimable by ANY worker
/// once the deadline passes — so a SIGKILLed or stalled worker's cell is
/// re-executed instead of lost. Completed work is durable twice over: the
/// metrics live in the PR-2 result cache, the claim state in the journal,
/// and both are written with CRC + atomic rename, so the merged grid is
/// bit-identical to a single-process RunAll whatever the failure pattern.

/// Determinism stamp of one grid-running process. The merged grid is only
/// bit-identical to a sequential RunAll when every worker resolved the same
/// execution knobs; the coordinator hands its own resolved config to every
/// worker it spawns and rejects any worker report whose stamp differs,
/// loudly, instead of silently merging mixed-config results.
struct ShardConfig {
  int num_threads = 0;   // resolved SEMTAG_NUM_THREADS
  std::string simd;      // dispatched kernel tier (SEMTAG_SIMD)
  int quant = 0;         // SEMTAG_QUANT routing (0/1)
  /// SEMTAG_CASCADE pair policy ("auto" when unset) and the F1-point
  /// accuracy budget — cascade cells' escalation sets depend on both, so
  /// the stamp pins them like any other determinism knob. Absent from
  /// pre-cascade stamps; Parse defaults them.
  std::string cascade = "auto";
  double cascade_budget = 0.5;  // SEMTAG_CASCADE_BUDGET
  uint64_t seed = 0;     // base seed forwarded to every cell

  /// The calling process's resolved config.
  static ShardConfig Current(uint64_t seed);
  /// "threads=8;simd=avx2;quant=0;cascade=auto;cascade_budget=0.5;seed=0"
  /// — the stamp written into every worker report.
  std::string Describe() const;
  /// Parses a Describe() string; false on malformed input. Stamps from
  /// before the deep-batch knob was deleted carry a deep_batch=N field,
  /// which is accepted and ignored.
  static bool Parse(const std::string& text, ShardConfig* out);
  /// The environment an exec'd worker starts from: this process's, with
  /// SEMTAG_NUM_THREADS, _SIMD, _QUANT, _CASCADE and _CASCADE_BUDGET
  /// rendered from this config, so the worker resolves identical values.
  std::vector<std::string> WorkerEnvironment() const;

  bool operator==(const ShardConfig&) const = default;
};

struct ShardOptions {
  int num_workers = 0;      // <=0: 4
  int lease_ms = 0;         // <=0: 2000
  int cell_retries = -1;    // <0: 3. A cell may be leased at most
                            // 1 + cell_retries times.
  int max_respawns = -1;    // <0: num_workers * (cell_retries + 1)
  uint64_t seed = 0;        // base seed for every cell
  std::string journal_dir;  // empty: CacheDir() + "/shard"
  bool resume = false;      // keep an existing journal (default: start fresh)
  bool use_cache = true;    // workers share the persistent result cache
  /// Non-empty: the coordinator fork+execs this argv with
  /// "--worker-id <n>" appended (the semtag_shard --worker mode). Empty:
  /// fork-only workers running RunShardWorker in the child — what the
  /// in-process tests use.
  std::vector<std::string> worker_argv;

  /// Copy with the defaults applied to every unset field.
  ShardOptions Resolved() const;
};

/// Per-worker accounting parsed back from the worker report files.
struct WorkerSummary {
  int worker_id = 0;
  int cells = 0;            // cells whose done-mark this worker won
  int reclaims = 0;         // claims that took over an expired lease
  double busy_seconds = 0;  // wall time spent executing cells
  std::string config;       // determinism stamp the worker recorded
};

/// Outcome of a sharded sweep. `report` holds one result per grid cell in
/// enumeration order, merged from the per-worker reports at full double
/// precision — field-for-field identical to a single-process run.
struct ShardReport {
  RunReport report;
  std::vector<WorkerSummary> workers;
  int workers_spawned = 0;
  int workers_died = 0;       // abnormal worker exits (signal or rc != 0)
  int leases_reclaimed = 0;   // expired-lease takeovers across the sweep
  int exhausted = 0;          // cells that ran out of retry budget
  bool config_mismatch = false;
  std::string error;          // coordinator-level failure, empty when none
  double wall_seconds = 0;
  bool ok() const {
    return !config_mismatch && exhausted == 0 && error.empty();
  }
};

/// Coordinator: initializes the claim journal for `cells`, spawns workers,
/// monitors their liveness (waitpid + the lease table), respawns dead
/// workers while the respawn budget lasts, and merges the per-worker
/// reports and metrics snapshots into one deterministic ShardReport.
/// Returns when every cell is done (or permanently exhausted). Exit
/// status for CLIs: report.ok().
ShardReport RunShardedGrid(const std::vector<GridCell>& cells,
                           const ShardOptions& options);

/// Worker loop: claims cells from the journal until the grid is drained.
/// Runs in a forked child (tests) or behind semtag_shard --worker (CLI).
/// Returns the process exit code (0 = clean drain).
int RunShardWorker(const std::vector<GridCell>& cells,
                   const ShardOptions& options, int worker_id);

/// Canonical CSV of a report's deterministic columns (cell id + metrics +
/// sizes; no outcome, no timings), in grid order at full double precision.
/// Two runs of the same grid — sharded or not, chaos or not — must produce
/// bit-identical canonical CSVs.
std::string CanonicalReportCsv(const std::vector<GridCell>& cells,
                               const RunReport& report);

}  // namespace semtag::core

#endif  // SEMTAG_CORE_SHARD_H_
