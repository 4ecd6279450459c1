#include "core/shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/signal.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "config/runtime_config.h"
#include "la/kernels.h"
#include "la/quant.h"
#include "models/deep/bert_cache.h"
#include "obs/metrics.h"
#include "obs/snapshot_merge.h"

namespace semtag::core {

namespace {

/// Wall-clock ms since the unix epoch: lease deadlines must be comparable
/// across processes, so steady_clock (per-process epoch) cannot be used.
int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

constexpr char kJournalHeader[] = "#semtag-shard-journal-v1";
constexpr char kCrcFooterPrefix[] = "#crc32,";

/// One claim-journal row. States: pending -> leased -> done; an expired
/// lease (deadline_ms < now) is claimable again by any worker.
struct LeaseRow {
  std::string state = "pending";
  int worker = -1;       // current lease holder / winner of the done-mark
  int attempts = 0;      // lease grants so far
  int64_t deadline_ms = 0;
  std::string outcome;   // CellOutcomeName once done, or "exhausted"
};

using Journal = std::map<std::string, LeaseRow>;  // cell id -> row

std::string JournalPath(const ShardOptions& opts) {
  return opts.journal_dir + "/leases.csv";
}

std::string WorkerReportPath(const ShardOptions& opts, int worker_id) {
  return opts.journal_dir + StrFormat("/worker_%d.csv", worker_id);
}

std::string WorkerMetricsPath(const ShardOptions& opts, int worker_id) {
  return opts.journal_dir + StrFormat("/worker_%d.metrics.json", worker_id);
}

std::string SerializeJournal(const Journal& journal) {
  CsvWriter writer;
  writer.AddRow({kJournalHeader});
  for (const auto& [id, row] : journal) {
    writer.AddRow({id, row.state, std::to_string(row.worker),
                   std::to_string(row.attempts),
                   std::to_string(row.deadline_ms), row.outcome});
  }
  std::string payload = writer.ToString();
  return payload + StrFormat("%s%08x\n", kCrcFooterPrefix, Crc32(payload));
}

/// Parses the journal file; a CRC mismatch or malformed row fails the parse
/// (the caller quarantines and rebuilds — claim state is reconstructible
/// from the result cache, so a torn journal never loses completed work).
bool ParseJournal(const std::string& content, Journal* out) {
  std::string payload = content;
  const size_t footer = payload.rfind(kCrcFooterPrefix);
  if (footer == std::string::npos ||
      (footer != 0 && payload[footer - 1] != '\n')) {
    return false;
  }
  const std::string footer_line = payload.substr(footer);
  payload.resize(footer);
  uint32_t stored = 0;
  if (sscanf(footer_line.c_str(), "#crc32,%8" SCNx32, &stored) != 1 ||
      stored != Crc32(payload)) {
    return false;
  }
  auto rows = ParseCsv(payload);
  if (!rows.ok()) return false;
  Journal journal;
  for (const auto& row : *rows) {
    if (!row.empty() && !row[0].empty() && row[0][0] == '#') continue;
    if (row.size() != 6) return false;
    LeaseRow r;
    r.state = row[1];
    int64_t worker = 0, attempts = 0, deadline = 0;
    if (!ParseInt64(row[2], &worker) || !ParseInt64(row[3], &attempts) ||
        !ParseInt64(row[4], &deadline)) {
      return false;
    }
    if (r.state != "pending" && r.state != "leased" && r.state != "done") {
      return false;
    }
    r.worker = static_cast<int>(worker);
    r.attempts = static_cast<int>(attempts);
    r.deadline_ms = deadline;
    r.outcome = row[5];
    journal[row[0]] = std::move(r);
  }
  *out = std::move(journal);
  return true;
}

/// Reads the journal under an already-held lock. A missing file yields an
/// empty journal; a corrupt one is quarantined and also yields empty — the
/// caller re-seeds pending rows and completed cells resurface as cache
/// hits.
Journal LoadJournalLocked(const std::string& path) {
  Journal journal;
  auto content = ReadFileToString(path);
  if (!content.ok()) return journal;
  if (!ParseJournal(*content, &journal)) {
    (void)QuarantineFile(path, "shard claim journal corrupt");
    journal.clear();
  }
  return journal;
}

Status StoreJournalLocked(const std::string& path, const Journal& journal) {
  return WriteFileAtomic(path, SerializeJournal(journal));
}

bool JournalComplete(const Journal& journal, size_t num_cells) {
  if (journal.size() != num_cells) return false;
  for (const auto& [id, row] : journal) {
    if (row.state != "done") return false;
  }
  return true;
}

/// Loud prefix for every per-worker probe context: "w3@pre@SUGG/LR" lets a
/// SEMTAG_FAULT spec target one worker (match=w3@), one phase
/// (match=@pre@ / @post@ / @hb@ / @claim@), or one cell.
std::string FaultCtx(int worker_id, const char* phase,
                     const std::string& cell) {
  return StrFormat("w%d@%s@%s", worker_id, phase, cell.c_str());
}

// ---------------------------------------------------------------------------
// Worker report files
//
// Each worker appends (atomic whole-file rewrite; the file is tiny) one row
// per cell whose done-mark it won, at full double precision (%.17g
// round-trips exactly), plus a "#config" stamp row and a "#worker" stats
// row. The coordinator merges these — not the %.6f-rounded result cache —
// so the merged report is bit-identical to an in-process sweep.
// ---------------------------------------------------------------------------

struct WorkerCellRow {
  std::string cell_id;
  ExperimentResult result;
};

std::string G17(double v) { return StrFormat("%.17g", v); }

struct WorkerReport {
  std::string config;
  int reclaims = 0;
  double busy_seconds = 0;
  std::vector<WorkerCellRow> rows;
};

std::string SerializeWorkerReport(const WorkerReport& report) {
  CsvWriter writer;
  writer.AddRow({"#config", report.config});
  writer.AddRow({"#worker", std::to_string(report.reclaims),
                 G17(report.busy_seconds)});
  for (const auto& row : report.rows) {
    const ExperimentResult& r = row.result;
    writer.AddRow({row.cell_id, r.dataset, r.model,
                   CellOutcomeName(r.outcome), std::to_string(r.retries),
                   G17(r.f1), G17(r.precision), G17(r.recall),
                   G17(r.accuracy), G17(r.auc), G17(r.calibrated_f1),
                   G17(r.train_seconds), std::to_string(r.train_size),
                   std::to_string(r.test_size)});
  }
  return writer.ToString();
}

bool OutcomeFromName(const std::string& name, CellOutcome* out) {
  if (name == "ok") *out = CellOutcome::kOk;
  else if (name == "cached") *out = CellOutcome::kCached;
  else if (name == "retried") *out = CellOutcome::kRetried;
  else if (name == "timed_out") *out = CellOutcome::kTimedOut;
  else if (name == "failed") *out = CellOutcome::kFailed;
  else return false;
  return true;
}

bool ParseWorkerReport(const std::string& content, WorkerReport* out) {
  auto rows = ParseCsv(content);
  if (!rows.ok()) return false;
  WorkerReport report;
  for (const auto& row : *rows) {
    if (row.empty()) continue;
    if (row[0] == "#config") {
      if (row.size() != 2) return false;
      report.config = row[1];
      continue;
    }
    if (row[0] == "#worker") {
      if (row.size() != 3) return false;
      int64_t reclaims = 0;
      if (!ParseInt64(row[1], &reclaims) ||
          !ParseDouble(row[2], &report.busy_seconds)) {
        return false;
      }
      report.reclaims = static_cast<int>(reclaims);
      continue;
    }
    if (!row[0].empty() && row[0][0] == '#') continue;
    if (row.size() != 14) return false;
    WorkerCellRow cell;
    cell.cell_id = row[0];
    ExperimentResult& r = cell.result;
    r.dataset = row[1];
    r.model = row[2];
    int64_t retries = 0, train_size = 0, test_size = 0;
    if (!OutcomeFromName(row[3], &r.outcome) ||
        !ParseInt64(row[4], &retries) || !ParseDouble(row[5], &r.f1) ||
        !ParseDouble(row[6], &r.precision) ||
        !ParseDouble(row[7], &r.recall) ||
        !ParseDouble(row[8], &r.accuracy) || !ParseDouble(row[9], &r.auc) ||
        !ParseDouble(row[10], &r.calibrated_f1) ||
        !ParseDouble(row[11], &r.train_seconds) ||
        !ParseInt64(row[12], &train_size) ||
        !ParseInt64(row[13], &test_size)) {
      return false;
    }
    r.retries = static_cast<int>(retries);
    r.train_size = train_size;
    r.test_size = test_size;
    report.rows.push_back(std::move(cell));
  }
  *out = std::move(report);
  return true;
}

// ---------------------------------------------------------------------------
// Claiming
// ---------------------------------------------------------------------------

enum class ClaimState {
  kClaimed,     // a lease was written; run the cell
  kWait,        // nothing claimable right now, but the grid isn't drained
  kAllDone,     // every cell is done; worker exits
  kContended,   // could not take the journal lock inside the timeout
  kError,       // journal disagrees with this worker's grid enumeration
};

struct Claim {
  ClaimState state = ClaimState::kWait;
  size_t cell_index = 0;
  int attempts = 0;
  bool reclaimed = false;  // this claim took over an expired lease
  bool raced = false;      // claim_race fault: double-claimed a live lease
};

/// One pass of the claim protocol, entirely under the journal lock: find
/// the first cell (grid order) that is pending or expired-leased, write the
/// lease row, and return. Expired leases past the retry budget are marked
/// done/"exhausted" instead of re-leased, so a crash-looping cell cannot
/// wedge the sweep.
Claim ClaimNextCell(const std::vector<GridCell>& cells,
                    const ShardOptions& opts, int worker_id) {
  Claim claim;
  const std::string path = JournalPath(opts);
  FileLock lock = FileLock::TryLock(path, opts.lease_ms);
  if (!lock.held()) {
    claim.state = ClaimState::kContended;
    SEMTAG_OBS_COUNT("shard/claim_contended", 1);
    return claim;
  }
  Journal journal = LoadJournalLocked(path);
  if (journal.size() != cells.size()) {
    SEMTAG_LOG(kError,
               "worker %d: journal %s has %zu rows for a %zu-cell grid — "
               "grid enumeration mismatch",
               worker_id, path.c_str(), journal.size(), cells.size());
    claim.state = ClaimState::kError;
    return claim;
  }
  const int64_t now = WallMs();
  const int max_leases = 1 + opts.cell_retries;

  // Injected double-claim: deliberately re-lease a live (unexpired) lease
  // held by another worker, widening the claim race to a certainty. The
  // done-mark protocol must keep the cell counted exactly once.
  if (FaultInjected(FaultPoint::kClaimRace,
                    FaultCtx(worker_id, "claim", "-"))) {
    for (size_t i = 0; i < cells.size(); ++i) {
      LeaseRow& row = journal[cells[i].id];
      if (row.state == "leased" && row.deadline_ms >= now &&
          row.worker != worker_id) {
        row.worker = worker_id;
        row.deadline_ms = now + opts.lease_ms;
        claim.state = ClaimState::kClaimed;
        claim.cell_index = i;
        claim.attempts = row.attempts;
        claim.raced = true;
        if (!StoreJournalLocked(path, journal).ok()) {
          claim.state = ClaimState::kWait;
        }
        return claim;
      }
    }
  }

  bool dirty = false;
  bool any_open = false;
  for (size_t i = 0; i < cells.size(); ++i) {
    auto it = journal.find(cells[i].id);
    if (it == journal.end()) {
      claim.state = ClaimState::kError;
      return claim;
    }
    LeaseRow& row = it->second;
    if (row.state == "done") continue;
    const bool expired = row.state == "leased" && row.deadline_ms < now;
    if (row.state == "leased" && !expired) {
      any_open = true;
      continue;
    }
    if (expired && row.attempts >= max_leases) {
      // The previous holders died or stalled 1 + cell_retries times on
      // this cell; give up on it so the sweep can finish, and let the
      // coordinator surface the exhaustion as a non-zero exit.
      SEMTAG_LOG(kError,
                 "worker %d: cell %s exhausted its retry budget "
                 "(%d lease grants); marking failed",
                 worker_id, cells[i].id.c_str(), row.attempts);
      row.state = "done";
      row.outcome = "exhausted";
      dirty = true;
      continue;
    }
    if (expired) {
      claim.reclaimed = true;
      SEMTAG_LOG(kWarning,
                 "worker %d reclaims cell %s from dead/stalled worker %d "
                 "(lease grant %d)",
                 worker_id, cells[i].id.c_str(), row.worker,
                 row.attempts + 1);
    }
    row.state = "leased";
    row.worker = worker_id;
    ++row.attempts;
    row.deadline_ms = now + opts.lease_ms;
    claim.state = ClaimState::kClaimed;
    claim.cell_index = i;
    claim.attempts = row.attempts;
    if (!StoreJournalLocked(path, journal).ok()) {
      claim.state = ClaimState::kWait;  // retry after backoff
    }
    return claim;
  }
  if (dirty) (void)StoreJournalLocked(path, journal);
  claim.state = any_open ? ClaimState::kWait : ClaimState::kAllDone;
  return claim;
}

/// Renews `cell`'s lease every lease_ms / 3 until stopped. The kLeaseStall
/// fault freezes a renewal (sleeps inside the probe), letting the deadline
/// pass; when the thread wakes and finds the row no longer its own, it
/// latches `lost` so the worker discards the now-stolen cell.
class Heartbeat {
 public:
  Heartbeat(const std::vector<GridCell>& cells, const ShardOptions& opts,
            int worker_id, size_t cell_index)
      : cells_(cells), opts_(opts), worker_id_(worker_id),
        cell_index_(cell_index),
        thread_([this] { Loop(); }) {}

  ~Heartbeat() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  bool lost() const { return lost_.load(std::memory_order_acquire); }

 private:
  void Loop() {
    const auto interval =
        std::chrono::milliseconds(std::max(1, opts_.lease_ms / 3));
    const std::string& id = cells_[cell_index_].id;
    const std::string path = JournalPath(opts_);
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (cv_.wait_for(lk, interval, [this] { return stop_; })) return;
      }
      // The injected heartbeat freeze sleeps HERE, while no lock is held:
      // the lease expires mid-cell exactly as if this thread were wedged.
      FaultInjected(FaultPoint::kLeaseStall, FaultCtx(worker_id_, "hb", id));
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_) return;
      }
      FileLock lock = FileLock::TryLock(path, opts_.lease_ms / 2);
      if (!lock.held()) continue;  // renew on the next tick
      Journal journal = LoadJournalLocked(path);
      auto it = journal.find(id);
      if (it == journal.end() || it->second.state != "leased" ||
          it->second.worker != worker_id_) {
        // Someone reclaimed (or finished) our cell: we are a zombie holder.
        lost_.store(true, std::memory_order_release);
        return;
      }
      it->second.deadline_ms = WallMs() + opts_.lease_ms;
      (void)StoreJournalLocked(path, journal);
      SEMTAG_OBS_COUNT("shard/lease_renewals", 1);
    }
  }

  const std::vector<GridCell>& cells_;
  const ShardOptions& opts_;
  const int worker_id_;
  const size_t cell_index_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> lost_{false};
  std::thread thread_;
};

/// Marks `cell` done under the journal lock — but only if this worker still
/// holds the lease. Returns true when the mark was won; false means another
/// worker reclaimed (or double-claimed) the cell and its result stands
/// instead, keeping every cell counted exactly once.
bool MarkDone(const std::vector<GridCell>& cells, const ShardOptions& opts,
              int worker_id, size_t cell_index, CellOutcome outcome) {
  const std::string path = JournalPath(opts);
  const std::string& id = cells[cell_index].id;
  for (;;) {
    FileLock lock = FileLock::TryLock(path, opts.lease_ms);
    if (!lock.held()) continue;  // flock dies with its holder; keep trying
    Journal journal = LoadJournalLocked(path);
    auto it = journal.find(id);
    if (it == journal.end()) return false;
    LeaseRow& row = it->second;
    if (row.state != "leased" || row.worker != worker_id) return false;
    row.state = "done";
    row.outcome = CellOutcomeName(outcome);
    row.deadline_ms = 0;
    return StoreJournalLocked(path, journal).ok();
  }
}

#ifdef __unix__
/// fork+exec (or fork-only) of one worker; returns the child pid, -1 on
/// failure. An exec'd worker starts from `env` (ShardConfig's
/// WorkerEnvironment); a forked one shares the coordinator's config.
pid_t SpawnWorker(const std::vector<GridCell>& cells,
                  const ShardOptions& opts, int worker_id,
                  std::vector<std::string> env) {
  std::vector<std::string> args = opts.worker_argv;
  args.push_back("--worker-id");
  args.push_back(std::to_string(worker_id));
  std::vector<char*> argv, envp;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid != 0) return pid;
  // --- child ---
  if (!opts.worker_argv.empty()) {
    ::execve(argv[0], argv.data(), envp.data());
    SEMTAG_LOG(kError, "execve %s failed", argv[0]);
    _exit(127);
  }
  // Fork-only mode: the child inherited the parent's metric shards and
  // export path. Zero the registry so the worker snapshot holds exactly
  // this worker's activity, and detach the parent's atexit export target.
  obs::ResetMetricsForTest();
  obs::SetMetricsExportPath("");
  _exit(RunShardWorker(cells, opts, worker_id));
}
#endif  // __unix__

}  // namespace

// ---------------------------------------------------------------------------
// ShardConfig
// ---------------------------------------------------------------------------

ShardConfig ShardConfig::Current(uint64_t seed) {
  ShardConfig config;
  config.num_threads = DefaultThreadCount();
  config.simd = la::SimdLevelName(la::ActiveSimdLevel());
  config.quant = la::QuantInferenceEnabled() ? 1 : 0;
  config.cascade = GetRuntimeConfig().cascade;
  config.cascade_budget = GetRuntimeConfig().cascade_budget;
  config.seed = seed;
  return config;
}

std::string ShardConfig::Describe() const {
  // %.17g round-trips the budget exactly, so Parse(Describe()) == *this.
  return StrFormat("threads=%d;simd=%s;quant=%d;cascade=%s;"
                   "cascade_budget=%.17g;seed=%" PRIu64,
                   num_threads, simd.c_str(), quant, cascade.c_str(),
                   cascade_budget, seed);
}

bool ShardConfig::Parse(const std::string& text, ShardConfig* out) {
  ShardConfig config;
  bool have[4] = {};
  for (const auto& field : Split(text, ';')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    int64_t n = 0;
    double d = 0.0;
    if (key == "threads" && ParseInt64(value, &n)) {
      config.num_threads = static_cast<int>(n);
      have[0] = true;
    } else if (key == "simd" && !value.empty()) {
      config.simd = value;
      have[1] = true;
    } else if (key == "deep_batch") {
      // Legacy: older stamps pinned the since-deleted deep-batch cap.
    } else if (key == "quant" && ParseInt64(value, &n)) {
      config.quant = static_cast<int>(n);
      have[2] = true;
    } else if (key == "cascade" && !value.empty()) {
      // Optional: pre-cascade stamps lack it; the default ("auto") then
      // matches Current() in an environment with the knob unset.
      config.cascade = value;
    } else if (key == "cascade_budget" && ParseDouble(value, &d)) {
      config.cascade_budget = d;
    } else if (key == "seed" && ParseInt64(value, &n) && n >= 0) {
      config.seed = static_cast<uint64_t>(n);
      have[3] = true;
    } else {
      return false;
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) return false;
  *out = config;
  return true;
}

std::vector<std::string> ShardConfig::WorkerEnvironment() const {
  RuntimeConfig pinned = GetRuntimeConfig();
  pinned.num_threads = num_threads;
  pinned.simd = simd;
  pinned.quant = quant != 0;
  pinned.cascade = cascade;
  pinned.cascade_budget = cascade_budget;
  KnobMap knobs;
  for (const char* name : {"SEMTAG_NUM_THREADS", "SEMTAG_SIMD", "SEMTAG_QUANT",
                           "SEMTAG_CASCADE", "SEMTAG_CASCADE_BUDGET"}) {
    knobs[name] = RenderKnob(pinned, name);
  }
  return ChildEnvironment(knobs);
}

ShardOptions ShardOptions::Resolved() const {
  ShardOptions opts = *this;
  if (opts.num_workers <= 0) opts.num_workers = 4;
  if (opts.lease_ms <= 0) opts.lease_ms = 2000;
  if (opts.cell_retries < 0) opts.cell_retries = 3;
  if (opts.max_respawns < 0) {
    opts.max_respawns = opts.num_workers * (opts.cell_retries + 1);
  }
  if (opts.journal_dir.empty()) {
    opts.journal_dir = models::CacheDir() + "/shard";
  }
  return opts;
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

namespace {

/// Writes this worker's cumulative metrics snapshot. Called after every
/// won (and every lost) cell, not just at exit: a worker terminated by the
/// coordinator at sweep completion — or killed by chaos — must not take
/// its already-earned counters with it.
void ExportWorkerMetrics(const ShardOptions& opts, int worker_id,
                         const WorkerReport& report) {
  if (!obs::MetricsEnabled()) return;
  obs::GetGauge(StrFormat("shard/worker/%d/busy_ms", worker_id))
      .Set(report.busy_seconds * 1e3);
  (void)obs::WriteMetricsJson(WorkerMetricsPath(opts, worker_id));
}

}  // namespace

int RunShardWorker(const std::vector<GridCell>& cells,
                   const ShardOptions& options, int worker_id) {
  const ShardOptions opts = options.Resolved();
  const ShardConfig config = ShardConfig::Current(opts.seed);
  WorkerReport my_report;
  my_report.config = config.Describe();
  const std::string report_path = WorkerReportPath(opts, worker_id);

  ExperimentRunner runner(opts.use_cache);
  // Short poll while every cell is leased elsewhere: a long sleep here
  // delays reclaiming expired leases, and near the end of a sweep it is
  // pure dead time (the coordinator terminates idle workers once the
  // journal is complete, but mid-run stragglers still poll).
  const int backoff_ms = std::clamp(opts.lease_ms / 16, 5, 50);
  for (;;) {
    const Claim claim = ClaimNextCell(cells, opts, worker_id);
    if (claim.state == ClaimState::kAllDone) break;
    if (claim.state == ClaimState::kError) return 3;
    if (claim.state == ClaimState::kWait ||
        claim.state == ClaimState::kContended) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      continue;
    }
    const GridCell& cell = cells[claim.cell_index];
    if (claim.reclaimed) {
      ++my_report.reclaims;
      SEMTAG_OBS_COUNT("shard/leases_reclaimed", 1);
      SEMTAG_OBS_COUNT(StrFormat("shard/worker/%d/reclaims", worker_id), 1);
    }
    Heartbeat heartbeat(cells, opts, worker_id, claim.cell_index);
    // Worst-case kill points: before the cell runs (nothing durable yet),
    // and after the result is cached but before the done-mark (the
    // reclaiming worker must serve the cache, not retrain).
    FaultInjected(FaultPoint::kKillSelf, FaultCtx(worker_id, "pre", cell.id));
    WallTimer cell_timer;
    const ExperimentResult result =
        runner.Run(cell.spec, cell.kind, opts.seed);
    my_report.busy_seconds += cell_timer.ElapsedSeconds();
    FaultInjected(FaultPoint::kKillSelf, FaultCtx(worker_id, "post", cell.id));
    heartbeat.Stop();
    // Persist the row and metrics BEFORE the done-mark: the coordinator
    // SIGTERMs every remaining worker the instant the journal turns
    // complete, and the final done-mark is exactly what completes it — a
    // mark-then-persist order would race that signal and lose the winning
    // row. A stale row from a lost race is harmless: the merge keys on the
    // journal's winning worker, and per-worker cell counts come from the
    // journal, not from report rows.
    my_report.rows.push_back({cell.id, result});
    SEMTAG_OBS_COUNT("shard/cells_executed", 1);
    SEMTAG_OBS_COUNT(StrFormat("shard/worker/%d/cells", worker_id), 1);
    const Status st =
        WriteFileAtomic(report_path, SerializeWorkerReport(my_report));
    if (!st.ok()) {
      SEMTAG_LOG(kError, "worker %d: cannot persist report: %s", worker_id,
                 st.ToString().c_str());
      return 4;
    }
    ExportWorkerMetrics(opts, worker_id, my_report);
    const bool won =
        !heartbeat.lost() &&
        MarkDone(cells, opts, worker_id, claim.cell_index, result.outcome);
    if (!won) {
      // Lease lost (stall) or double-claim lost (race): the winner's report
      // row stands; keeping ours would double-count the cell.
      SEMTAG_LOG(kWarning, "worker %d: lost cell %s to a reclaim%s",
                 worker_id, cell.id.c_str(),
                 claim.raced ? " (injected claim race)" : "");
      my_report.rows.pop_back();
      (void)WriteFileAtomic(report_path, SerializeWorkerReport(my_report));
      SEMTAG_OBS_COUNT("shard/cells_lost", 1);
      ExportWorkerMetrics(opts, worker_id, my_report);
      continue;
    }
  }
  ExportWorkerMetrics(opts, worker_id, my_report);
  return 0;
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

ShardReport RunShardedGrid(const std::vector<GridCell>& cells,
                           const ShardOptions& options) {
  ShardReport shard;
#ifndef __unix__
  shard.error = "sharded execution requires a POSIX host";
  return shard;
#else
  const ShardOptions opts = options.Resolved();
  WallTimer wall;
  // Pin the coordinator's resolved execution config for every worker:
  // forked workers share its config snapshot, and exec'd ones start from
  // an environment rendered from it, so all resolve identical
  // threading/SIMD/quant/cascade knobs and the same base seed.
  const ShardConfig config = ShardConfig::Current(opts.seed);
  const std::vector<std::string> worker_env =
      opts.worker_argv.empty() ? std::vector<std::string>()
                               : config.WorkerEnvironment();

  std::error_code ec;
  std::filesystem::create_directories(opts.journal_dir, ec);
  if (ec) {
    shard.error = "cannot create journal dir " + opts.journal_dir;
    return shard;
  }
  const std::string journal_path = JournalPath(opts);
  {
    // Seed the journal: fresh runs start from scratch; resume keeps done
    // rows (their results are already durable in cache + worker reports)
    // and re-pends everything else.
    FileLock lock(journal_path);
    Journal journal;
    if (opts.resume) {
      journal = LoadJournalLocked(journal_path);
      for (auto it = journal.begin(); it != journal.end();) {
        if (it->second.state != "done") {
          it = journal.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      for (const auto& entry :
           std::filesystem::directory_iterator(opts.journal_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name == "leases.csv" || StartsWith(name, "worker_") ||
            StartsWith(name, "merged.")) {
          std::filesystem::remove(entry.path(), ec);
        }
      }
    }
    for (const auto& cell : cells) {
      if (journal.find(cell.id) == journal.end()) {
        journal[cell.id] = LeaseRow{};
      }
    }
    const Status st = StoreJournalLocked(journal_path, journal);
    if (!st.ok()) {
      shard.error = "cannot write claim journal: " + st.ToString();
      return shard;
    }
  }

  struct LiveWorker {
    pid_t pid;
    int worker_id;
  };
  std::vector<LiveWorker> live;
  std::vector<int> all_worker_ids;
  int next_worker_id = 0;
  int respawns_left = opts.max_respawns;
  const auto spawn = [&](bool respawn) {
    const int id = next_worker_id++;
    const pid_t pid = SpawnWorker(cells, opts, id, worker_env);
    if (pid < 0) {
      SEMTAG_LOG(kError, "cannot fork worker %d", id);
      return false;
    }
    live.push_back({pid, id});
    all_worker_ids.push_back(id);
    ++shard.workers_spawned;
    if (respawn) {
      SEMTAG_LOG(kWarning, "respawned worker %d (%d respawns left)", id,
                 respawns_left);
    }
    return true;
  };
  for (int i = 0; i < opts.num_workers; ++i) {
    if (!spawn(false)) break;
  }
  if (live.empty()) {
    shard.error = "could not spawn any worker";
    return shard;
  }

  // Graceful interrupt: a SIGINT/SIGTERM to the coordinator used to kill
  // it outright, orphaning the worker processes mid-cell. The shared
  // self-pipe helper (common/signal.h, also the serve daemon's drain
  // trigger) turns it into a clean stop: break out, SIGTERM the workers,
  // and merge whatever the journal holds. Exec'd workers reset to default
  // handlers, so they still die promptly on the coordinator's SIGTERM.
  ShutdownSignal& shutdown = ShutdownSignal::Install();
  bool complete = false;
  for (;;) {
    if (shutdown.requested()) {
      shard.error =
          StrFormat("interrupted by signal %d", shutdown.signal());
      SEMTAG_LOG(kWarning, "coordinator %s; terminating %zu workers",
                 shard.error.c_str(), live.size());
      break;
    }
    // Reap exits without blocking; a worker that died by signal or
    // non-zero status counts as abnormal (its leases expire and get
    // reclaimed — nothing to clean up here).
    for (size_t i = 0; i < live.size();) {
      int wstatus = 0;
      const pid_t r = ::waitpid(live[i].pid, &wstatus, WNOHANG);
      if (r == 0) {
        ++i;
        continue;
      }
      const bool abnormal =
          r < 0 || WIFSIGNALED(wstatus) ||
          (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0);
      if (abnormal) {
        ++shard.workers_died;
        SEMTAG_LOG(kWarning, "worker %d (pid %d) died: %s", live[i].worker_id,
                   static_cast<int>(live[i].pid),
                   WIFSIGNALED(wstatus)
                       ? StrFormat("signal %d", WTERMSIG(wstatus)).c_str()
                       : StrFormat("exit %d",
                                   WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                                      : -1)
                             .c_str());
      }
      live.erase(live.begin() + i);
    }
    {
      FileLock lock = FileLock::TryLock(journal_path, 50);
      if (lock.held()) {
        const Journal journal = LoadJournalLocked(journal_path);
        complete = JournalComplete(journal, cells.size());
      }
    }
    if (complete) break;
    while (static_cast<int>(live.size()) < opts.num_workers &&
           respawns_left > 0) {
      --respawns_left;
      if (!spawn(true)) break;
    }
    if (live.empty()) {
      // Every worker is dead and the respawn budget is gone: close out the
      // journal ourselves so the report accounts for every cell.
      FileLock lock(journal_path);
      Journal journal = LoadJournalLocked(journal_path);
      for (auto& [id, row] : journal) {
        if (row.state != "done") {
          row.state = "done";
          row.outcome = "exhausted";
          ++shard.exhausted;
        }
      }
      (void)StoreJournalLocked(journal_path, journal);
      shard.error = "all workers dead and respawn budget exhausted";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Drain remaining children. The journal is complete (or the sweep was
  // abandoned), so anything still alive is either asleep in claim backoff
  // or grinding a cell it already lost — terminate rather than waiting out
  // those sleeps. Safe because every won cell's report row and metrics
  // snapshot hit disk BEFORE its done-mark.
  for (const auto& w : live) (void)::kill(w.pid, SIGTERM);
  for (const auto& w : live) {
    int wstatus = 0;
    (void)::waitpid(w.pid, &wstatus, 0);
  }

  // ---- merge ----
  Journal journal;
  {
    FileLock lock(journal_path);
    journal = LoadJournalLocked(journal_path);
  }
  // Per-worker win counts come from the journal (who marked each cell
  // done), not from report row counts: a terminated race loser can leave a
  // stale row behind, and the journal is the single source of truth for
  // "counted exactly once".
  std::map<int, int> journal_wins;
  for (const auto& [cell_id, row] : journal) {
    if (row.state == "done" && row.outcome != "exhausted") {
      ++journal_wins[row.worker];
    }
  }
  std::map<int, WorkerReport> reports;
  const std::string expected_config = config.Describe();
  for (int id : all_worker_ids) {
    auto content = ReadFileToString(WorkerReportPath(opts, id));
    if (!content.ok()) continue;  // died before winning any cell
    WorkerReport report;
    if (!ParseWorkerReport(*content, &report)) {
      SEMTAG_LOG(kWarning, "worker %d report unreadable; its cells fall "
                 "back to the result cache", id);
      continue;
    }
    if (report.config != expected_config) {
      SEMTAG_LOG(kError,
                 "worker %d ran a DIFFERENT execution config\n  coordinator:"
                 " %s\n  worker:      %s\nrefusing to merge mixed-config "
                 "results",
                 id, expected_config.c_str(), report.config.c_str());
      shard.config_mismatch = true;
    }
    WorkerSummary summary;
    summary.worker_id = id;
    const auto wins = journal_wins.find(id);
    summary.cells = wins == journal_wins.end() ? 0 : wins->second;
    summary.reclaims = report.reclaims;
    summary.busy_seconds = report.busy_seconds;
    summary.config = report.config;
    shard.workers.push_back(summary);
    reports[id] = std::move(report);
  }
  if (shard.config_mismatch) {
    shard.error = "mixed-config worker reports";
    return shard;
  }

  // Cell-by-cell, grid order. The journal's done row names the worker that
  // won the cell; that worker's full-precision report row is the result.
  ExperimentRunner cache_reader(opts.use_cache);
  shard.report.results.reserve(cells.size());
  for (const auto& cell : cells) {
    auto it = journal.find(cell.id);
    ExperimentResult result;
    result.dataset = cell.spec.name;
    result.model = models::ModelKindName(cell.kind);
    if (it == journal.end() || it->second.state != "done") {
      result.outcome = CellOutcome::kFailed;
      result.error = "cell missing from claim journal";
      ++shard.exhausted;
    } else if (it->second.outcome == "exhausted") {
      result.outcome = CellOutcome::kFailed;
      result.error = StrFormat("retry budget exhausted after %d lease grants",
                               it->second.attempts);
      ++shard.exhausted;
    } else {
      bool found = false;
      const auto rit = reports.find(it->second.worker);
      if (rit != reports.end()) {
        for (const auto& row : rit->second.rows) {
          if (row.cell_id == cell.id) {
            result = row.result;
            found = true;
            break;
          }
        }
      }
      if (!found) {
        // Resume path (reports from a previous coordinator run were
        // cleared) or a lost report file: the result cache still has the
        // completed cell; failed/timed-out cells are never cached and are
        // reconstructed from the journal outcome alone.
        CellOutcome outcome = CellOutcome::kFailed;
        (void)OutcomeFromName(it->second.outcome, &outcome);
        if (outcome == CellOutcome::kFailed ||
            outcome == CellOutcome::kTimedOut) {
          result.outcome = outcome;
          result.error = "recorded by a lost worker report";
        } else {
          result = cache_reader.Run(cell.spec, cell.kind, opts.seed);
        }
      }
    }
    if (it != journal.end() && it->second.attempts > 1) {
      shard.leases_reclaimed += it->second.attempts - 1;
    }
    shard.report.results.push_back(std::move(result));
  }
  TallyOutcomes(&shard.report);
  shard.wall_seconds = wall.ElapsedSeconds();

  // Cross-process metrics: merge every worker snapshot with the
  // coordinator's own registry (sweep-level counters + wall gauge) into
  // one semtag-metrics-v1 document.
  if (obs::MetricsEnabled()) {
    obs::GetCounter("shard/workers_spawned").Add(shard.workers_spawned);
    obs::GetCounter("shard/workers_died").Add(shard.workers_died);
    obs::GetCounter("shard/leases_reclaimed_total")
        .Add(shard.leases_reclaimed);
    obs::GetGauge("shard/wall_ms").Add(shard.wall_seconds * 1e3);
    obs::GetGauge("shard/workers").Set(opts.num_workers);
    std::vector<std::string> snapshots;
    snapshots.push_back(obs::MetricsToJson(obs::SnapshotMetrics()));
    for (int id : all_worker_ids) {
      const std::string path = WorkerMetricsPath(opts, id);
      if (!std::filesystem::exists(path)) continue;
      auto content = ReadFileToString(path);
      if (content.ok()) snapshots.push_back(*std::move(content));
    }
    const obs::MergeOutcome merged = obs::MergeMetricsJson(snapshots);
    if (merged.ok) {
      (void)WriteFileAtomic(opts.journal_dir + "/merged.metrics.json",
                            obs::MetricsToJson(merged.merged));
    } else {
      SEMTAG_LOG(kWarning, "cannot merge worker metrics: %s",
                 merged.error.c_str());
    }
  }
  return shard;
#endif  // __unix__
}

std::string CanonicalReportCsv(const std::vector<GridCell>& cells,
                               const RunReport& report) {
  SEMTAG_CHECK(cells.size() == report.results.size());
  CsvWriter writer;
  for (size_t i = 0; i < cells.size(); ++i) {
    const ExperimentResult& r = report.results[i];
    writer.AddRow({cells[i].id, r.dataset, r.model, G17(r.f1),
                   G17(r.precision), G17(r.recall), G17(r.accuracy),
                   G17(r.auc), G17(r.calibrated_f1),
                   std::to_string(r.train_size),
                   std::to_string(r.test_size)});
  }
  return writer.ToString();
}

}  // namespace semtag::core
