#include "core/experiment.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/cascade.h"
#include "eval/calibration.h"
#include "eval/metrics.h"
#include "models/deep/bert_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::core {

namespace {

/// Version stamp folded into every cache key; bump to invalidate all
/// previously cached results after a change to training internals that the
/// config hash cannot see.
constexpr uint64_t kRunnerVersion = 3;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

uint64_t HashDouble(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t HashGeneratorConfig(const data::GeneratorConfig& g) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = FnvMix(h, static_cast<uint64_t>(g.bg_vocab));
  h = FnvMix(h, static_cast<uint64_t>(g.avg_len));
  h = FnvMix(h, HashDouble(g.stopword_prob));
  h = FnvMix(h, HashDouble(g.topic_prob));
  h = FnvMix(h, HashDouble(g.signal_strength));
  h = FnvMix(h, HashDouble(g.signal_leak));
  h = FnvMix(h, HashDouble(g.topic_purity));
  h = FnvMix(h, HashDouble(g.conjunction));
  h = FnvMix(h, static_cast<uint64_t>(g.signal_topic));
  h = FnvMix(h, static_cast<uint64_t>(g.negative_signal_topic + 1));
  for (int t : g.positive_topics) h = FnvMix(h, static_cast<uint64_t>(t));
  for (int t : g.negative_topics) h = FnvMix(h, static_cast<uint64_t>(t));
  h = FnvMix(h, HashDouble(g.entity_signal));
  h = FnvMix(h, HashDouble(g.entity_rate));
  h = FnvMix(h, static_cast<uint64_t>(g.entity_pool_size));
  h = FnvMix(h, HashDouble(g.neg_contamination));
  h = FnvMix(h, HashDouble(g.pos_contamination));
  h = FnvMix(h, g.seed);
  return h;
}

bool CellOutcomeFromName(std::string_view name, CellOutcome* out) {
  if (name == "ok") *out = CellOutcome::kOk;
  else if (name == "cached") *out = CellOutcome::kCached;
  else if (name == "retried") *out = CellOutcome::kRetried;
  else if (name == "timed_out") *out = CellOutcome::kTimedOut;
  else if (name == "failed") *out = CellOutcome::kFailed;
  else return false;
  return true;
}

/// Footer line prefix of the result cache: "#crc32,<8 hex digits>\n" over
/// every byte that precedes it.
constexpr char kCrcFooterPrefix[] = "#crc32,";

struct ParsedCache {
  std::map<std::string, ExperimentResult> entries;
  int malformed = 0;
  bool crc_mismatch = false;
};

/// Parses result-cache content. Verifies the CRC footer when present
/// (legacy footer-less files are accepted whole); skips '#'-comment rows
/// and counts rows that fail strict field validation instead of importing
/// garbage numbers into the study.
ParsedCache ParseCacheContent(const std::string& content) {
  ParsedCache parsed;
  std::string payload = content;
  const size_t footer = payload.rfind(kCrcFooterPrefix);
  if (footer != std::string::npos &&
      (footer == 0 || payload[footer - 1] == '\n')) {
    const std::string footer_line = payload.substr(footer);
    payload.resize(footer);
    uint32_t stored = 0;
    if (sscanf(footer_line.c_str(), "#crc32,%8" SCNx32, &stored) != 1 ||
        stored != Crc32(payload)) {
      parsed.crc_mismatch = true;
      return parsed;
    }
  }
  auto rows = ParseCsv(payload);
  if (!rows.ok()) {
    parsed.malformed = 1;
    return parsed;
  }
  for (const auto& row : *rows) {
    if (!row.empty() && !row[0].empty() && row[0][0] == '#') continue;
    // 12 columns = legacy pre-outcome rows; 13 = current format.
    if (row.size() != 12 && row.size() != 13) {
      ++parsed.malformed;
      continue;
    }
    ExperimentResult r;
    const std::string& key = row[0];
    r.dataset = row[1];
    r.model = row[2];
    int64_t train_size = 0;
    int64_t test_size = 0;
    const bool fields_ok =
        !key.empty() && ParseDouble(row[3], &r.f1) &&
        ParseDouble(row[4], &r.precision) && ParseDouble(row[5], &r.recall) &&
        ParseDouble(row[6], &r.accuracy) && ParseDouble(row[7], &r.auc) &&
        ParseDouble(row[8], &r.calibrated_f1) &&
        ParseDouble(row[9], &r.train_seconds) &&
        ParseInt64(row[10], &train_size) && ParseInt64(row[11], &test_size) &&
        (row.size() == 12 || CellOutcomeFromName(row[12], &r.outcome));
    if (!fields_ok) {
      ++parsed.malformed;
      continue;
    }
    r.train_size = train_size;
    r.test_size = test_size;
    parsed.entries[key] = std::move(r);
  }
  return parsed;
}

/// %.17g round-trips every double exactly, so a cache replay is
/// bit-identical to the run that produced it: a resumed grid's report
/// matches an uninterrupted one.
std::string G17(double v) { return StrFormat("%.17g", v); }

std::string SerializeCache(
    const std::map<std::string, ExperimentResult>& entries) {
  CsvWriter writer;
  for (const auto& [k, r] : entries) {
    writer.AddRow({k, r.dataset, r.model, G17(r.f1), G17(r.precision),
                   G17(r.recall), G17(r.accuracy), G17(r.auc),
                   G17(r.calibrated_f1),
                   StrFormat("%.4f", r.train_seconds),
                   std::to_string(r.train_size),
                   std::to_string(r.test_size),
                   CellOutcomeName(r.outcome)});
  }
  std::string payload = writer.ToString();
  return payload + StrFormat("%s%08x\n", kCrcFooterPrefix, Crc32(payload));
}

/// Recomputes the outcome counts of `report` from its `results`.
void TallyOutcomes(RunReport* report) {
  for (const auto& r : report->results) {
    switch (r.outcome) {
      case CellOutcome::kOk: ++report->ok; break;
      case CellOutcome::kCached: ++report->cached; break;
      case CellOutcome::kRetried: ++report->retried; break;
      case CellOutcome::kTimedOut: ++report->timed_out; break;
      case CellOutcome::kFailed: ++report->failed; break;
    }
  }
}

}  // namespace

std::vector<GridCell> EnumerateGrid(
    const std::vector<data::DatasetSpec>& specs,
    const std::vector<models::ModelKind>& kinds) {
  // Run-order rank of a model family: simple counting/linear models
  // are orders of magnitude cheaper per cell than fine-tuned transformers,
  // so they go first.
  const auto rank = [](models::ModelKind kind) {
    if (models::IsDeep(kind)) return 2;
    // The cascade and the embedding hybrids sit between the counting
    // models and the transformers: they may train a deep tier, but only
    // on a fit split and only when the policy keeps it.
    if (kind == models::ModelKind::kLrEmbedding ||
        kind == models::ModelKind::kSvmEmbedding ||
        kind == models::ModelKind::kCascade) {
      return 1;
    }
    return 0;
  };
  std::vector<models::ModelKind> ordered = kinds;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](models::ModelKind a, models::ModelKind b) {
                     return rank(a) < rank(b);
                   });
  std::vector<GridCell> cells;
  cells.reserve(specs.size() * ordered.size());
  std::set<std::string> seen;
  for (models::ModelKind kind : ordered) {
    for (const auto& spec : specs) {
      GridCell cell;
      cell.spec = spec;
      cell.kind = kind;
      cell.id = spec.name + "/" + models::ModelKindName(kind);
      SEMTAG_CHECK(seen.insert(cell.id).second);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

const char* CellOutcomeName(CellOutcome outcome) {
  switch (outcome) {
    case CellOutcome::kOk: return "ok";
    case CellOutcome::kCached: return "cached";
    case CellOutcome::kRetried: return "retried";
    case CellOutcome::kTimedOut: return "timed_out";
    case CellOutcome::kFailed: return "failed";
  }
  return "unknown";
}

std::string ExperimentCacheKey(const data::DatasetSpec& spec,
                               models::ModelKind kind, uint64_t seed) {
  uint64_t h = HashGeneratorConfig(spec.generator);
  h = FnvMix(h, static_cast<uint64_t>(spec.scaled_records));
  h = FnvMix(h, HashDouble(spec.paper_positive));
  h = FnvMix(h, HashDouble(spec.train_fraction));
  h = FnvMix(h, kRunnerVersion);
  return StrFormat("%s|%s|s%" PRIu64 "|%016" PRIx64, spec.name.c_str(),
                   models::ModelKindName(kind), seed, h);
}

std::string SpecConfigDigest(const data::DatasetSpec& spec) {
  uint64_t h = HashGeneratorConfig(spec.generator);
  h = FnvMix(h, static_cast<uint64_t>(spec.scaled_records));
  h = FnvMix(h, HashDouble(spec.paper_positive));
  return StrFormat("%08x", static_cast<unsigned>(h & 0xffffffffu));
}

ExperimentResult TrainAndEvaluate(const data::Dataset& train,
                                  const data::Dataset& test,
                                  models::ModelKind kind, uint64_t seed,
                                  CancellationToken cancel) {
  const std::string cell =
      train.name() + "/" + models::ModelKindName(kind);
  // One span per experiment cell, named by the cell and tagged with its
  // CellOutcome: a RunMany sweep renders in Perfetto as one track of cell
  // spans per worker, each labeled ok/retried/timed_out/failed.
  obs::TraceSpan cell_span(cell.c_str());
  auto note_cell = [&cell_span](const ExperimentResult& r) {
    cell_span.SetTag(CellOutcomeName(r.outcome));
    if (!obs::MetricsEnabled()) return;
    obs::GetCounter(std::string("cell/outcome/") + CellOutcomeName(r.outcome))
        .Add(1);
    obs::GetHistogram("cell/train_ms", obs::LatencyBucketsMs())
        .ObserveAlways(r.train_seconds * 1e3);
  };
  ExperimentResult result;
  result.dataset = train.name();
  result.model = models::ModelKindName(kind);
  result.train_size = static_cast<int64_t>(train.size());
  result.test_size = static_cast<int64_t>(test.size());

  // Injectable stall before training: under a cell deadline the token
  // expires while we sleep, and the cooperative checks in Train() turn the
  // stall into a clean kTimedOut instead of a hung sweep. The crash probe
  // simulates a kill -9 at a cell boundary (resume-journal tests).
  FaultInjected(FaultPoint::kStall, cell);
  FaultInjected(FaultPoint::kCrash, cell);

  // A grid CASCADE cell runs the default options: the auto policy.
  std::unique_ptr<models::TaggingModel> model;
  if (kind == models::ModelKind::kCascade) {
    model = std::make_unique<Cascade>(CascadeOptions{.seed = seed});
  } else {
    model = models::CreateModelSeeded(kind, seed);
  }
  SEMTAG_CHECK(model != nullptr);
  model->set_cancellation(cancel);
  const Status st = model->Train(train);
  result.train_seconds = model->train_seconds();
  result.retries = model->train_retries();
  if (!st.ok()) {
    result.error = st.ToString();
    result.outcome = (st.code() == StatusCode::kDeadlineExceeded ||
                      st.code() == StatusCode::kCancelled)
                         ? CellOutcome::kTimedOut
                         : CellOutcome::kFailed;
    SEMTAG_LOG(kError, "cell %s %s: %s", cell.c_str(),
               CellOutcomeName(result.outcome), result.error.c_str());
    note_cell(result);
    return result;
  }

  const auto texts = test.Texts();
  const auto labels = test.Labels();
  const std::vector<double> scores = model->ScoreAll(texts);
  const std::vector<int> predictions =
      eval::ThresholdScores(scores, model->DecisionThreshold());
  const eval::Confusion confusion =
      eval::ComputeConfusion(labels, predictions);
  result.f1 = confusion.F1();
  result.precision = confusion.Precision();
  result.recall = confusion.Recall();
  result.accuracy = confusion.Accuracy();
  result.auc = eval::Auc(labels, scores);
  result.calibrated_f1 = eval::CalibrateMaxF1(labels, scores).best_f1;
  const bool finite = std::isfinite(result.f1) &&
                      std::isfinite(result.precision) &&
                      std::isfinite(result.recall) &&
                      std::isfinite(result.accuracy) &&
                      std::isfinite(result.auc) &&
                      std::isfinite(result.calibrated_f1);
  if (!finite) {
    result = ExperimentResult();
    result.dataset = train.name();
    result.model = models::ModelKindName(kind);
    result.train_size = static_cast<int64_t>(train.size());
    result.test_size = static_cast<int64_t>(test.size());
    result.error = "non-finite metrics";
    result.outcome = CellOutcome::kFailed;
    SEMTAG_LOG(kError, "cell %s produced non-finite metrics; discarded",
               cell.c_str());
    note_cell(result);
    return result;
  }
  result.outcome =
      result.retries > 0 ? CellOutcome::kRetried : CellOutcome::kOk;
  note_cell(result);
  return result;
}

ExperimentRunner::ExperimentRunner(bool use_cache) : use_cache_(use_cache) {
  if (use_cache_) {
    cache_path_ = models::CacheDir() + "/results.csv";
    LoadCacheFile();
  }
}

void ExperimentRunner::LoadCacheFile() {
  auto read = ReadFileToString(cache_path_);
  if (!read.ok()) return;  // first run: no cache yet
  std::string content = *std::move(read);
  if (FaultInjected(FaultPoint::kReadCorrupt, cache_path_) &&
      !content.empty()) {
    content[content.size() / 2] ^= 0x40;
  }
  ParsedCache parsed = ParseCacheContent(content);
  if (parsed.crc_mismatch) {
    (void)QuarantineFile(cache_path_, "result cache CRC mismatch");
    return;
  }
  if (parsed.malformed > 0) {
    SEMTAG_LOG(kWarning, "result cache %s: skipped %d malformed row(s)",
               cache_path_.c_str(), parsed.malformed);
  }
  cache_ = std::move(parsed.entries);
}

bool ExperimentRunner::Lookup(const std::string& key,
                              ExperimentResult* result) const {
  if (!use_cache_) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    SEMTAG_OBS_COUNT("result_cache/misses", 1);
    return false;
  }
  SEMTAG_OBS_COUNT("result_cache/hits", 1);
  *result = it->second;
  return true;
}

void ExperimentRunner::Store(const std::string& key,
                             const ExperimentResult& result) {
  if (!use_cache_) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_[key] = result;
  // Read-merge-rewrite under an advisory file lock, so concurrent bench
  // binaries union their cells instead of the last writer erasing the
  // other's results. Rows we hold in memory are at least as fresh as the
  // file's, so ours win on key collisions.
  FileLock file_lock(cache_path_);
  auto disk = ReadFileToString(cache_path_);
  if (disk.ok()) {
    ParsedCache parsed = ParseCacheContent(*disk);
    if (!parsed.crc_mismatch) {
      for (auto& [k, r] : parsed.entries) {
        cache_.emplace(k, std::move(r));
      }
    }
  }
  const Status st = WriteFileAtomic(cache_path_, SerializeCache(cache_));
  if (!st.ok()) {
    SEMTAG_LOG(kWarning, "cannot persist result cache: %s",
               st.ToString().c_str());
  }
}

ExperimentResult ExperimentRunner::Run(const data::DatasetSpec& spec,
                                       models::ModelKind kind,
                                       uint64_t seed) {
  const std::string key = ExperimentCacheKey(spec, kind, seed);
  ExperimentResult result;
  if (Lookup(key, &result)) {
    result.outcome = CellOutcome::kCached;
    return result;
  }
  data::Dataset dataset = data::BuildDataset(spec);
  Rng shuffle_rng(spec.generator.seed ^ (seed * 0x9e3779b9ULL));
  dataset.Shuffle(&shuffle_rng);
  auto [train, test] = dataset.Split(spec.train_fraction);
  train.set_name(spec.name);
  result = TrainAndEvaluate(train, test, kind, seed, MakeCellToken());
  // Only completed cells enter the cache/journal; timed-out and failed
  // cells stay uncached so the next run retries them.
  if (result.outcome == CellOutcome::kOk ||
      result.outcome == CellOutcome::kRetried) {
    Store(key, result);
  }
  return result;
}

ExperimentResult ExperimentRunner::RunOn(const std::string& cache_key,
                                         const data::Dataset& train,
                                         const data::Dataset& test,
                                         models::ModelKind kind,
                                         uint64_t seed) {
  const std::string key =
      StrFormat("%s|%s|s%" PRIu64 "|v%" PRIu64, cache_key.c_str(),
                models::ModelKindName(kind), seed, kRunnerVersion);
  ExperimentResult result;
  if (Lookup(key, &result)) {
    result.outcome = CellOutcome::kCached;
    return result;
  }
  result = TrainAndEvaluate(train, test, kind, seed, MakeCellToken());
  if (result.outcome == CellOutcome::kOk ||
      result.outcome == CellOutcome::kRetried) {
    Store(key, result);
  }
  return result;
}

RunReport ExperimentRunner::RunMany(const std::vector<GridCell>& cells) {
  obs::TraceSpan sweep_span("runner/RunMany");
  RunReport report;
  report.results.resize(cells.size());
  // Each cell is fully self-contained (dataset generation, split, seeded
  // model), so cells parallelise across the pool; results land at their
  // cell's index and the returned order matches the sequential path
  // exactly. Grain 1: a thread claims one cell at a time, so the long
  // deep cells spread over whichever threads are free. A cell that fails
  // or times out is recorded and the sweep continues.
  ParallelFor(0, cells.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      report.results[i] = Run(cells[i].spec, cells[i].kind);
    }
  });
  TallyOutcomes(&report);
  if (!report.all_ok()) {
    SEMTAG_LOG(kWarning,
               "grid sweep: %d ok, %d cached, %d retried, %d timed out, "
               "%d failed (failed/timed-out cells stay uncached and will "
               "retry on the next run)",
               report.ok, report.cached, report.retried, report.timed_out,
               report.failed);
  }
  return report;
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
