// perfbench: the measuring program behind perfbench/run.py, the
// repository benchmark. One invocation runs one workload and prints, as
// its last stdout line, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload serve_cascade|serve_deep --seed N --seconds S
//             --trace 0|1 --daemon PATH --work DIR
//   perfbench --warm                # pretrain the BERT backbone once
//   perfbench --self-test           # check the result-line checker
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   serve_cascade  semtag_serve with the SVM+CNN cascade on SUGG@2000 at
//                  the default 0.5-pt budget (a live deep tier: ~8% of
//                  requests escalate). Per-request overhead dominates.
//   serve_deep     semtag_serve with always-deep mini-BERT on the same spec
//                  and request pool. The deep forward pass dominates.
// Each run drives the daemon from this single-threaded client: a closed
// loop (one connection, fixed in-flight window), then an open loop at a
// fixed rate.
//
// Untraced runs (--trace 0) print the end-to-end metrics:
//   setup_s         daemon fork to its "listening" line (dataset, train,
//                   calibrate), median of 5 spawns.
//   latency_p50_us  open loop, each request timed from its due time.
//   f1              verified responses against the pool's labels.
//   peak_rss_mb     daemon VmHWM before the drain.
// Closed-loop throughput and daemon CPU per request are printed in every
// run but reported as per-layer metrics: on a shared 4-vCPU host they
// moved by a quarter between runs of the same code, more than any bound
// a regression gate can use.
// Traced runs (--trace 1) serve once untraced, then with the daemon's
// metrics registry and trace spans armed, and print the per-layer metrics
// plus the tracing overhead. Daemon counters are the traced serving daemon
// minus an idle one that only trained. In-process timings of the layers a
// request passes through follow, over the run's own pool; serve_deep's
// traced run also trains and evaluates the study grid (five families on
// one spec per Table-5 cell). A per-layer metric of a layer the workload
// does not exercise reads 0. run.py pins one pool thread
// (SEMTAG_NUM_THREADS=1) for the daemon and this process.
//
// Every served response is checked: it must parse, carry its own ticket
// and model version 1, and equal an in-process ScoreAll of the same model
// spec bit for bit. Any mismatch, shed or failed request, escalation-free
// cascade, or daemon that had to pretrain its backbone fails the run.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/cascade.h"
#include "core/experiment.h"
#include "data/drift.h"
#include "data/specs.h"
#include "load.h"
#include "models/deep/bert_cache.h"
#include "models/factory.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/traffic_stats.h"
#include "text/bow_vectorizer.h"
#include "text/tokenizer.h"

namespace semtag::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed settings. Changing any of them changes what the benchmark measures.
// ---------------------------------------------------------------------------

// Served model: the SUGG cell where the calibrated cascade keeps a live
// deep tier (HETER@300 with SVM+LSTM calibrates to threshold -1 and never
// escalates).
constexpr char kServeDataset[] = "SUGG";
constexpr int kServeRecords = 2000;
constexpr int kServeTrainSeed = 1;
// Labelled held-out requests, drawn from the SUGG generator at the run's
// seed (a clean drift segment re-draws the training distribution).
constexpr int kPoolSize = 4096;
// Closed loop: one connection, a window well above the batch cap, so the
// batcher always has full batches waiting.
constexpr int kWindow = 256;
constexpr int kSetupSpawns = 5;
constexpr double kWarmupSeconds = 0.5;
// The closed loop gets this share of --seconds, the open loop the rest.
// Closed-loop throughput and CPU cost are read per slice and reported as
// medians, so a burst of interference from the shared host moves them
// little.
constexpr double kClosedShare = 0.5;
constexpr double kSliceSeconds = 0.5;
// Open-loop arrival rates (requests/s): fixed, so the parent and a change
// receive the same load. Each sits well below the workload's closed-loop
// capacity on a 4-core host, so the queue stays bounded.
constexpr double kCascadeOpenRate = 8000.0;
constexpr double kDeepOpenRate = 1000.0;

// The study grid timed in serve_deep's traced run: one spec per Table-5
// taxonomy cell, scaled to kGridRecords with an even train/test split.
constexpr int kGridRecords = 1600;
constexpr double kGridTrainFraction = 0.5;
const char* const kGridSpecs[] = {"YELP", "TV", "SUGG", "FUNNY"};
const models::ModelKind kGridFamilies[] = {
    models::ModelKind::kLr, models::ModelKind::kSvm, models::ModelKind::kCnn,
    models::ModelKind::kLstm, models::ModelKind::kBert};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool warm = false;
  bool self_test = false;
  std::string daemon;
  std::string work;
};

// ---------------------------------------------------------------------------
// Result reporting
// ---------------------------------------------------------------------------

/// (name, unit) pairs; run.py checks them against BENCHMARK.json.
using MetricNames = std::vector<std::pair<std::string, std::string>>;

/// End-to-end metrics, in BENCHMARK.json order.
const MetricNames& EndToEndNames() {
  static const auto* names = new MetricNames{
      {"setup_s", "s"},
      {"latency_p50_us", "us"},
      {"f1", "F1"},
      {"peak_rss_mb", "MB"}};
  return *names;
}

/// Per-layer metrics, in BENCHMARK.json order.
const MetricNames& PerLayerNames() {
  static const auto* names = new MetricNames{
      {"serve.closed_qps", "1/s"},
      {"serve.daemon_cpu_us_per_req", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.batch_score_us_mean", "us"},
      {"serve.wait_plus_score_us_mean", "us"},
      {"serve.server_latency_us_mean", "us"},
      {"serve.protocol_ns_per_req", "ns"},
      {"serve.traffic_record_ns_per_req", "ns"},
      {"serve.shed", "count"},
      {"serve.failed", "count"},
      {"cascade.escalated_frac", "fraction"},
      {"cascade.simple_pass_us_mean", "us"},
      {"cascade.deep_pass_us_mean", "us"},
      {"text.tokenize_ns_per_text", "ns"},
      {"text.bow_transform_ns_per_text", "ns"},
      {"deep.us_per_text_b32", "us"},
      {"deep.us_per_text_b1", "us"},
      {"train_s.lr", "s"},
      {"train_s.svm", "s"},
      {"train_s.cnn", "s"},
      {"train_s.lstm", "s"},
      {"train_s.bert", "s"},
      {"eval.score_s.lr", "s"},
      {"eval.score_s.svm", "s"},
      {"eval.score_s.cnn", "s"},
      {"eval.score_s.lstm", "s"},
      {"eval.score_s.bert", "s"},
      {"la.gemm_calls_per_req", "count"},
      {"la.gemm_gflop_per_s", "GFLOP/s"},
      {"la.buffer_pool_system_allocs", "count"},
      {"data.build_s", "s"},
      {"host.cpu_probe_ms", "ms"},
      {"trace.overhead_frac", "fraction"}};
  return *names;
}

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The result line. Metrics come from `names`; a name never Set reads 0
  /// (the workload does not exercise that layer).
  std::string Json(const MetricNames& names) const {
    std::string out = StrFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct_ ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < names.size(); ++i) {
      const auto it = values_.find(names[i].first);
      const double v = it == values_.end() ? 0.0 : it->second;
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", names[i].first.c_str(),
                       std::isfinite(v) ? v : 0.0, names[i].second.c_str());
    }
    return out + "}}";
  }

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

/// Parses the result line back with the repository's own JSON parser and
/// checks its shape, so a malformed line never leaves this process.
bool ResultLineParses(const std::string& line, const MetricNames& names,
                      std::string* error) {
  obs::JsonValue root;
  if (!obs::ParseJson(line, &root, error)) return false;
  const obs::JsonValue* correct = root.Find("correct");
  const obs::JsonValue* attempted = root.Find("attempted");
  const obs::JsonValue* failed = root.Find("failed");
  const obs::JsonValue* metrics = root.Find("metrics");
  if (root.object.size() != 4 || correct == nullptr ||
      correct->kind != obs::JsonValue::Kind::kBool || attempted == nullptr ||
      !attempted->is_number() || attempted->number < 1 || failed == nullptr ||
      !failed->is_number() || metrics == nullptr || !metrics->is_object() ||
      metrics->object.size() != names.size()) {
    *error = "result line has the wrong shape";
    return false;
  }
  for (const auto& [name, unit] : names) {
    const obs::JsonValue* m = metrics->Find(name);
    const obs::JsonValue* value = m == nullptr ? nullptr : m->Find("value");
    const obs::JsonValue* u = m == nullptr ? nullptr : m->Find("unit");
    if (value == nullptr || !value->is_number() || u == nullptr ||
        u->string_value != unit) {
      *error = "metric " + name + " is missing or malformed";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Small measurement helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// A fixed integer loop: marks host speed drift between runs.
double CpuProbeMs() {
  WallTimer timer;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  const double ms = timer.ElapsedSeconds() * 1e3;
  if (x == 42) std::printf("%llu\n", static_cast<unsigned long long>(x));
  return ms;
}

/// Runs `body` over `items` repeatedly for at least `min_s` seconds and
/// returns nanoseconds per item.
template <typename Body>
double NsPerItem(size_t items, double min_s, const Body& body) {
  WallTimer timer;
  size_t done = 0;
  do {
    body();
    done += items;
  } while (timer.ElapsedSeconds() < min_s);
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(done);
}

bool FileContains(const std::string& path, const std::string& needle) {
  const auto content = ReadFileToString(path);
  return content.ok() && content->find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Daemon metrics exports (semtag-metrics-v1)
// ---------------------------------------------------------------------------

/// Counters, gauges, and histogram count/sum of one export, flattened.
struct Snapshot {
  std::map<std::string, double> values;
  double Get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
  /// Sum of every value whose key starts with `prefix`.
  double SumPrefix(const std::string& prefix) const {
    double total = 0.0;
    for (auto it = values.lower_bound(prefix);
         it != values.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      total += it->second;
    }
    return total;
  }
};

bool LoadSnapshot(const std::string& path, Snapshot* out, std::string* error) {
  const obs::ValidationResult valid = obs::ValidateMetricsFile(path);
  if (!valid.ok) {
    *error = path + ": " + valid.error;
    return false;
  }
  const auto content = ReadFileToString(path);
  obs::JsonValue root;
  if (!content.ok() || !obs::ParseJson(*content, &root, error)) return false;
  for (const char* section : {"counters", "gauges"}) {
    if (const obs::JsonValue* s = root.Find(section); s != nullptr) {
      for (const auto& [name, v] : s->object) out->values[name] = v.number;
    }
  }
  if (const obs::JsonValue* h = root.Find("histograms"); h != nullptr) {
    for (const auto& [name, v] : h->object) {
      if (const obs::JsonValue* c = v.Find("count")) {
        out->values[name + "#count"] = c->number;
      }
      if (const obs::JsonValue* s = v.Find("sum")) {
        out->values[name + "#sum"] = s->number;
      }
    }
  }
  return true;
}

/// Mean of a histogram over the serving window: (sum, count) of the
/// serving daemon minus those of the idle daemon that only trained.
double WindowMean(const Snapshot& serving, const Snapshot& idle,
                  const std::string& name) {
  const double count =
      serving.Get(name + "#count") - idle.Get(name + "#count");
  const double sum = serving.Get(name + "#sum") - idle.Get(name + "#sum");
  return count > 0 ? sum / count : 0.0;
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

struct ServeWorkload {
  std::string model;    // --model
  std::string cascade;  // --cascade ("" = not a cascade)
  double open_rate = 0.0;
};

serve::ModelSpec SpecOf(const ServeWorkload& w) {
  serve::ModelSpec spec;
  spec.model = w.model;
  spec.dataset = kServeDataset;
  spec.records = kServeRecords;
  spec.seed = kServeTrainSeed;
  spec.cascade = w.cascade;
  spec.budget_pts = 0.5;
  return spec;
}

std::vector<std::string> DaemonArgs(const ServeWorkload& w) {
  std::vector<std::string> args = {
      "--dataset", kServeDataset, "--records", std::to_string(kServeRecords),
      "--seed", std::to_string(kServeTrainSeed), "--model", w.model,
      "--port", "0", "--batch-cap", "32", "--deadline-us", "1000",
      "--queue-cap", "1024"};
  if (!w.cascade.empty()) {
    for (const char* a : {"--cascade", w.cascade.c_str(), "--budget", "0.5"}) {
      args.push_back(a);
    }
  }
  return args;
}

/// Held-out labelled requests generated from the run's seed.
void BuildPool(uint64_t seed, Verifier* verifier) {
  data::DriftScenario scenario;
  scenario.base_dataset = kServeDataset;
  scenario.seed = seed;
  data::DriftSegment clean;
  clean.label = "clean";
  clean.records = kPoolSize;
  clean.positive_ratio = 0.262;  // SUGG's training ratio
  scenario.segments.push_back(clean);
  for (data::DriftRecord& r : data::GenerateDriftStream(scenario)) {
    verifier->texts.push_back(std::move(r.text));
    verifier->labels.push_back(r.label);
  }
}

/// One served session: warm-up, the closed-loop phase and (optionally) the
/// open-loop phase, then a graceful drain. Fills `closed`/`open`.
struct Session {
  PhaseStats warmup, closed, open;
  double peak_rss_mb = 0.0;
};

void Serve(Daemon* daemon, double closed_s, double open_s, double open_rate,
           uint64_t* next_ticket, Verifier* verifier, Session* s,
           Report* report) {
  bool ok = RunClosedLoop(daemon->port(), daemon->pid(), kWindow,
                          kWarmupSeconds, kSliceSeconds, next_ticket, verifier,
                          &s->warmup) &&
            RunClosedLoop(daemon->port(), daemon->pid(), kWindow, closed_s,
                          kSliceSeconds, next_ticket, verifier, &s->closed);
  if (ok && open_rate > 0) {
    ok = RunOpenLoop(daemon->port(), open_rate, open_s, next_ticket,
                     verifier, &s->open);
  }
  s->peak_rss_mb = ProcessPeakRssMb(daemon->pid());
  const int exit_code = daemon->Stop();
  if (!ok) report->Fail("load phase lost its connection or broke protocol");
  if (exit_code != 0) {
    report->Fail(StrFormat("daemon exit code %d after drain", exit_code));
  }
  for (const PhaseStats* p : {&s->warmup, &s->closed, &s->open}) {
    report->attempted += p->sent;
    report->failed += p->shed + p->failed;
  }
}

void PrintPhase(const char* name, const PhaseStats& p) {
  // Tail percentiles are printed with their sample counts; they are not
  // metrics (they spread several-fold between back-to-back runs here).
  const std::vector<double>& lat = p.latencies_us;
  std::printf(
      "  %-7s sent %llu ok %llu shed %llu failed %llu in %.2fs; latency "
      "p50 %.0fus p90 %.0fus p99 %.0fus (n=%zu)",
      name, static_cast<unsigned long long>(p.sent),
      static_cast<unsigned long long>(p.ok),
      static_cast<unsigned long long>(p.shed),
      static_cast<unsigned long long>(p.failed), p.wall_s,
      Quantile(lat, 0.5), Quantile(lat, 0.9), Quantile(lat, 0.99), lat.size());
  if (!p.lateness_us.empty()) {
    std::printf("; generator late p50 %.0fus p99 %.0fus max %.0fus",
                Quantile(p.lateness_us, 0.5), Quantile(p.lateness_us, 0.99),
                *std::max_element(p.lateness_us.begin(), p.lateness_us.end()));
  }
  std::printf("\n");
  if (!p.slice_qps.empty()) {
    std::printf("          per-%.1fs slice qps/cpu us per req:", kSliceSeconds);
    for (size_t i = 0; i < p.slice_qps.size(); ++i) {
      std::printf(" %.0f/%.1f", p.slice_qps[i], p.slice_cpu_us[i]);
    }
    std::printf("\n");
  }
}

/// In-process timings of the layers a served request passes through,
/// taken over the run's own request pool.
void TimeServeLayers(const Verifier& v, const models::TaggingModel* deep,
                     Report* report) {
  const std::vector<std::string>& texts = v.texts;
  {
    obs::TraceSpan span("perfbench/serve.protocol");
    std::string frames, payload, response;
    serve::FrameReader reader;
    report->Set("serve.protocol_ns_per_req", NsPerItem(texts.size(), 0.2, [&] {
      for (size_t i = 0; i < texts.size(); ++i) {
        frames.clear();
        serve::AppendFrame(static_cast<uint8_t>(serve::Opcode::kScore),
                           serve::ScorePayload(i, texts[i]), &frames);
        (void)reader.Feed(frames.data(), frames.size());
        uint8_t tag = 0;
        (void)reader.Next(&tag, &payload);
        response = serve::FormatScoreResponse(i, 1, v.reference[i]);
        uint64_t ticket = 0, version = 0;
        double score = 0.0;
        (void)serve::ParseScoreResponse(response, &ticket, &version, &score);
      }
    }));
  }
  {
    obs::TraceSpan span("perfbench/serve.traffic_record");
    serve::TrafficStats stats;
    report->Set("serve.traffic_record_ns_per_req",
                NsPerItem(texts.size(), 0.2, [&] {
                  for (size_t i = 0; i < texts.size(); ++i) {
                    stats.Record(std::string_view(texts[i]), 0.5);
                  }
                }));
  }
  if (deep != nullptr) {
    obs::TraceSpan span("perfbench/deep.score");
    report->Set("deep.us_per_text_b32", NsPerItem(texts.size(), 0.3, [&] {
                  for (size_t i = 0; i < texts.size(); i += 32) {
                    const size_t end = std::min(texts.size(), i + 32);
                    (void)deep->ScoreAll(std::vector<std::string>(
                        texts.begin() + i, texts.begin() + end));
                  }
                }) / 1e3);
    const size_t n = std::min<size_t>(texts.size(), 512);
    report->Set("deep.us_per_text_b1", NsPerItem(n, 0.3, [&] {
                  for (size_t i = 0; i < n; ++i) (void)deep->Score(texts[i]);
                }) / 1e3);
  }
}

/// Tokenize / bag-of-words timings over `texts`, the vectorizer fit on
/// `train`.
void TimeTextLayers(const std::vector<std::string>& train,
                    const std::vector<std::string>& texts, Report* report) {
  obs::TraceSpan span("perfbench/text");
  report->Set("text.tokenize_ns_per_text", NsPerItem(texts.size(), 0.2, [&] {
                for (const std::string& t : texts) (void)text::Tokenize(t);
              }));
  text::BowVectorizer bow;
  bow.Fit(train);
  report->Set("text.bow_transform_ns_per_text",
              NsPerItem(texts.size(), 0.2, [&] {
                for (const std::string& t : texts) (void)bow.Transform(t);
              }));
}

// ---------------------------------------------------------------------------
// The study grid, timed in process for the per-layer report
// ---------------------------------------------------------------------------

/// One spec per Table-5 cell, generated from the run's seed and split by
/// the study protocol of ExperimentRunner::Run (generate, deterministic
/// shuffle, split).
std::vector<std::pair<data::Dataset, data::Dataset>> BuildGrid(uint64_t seed) {
  std::vector<std::pair<data::Dataset, data::Dataset>> splits;
  for (const char* name : kGridSpecs) {
    data::DatasetSpec spec = data::FindSpec(name).ValueOrDie();
    spec.scaled_records = kGridRecords;
    spec.train_fraction = kGridTrainFraction;
    spec.generator.seed += 7919 * seed;
    data::Dataset dataset = data::BuildDataset(spec);
    Rng shuffle_rng(spec.generator.seed);
    dataset.Shuffle(&shuffle_rng);
    auto [train, test] = dataset.Split(spec.train_fraction);
    train.set_name(spec.name);
    splits.emplace_back(std::move(train), std::move(test));
  }
  return splits;
}

/// Trains and evaluates every family on every grid spec through
/// core::TrainAndEvaluate and reports each family's summed Train() time
/// and the rest of its cells' time (test-set scoring and metrics).
void TimeGrid(uint64_t seed, Report* report) {
  obs::TraceSpan span("perfbench/grid");
  const auto splits = BuildGrid(seed);
  for (const models::ModelKind kind : kGridFamilies) {
    std::string family = models::ModelKindName(kind);
    std::transform(family.begin(), family.end(), family.begin(), ::tolower);
    double train_s = 0.0, eval_s = 0.0;
    for (const auto& [train, test] : splits) {
      WallTimer cell;
      const core::ExperimentResult r =
          core::TrainAndEvaluate(train, test, kind, 0);
      if (r.outcome != core::CellOutcome::kOk) {
        report->Fail("grid cell " + train.name() + "/" + family + ": " + r.error);
        continue;
      }
      train_s += r.train_seconds;
      eval_s += cell.ElapsedSeconds() - r.train_seconds;
    }
    report->Set("train_s." + family, train_s);
    report->Set("eval.score_s." + family, eval_s);
    std::printf("  grid %-5s train %.3fs, evaluate %.3fs over %zu specs\n",
                family.c_str(), train_s, eval_s, splits.size());
  }
}

int RunServe(const Args& args, const ServeWorkload& w, Report* report) {
  const double probe_ms = CpuProbeMs();
  Verifier verifier;
  BuildPool(args.seed, &verifier);

  // Reference: the same spec built in process. BuildModelFromSpec is the
  // daemon's own path, so its ScoreAll is what every response must equal.
  auto built = serve::BuildModelFromSpec(SpecOf(w));
  if (!built.ok()) {
    report->Fail("reference model: " + built.status().ToString());
    return 1;
  }
  const std::unique_ptr<models::TaggingModel> model =
      std::move(built).ValueOrDie();
  verifier.reference = model->ScoreAll(verifier.texts);
  verifier.decision_threshold = model->DecisionThreshold();

  const auto* cascade = dynamic_cast<const core::Cascade*>(model.get());
  double escalated_frac = 0.0;
  if (!w.cascade.empty()) {
    if (cascade == nullptr || cascade->deep_model() == nullptr) {
      report->Fail("served cascade has no deep tier");
      return 1;
    }
    const std::vector<uint8_t> mask = cascade->EscalationMask(verifier.texts);
    escalated_frac =
        std::count(mask.begin(), mask.end(), 1) / static_cast<double>(mask.size());
    if (escalated_frac <= 0.0) {
      report->Fail("cascade escalates no request; it measures a simple model");
    }
  }
  const std::string log = args.work + "/daemon_" + args.workload + ".log";
  std::remove(log.c_str());
  const double closed_s = args.seconds * kClosedShare;
  const double open_s = args.seconds - closed_s;
  uint64_t next_ticket = 1;

  if (!args.trace) {
    std::vector<double> setups;
    Daemon daemon;
    for (int i = 0; i < kSetupSpawns; ++i) {
      if (i > 0 && daemon.Stop() != 0) report->Fail("daemon exit code != 0");
      if (!daemon.Spawn(args.daemon, DaemonArgs(w), log, 170.0)) {
        report->Fail("daemon did not start");
        return 1;
      }
      setups.push_back(daemon.setup_seconds());
    }
    Session s;
    Serve(&daemon, closed_s, open_s, w.open_rate, &next_ticket, &verifier, &s,
          report);
    if (FileContains(log, "pretraining")) {
      report->Fail("the daemon pretrained its backbone inside a timed run");
    }
    std::printf("%s seed %llu: %llu responses equal the reference bit for "
                "bit; escalated %.4f; host probe %.1fms\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(verifier.verified),
                escalated_frac, probe_ms);
    PrintPhase("warmup", s.warmup);
    PrintPhase("closed", s.closed);
    PrintPhase("open", s.open);
    report->Set("setup_s", Median(setups));
    std::printf("  closed loop: %.0f requests/s and %.1f daemon CPU us per "
                "request (medians of %zu slices)\n",
                Median(s.closed.slice_qps), Median(s.closed.slice_cpu_us),
                s.closed.slice_qps.size());
    report->Set("latency_p50_us", Quantile(s.open.latencies_us, 0.5));
    report->Set("f1", verifier.F1());
    report->Set("peak_rss_mb", s.peak_rss_mb);
  } else {
    // Untraced reference session for the tracing overhead.
    Session plain;
    {
      Daemon daemon;
      if (!daemon.Spawn(args.daemon, DaemonArgs(w), log, 170.0)) {
        report->Fail("daemon did not start");
        return 1;
      }
      Serve(&daemon, closed_s, 0.0, 0.0, &next_ticket, &verifier, &plain,
            report);
    }
    // The idle daemon only trains: subtracting its counters leaves what
    // serving alone did.
    Snapshot idle, serving;
    std::string error;
    const std::string idle_path = args.work + "/metrics_idle.json";
    const std::string serve_path = args.work + "/metrics_" + args.workload + ".json";
    const std::string trace_path = args.work + "/trace_" + args.workload + ".json";
    {
      Daemon daemon;
      std::vector<std::string> a = DaemonArgs(w);
      a.push_back("--metrics=" + idle_path);
      if (!daemon.Spawn(args.daemon, a, log, 170.0) || daemon.Stop() != 0 ||
          !LoadSnapshot(idle_path, &idle, &error)) {
        report->Fail("idle traced daemon: " + error);
        return 1;
      }
    }
    Session s;
    {
      Daemon daemon;
      std::vector<std::string> a = DaemonArgs(w);
      a.push_back("--metrics=" + serve_path);
      a.push_back("--trace=" + trace_path);
      if (!daemon.Spawn(args.daemon, a, log, 170.0)) {
        report->Fail("traced daemon did not start");
        return 1;
      }
      Serve(&daemon, closed_s, open_s, w.open_rate, &next_ticket, &verifier,
            &s, report);
    }
    if (!LoadSnapshot(serve_path, &serving, &error)) {
      report->Fail("traced daemon metrics: " + error);
      return 1;
    }
    if (const obs::ValidationResult t = obs::ValidateTraceFile(trace_path); !t.ok) {
      report->Fail("traced daemon trace: " + t.error);
    }
    if (serving.Get("bert_cache/pretrains") != 0 ||
        serving.Get("result_cache/hits") != 0) {
      report->Fail("a traced run pretrained a backbone or hit the result cache");
    }
    PrintPhase("closed", s.closed);
    PrintPhase("open", s.open);

    const auto delta = [&](const std::string& key) {
      return serving.Get(key) - idle.Get(key);
    };
    const double requests = delta("serve/requests_scored");
    report->Set("serve.batch_size_mean", WindowMean(serving, idle, "serve/batch_size"));
    report->Set("serve.batch_score_us_mean",
                WindowMean(serving, idle, "serve/batch_score_us"));
    report->Set("serve.wait_plus_score_us_mean",
                WindowMean(serving, idle, "serve/queue_wait_us"));
    report->Set("serve.server_latency_us_mean",
                WindowMean(serving, idle, "serve/request_latency_us"));
    report->Set("serve.shed", static_cast<double>(s.closed.shed + s.open.shed));
    report->Set("serve.failed",
                static_cast<double>(s.closed.failed + s.open.failed));
    const double total = delta("cascade/examples_total");
    if (total > 0) {
      report->Set("cascade.escalated_frac",
                  delta("cascade/examples_escalated") / total);
      if (delta("cascade/examples_escalated") <= 0) {
        report->Fail("the daemon's cascade escalated nothing");
      }
    }
    report->Set("cascade.simple_pass_us_mean",
                WindowMean(serving, idle, "cascade/simple_pass_us"));
    report->Set("cascade.deep_pass_us_mean",
                WindowMean(serving, idle, "cascade/deep_pass_us"));
    const double gemm_calls = serving.SumPrefix("la/gemm/calls_") -
                              idle.SumPrefix("la/gemm/calls_");
    if (requests > 0) report->Set("la.gemm_calls_per_req", gemm_calls / requests);
    const double score_s = (serving.Get("serve/batch_score_us#sum") -
                            idle.Get("serve/batch_score_us#sum")) * 1e-6;
    if (score_s > 0) {
      report->Set("la.gemm_gflop_per_s", delta("la/gemm/flops") / score_s / 1e9);
    }
    report->Set("la.buffer_pool_system_allocs",
                delta("buffer_pool/system_allocs"));
    const double plain_qps = Median(plain.closed.slice_qps);
    const double traced_qps = Median(s.closed.slice_qps);
    report->Set("serve.closed_qps", plain_qps);
    report->Set("serve.daemon_cpu_us_per_req", Median(plain.closed.slice_cpu_us));
    if (plain_qps > 0) report->Set("trace.overhead_frac", 1.0 - traced_qps / plain_qps);

    // In-process layer timings over the same pool, spans armed.
    obs::SetTraceEnabled(true);
    TimeServeLayers(verifier, cascade != nullptr ? cascade->deep_model()
                                                 : model.get(),
                    report);
    data::DatasetSpec spec = data::FindSpec(kServeDataset).ValueOrDie();
    spec.scaled_records = kServeRecords;
    std::vector<double> builds;
    data::Dataset dataset;
    for (int i = 0; i < 3; ++i) {
      obs::TraceSpan span("perfbench/data.build");
      WallTimer t;
      dataset = data::BuildDataset(spec);
      builds.push_back(t.ElapsedSeconds());
    }
    report->Set("data.build_s", Median(builds));
    auto [train, test] = dataset.Split(spec.train_fraction);
    TimeTextLayers(train.Texts(), verifier.texts, report);
    if (cascade == nullptr) TimeGrid(args.seed, report);
    report->Set("host.cpu_probe_ms", probe_ms);
    const std::string own_trace = args.work + "/trace_perfbench_" + args.workload + ".json";
    if (!obs::WriteTraceJson(own_trace) ||
        !obs::ValidateTraceFile(own_trace).ok) {
      report->Fail("benchmark trace export did not validate");
    }
  }
  if (verifier.mismatches > 0) {
    report->Fail(StrFormat("%llu responses differ from the reference; first: %s",
                           static_cast<unsigned long long>(verifier.mismatches),
                           verifier.first_error.c_str()));
  }
  if (report->failed > 0) {
    report->Fail(StrFormat("%llu requests shed or failed",
                           static_cast<unsigned long long>(report->failed)));
  }
  return report->correct() ? 0 : 1;
}

/// The result-line checker must accept a well-formed line for both metric
/// sets and reject lines that drop a metric, change a unit, or do not parse.
int SelfTest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failures;
    }
  };
  for (const auto* names : {&EndToEndNames(), &PerLayerNames()}) {
    Report report;
    report.attempted = 3;
    for (const auto& [name, unit] : *names) report.Set(name, 1.25);
    const std::string line = report.Json(*names);
    std::string error;
    expect(ResultLineParses(line, *names, &error), "well-formed line rejected");
    auto fewer = *names;
    fewer.pop_back();
    expect(!ResultLineParses(report.Json(fewer), *names, &error),
           "line missing a metric accepted");
    auto relabelled = *names;
    relabelled.front().second = "parsecs";
    expect(!ResultLineParses(report.Json(relabelled), *names, &error),
           "line with a wrong unit accepted");
    expect(!ResultLineParses(line.substr(0, line.size() - 1), *names, &error),
           "truncated line accepted");
  }
  Report empty;
  std::string error;
  expect(!ResultLineParses(empty.Json(EndToEndNames()), EndToEndNames(), &error),
         "line with attempted = 0 accepted");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    int64_t n = 0;
    if (arg == "--workload") {
      args->workload = next();
    } else if (arg == "--seed") {
      if (!ParseInt64(next(), &n) || n < 0) return false;
      args->seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds") {
      if (!ParseDouble(next(), &args->seconds) || args->seconds <= 0) return false;
    } else if (arg == "--trace") {
      if (!ParseInt64(next(), &n) || (n != 0 && n != 1)) return false;
      args->trace = n == 1;
    } else if (arg == "--daemon") {
      args->daemon = next();
    } else if (arg == "--work") {
      args->work = next();
    } else if (arg == "--warm") {
      args->warm = true;
    } else if (arg == "--self-test") {
      args->self_test = true;
    } else {
      return false;
    }
  }
  return args->self_test || args->warm ||
         (!args->workload.empty() && !args->daemon.empty() &&
          !args->work.empty());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --daemon PATH --work DIR | --warm | --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();
  if (args.warm) {
    (void)models::GetPretrainedBackbone(models::BertVariant::kBert);
    return 0;
  }
  ServeWorkload workload;
  if (args.workload == "serve_cascade") {
    workload = {"CASCADE", "SVM+CNN", kCascadeOpenRate};
  } else if (args.workload == "serve_deep") {
    workload = {"BERT", "", kDeepOpenRate};
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Report report;
  const double steal0 = HostStealSeconds();
  WallTimer run_timer;
  const int rc = RunServe(args, workload, &report);
  std::printf("host: %.1fs of vCPU time stolen during this %.1fs run\n",
              HostStealSeconds() - steal0, run_timer.ElapsedSeconds());
  if (report.attempted == 0) return rc == 0 ? 1 : rc;
  const auto& names = args.trace ? PerLayerNames() : EndToEndNames();
  const std::string line = report.Json(names);
  std::string error;
  if (!ResultLineParses(line, names, &error)) {
    std::fprintf(stderr, "perfbench: result line does not parse: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return rc;
}

}  // namespace
}  // namespace semtag::perfbench

int main(int argc, char** argv) { return semtag::perfbench::Main(argc, argv); }
