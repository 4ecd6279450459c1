#include "obs/metrics.h"

#include "config/runtime_config.h"
#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>

#ifdef __unix__
#include <unistd.h>
#endif

namespace semtag::obs {

namespace internal {

std::atomic<bool> g_metrics_enabled{false};

int ShardIndex() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id & (kMetricShards - 1);
}

}  // namespace internal

namespace {

int64_t ToFixed(double v) {
  const double scaled = v * kSumScale;
  if (scaled >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  if (scaled <= static_cast<double>(std::numeric_limits<int64_t>::min())) {
    return std::numeric_limits<int64_t>::min();
  }
  return std::llround(scaled);
}

double FromFixed(int64_t v) { return static_cast<double>(v) / kSumScale; }

/// Name -> metric maps. Nodes are never erased, so references handed out
/// by the Get* functions stay valid for the process lifetime. Leaked on
/// purpose: metrics may be touched from atexit handlers and pool workers
/// that outlive static destructors.
struct Registry {
  std::mutex mu;
  std::map<std::string, Counter*> counters;
  std::map<std::string, Gauge*> gauges;
  std::map<std::string, Histogram*> histograms;
  std::vector<void (*)()> collectors;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

std::mutex g_export_mu;
std::string& ExportPathSlot() {
  static std::string* path = new std::string();
  return *path;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  // JSON has no inf/nan literals; clamp to something parseable.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    return "0";
  }
  return buf;
}

/// Process-start initialization: arm the registry from the runtime config and
/// register the exit flush. Runs before main via a namespace-scope
/// initializer; until it runs, both layers are off (atomics default to
/// false), which is the documented default.
struct EnvInit {
  EnvInit() {
    if (const std::string& path = GetRuntimeConfig().metrics_path;
        !path.empty()) {
      SetMetricsExportPath(path);
      SetMetricsEnabled(true);
    }
    std::atexit(+[] {
      const std::string path = MetricsExportPath();
      if (!path.empty() && MetricsEnabled()) {
        WriteMetricsJson(path);
      }
    });
  }
};
const EnvInit g_env_init;

}  // namespace

void SetMetricsEnabled(bool on) {
  internal::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void SetMetricsExportPath(std::string path) {
  std::lock_guard<std::mutex> lock(g_export_mu);
  ExportPathSlot() = std::move(path);
}

std::string MetricsExportPath() {
  std::lock_guard<std::mutex> lock(g_export_mu);
  return ExportPathSlot();
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Gauge::Set(double v) {
  if (!MetricsEnabled()) return;
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  set_bits_.store(bits, std::memory_order_relaxed);
  was_set_.store(true, std::memory_order_relaxed);
}

double Gauge::Value() const {
  double base = 0.0;
  if (was_set_.load(std::memory_order_relaxed)) {
    const int64_t bits = set_bits_.load(std::memory_order_relaxed);
    std::memcpy(&base, &bits, sizeof(base));
  }
  int64_t added = 0;
  for (const auto& s : shards_) added += s.v.load(std::memory_order_relaxed);
  return base + FromFixed(added);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  const size_t buckets = bounds_.size() + 1;
  for (auto& shard : shards_) {
    shard.counts = std::make_unique<std::atomic<uint64_t>[]>(buckets);
    for (size_t i = 0; i < buckets; ++i) {
      shard.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::ObserveAlways(double v) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Shard& shard = shards_[internal::ShardIndex()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  const int64_t fixed = ToFixed(v);
  shard.sum.fetch_add(fixed, std::memory_order_relaxed);
  if (!shard.any.load(std::memory_order_relaxed)) {
    // First observation on this shard seeds min/max; the relaxed flag is
    // only ever flipped false->true by the shard's own writers, and two
    // racing seeders both run the CAS loops below, so the result is still
    // the true extremum.
    int64_t expected = 0;
    shard.min.compare_exchange_strong(expected, fixed,
                                      std::memory_order_relaxed);
    expected = 0;
    shard.max.compare_exchange_strong(expected, fixed,
                                      std::memory_order_relaxed);
    shard.any.store(true, std::memory_order_relaxed);
  }
  int64_t cur = shard.min.load(std::memory_order_relaxed);
  while (fixed < cur && !shard.min.compare_exchange_weak(
                            cur, fixed, std::memory_order_relaxed)) {
  }
  cur = shard.max.load(std::memory_order_relaxed);
  while (fixed > cur && !shard.max.compare_exchange_weak(
                            cur, fixed, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  const size_t buckets = bounds_.size() + 1;
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < buckets; ++i) {
      total += shard.counts[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::vector<uint64_t> Histogram::Counts() const {
  const size_t buckets = bounds_.size() + 1;
  std::vector<uint64_t> out(buckets, 0);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < buckets; ++i) {
      out[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::Sum() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return FromFixed(total);
}

double Histogram::Min() const {
  int64_t best = std::numeric_limits<int64_t>::max();
  bool any = false;
  for (const auto& shard : shards_) {
    if (!shard.any.load(std::memory_order_relaxed)) continue;
    any = true;
    best = std::min(best, shard.min.load(std::memory_order_relaxed));
  }
  return any ? FromFixed(best) : std::numeric_limits<double>::infinity();
}

double Histogram::Max() const {
  int64_t best = std::numeric_limits<int64_t>::min();
  bool any = false;
  for (const auto& shard : shards_) {
    if (!shard.any.load(std::memory_order_relaxed)) continue;
    any = true;
    best = std::max(best, shard.max.load(std::memory_order_relaxed));
  }
  return any ? FromFixed(best) : -std::numeric_limits<double>::infinity();
}

/// Friend-door for construction (Counter/Gauge/Histogram constructors are
/// private so handles only come from the registry).
class RegistryAccess {
 public:
  static Counter* NewCounter() { return new Counter(); }
  static Gauge* NewGauge() { return new Gauge(); }
  static Histogram* NewHistogram(std::vector<double> bounds) {
    return new Histogram(std::move(bounds));
  }
  static void Reset(Counter* c) {
    for (auto& s : c->shards_) s.v.store(0, std::memory_order_relaxed);
  }
  static void Reset(Gauge* g) {
    g->set_bits_.store(0, std::memory_order_relaxed);
    g->was_set_.store(false, std::memory_order_relaxed);
    for (auto& s : g->shards_) s.v.store(0, std::memory_order_relaxed);
  }
  static void Reset(Histogram* h) {
    const size_t buckets = h->bounds_.size() + 1;
    for (auto& shard : h->shards_) {
      for (size_t i = 0; i < buckets; ++i) {
        shard.counts[i].store(0, std::memory_order_relaxed);
      }
      shard.sum.store(0, std::memory_order_relaxed);
      shard.min.store(0, std::memory_order_relaxed);
      shard.max.store(0, std::memory_order_relaxed);
      shard.any.store(false, std::memory_order_relaxed);
    }
  }
};

Counter& GetCounter(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.counters.find(name);
  if (it == reg.counters.end()) {
    it = reg.counters.emplace(name, RegistryAccess::NewCounter()).first;
  }
  return *it->second;
}

Gauge& GetGauge(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.gauges.find(name);
  if (it == reg.gauges.end()) {
    it = reg.gauges.emplace(name, RegistryAccess::NewGauge()).first;
  }
  return *it->second;
}

Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.histograms.find(name);
  if (it == reg.histograms.end()) {
    it = reg.histograms.emplace(name, RegistryAccess::NewHistogram(bounds))
             .first;
  }
  return *it->second;
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double>* b = new std::vector<double>{
      1,    2,    5,    10,   20,   50,   100,  200,  500,  1e3, 2e3,
      5e3,  1e4,  2e4,  5e4,  1e5,  2e5,  5e5,  1e6,  2e6,  5e6, 1e7,
      3e7,  6e7};
  return *b;
}

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double>* b = new std::vector<double>{
      0.1, 0.2, 0.5, 1,   2,   5,   10,  20,  50,  100, 200,
      500, 1e3, 2e3, 5e3, 1e4, 3e4, 6e4, 1.2e5, 3e5, 6e5};
  return *b;
}

const std::vector<double>& LossBuckets() {
  static const std::vector<double>* b = new std::vector<double>{
      1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.5,
      0.7,  1.0,  1.5,  2.0,  3.0,  5.0,  10,  30,  100};
  return *b;
}

const std::vector<double>& DepthBuckets() {
  static const std::vector<double>* b = new std::vector<double>{
      0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096};
  return *b;
}

const std::vector<double>& ServeLatencyBucketsUs() {
  static const std::vector<double>* b = new std::vector<double>{
      10,    15,    22,    33,    50,    75,    110,   160,   240,
      360,   540,   810,   1200,  1800,  2700,  4000,  6000,  9000,
      13500, 20000, 30000, 45000, 67500, 1e5,   1.5e5, 2.2e5, 3.3e5,
      5e5,   7.5e5, 1e6,   1e7};
  return *b;
}

const std::vector<double>& UnitFractionBuckets() {
  static const std::vector<double>* b = new std::vector<double>{
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.15, 0.2,  0.25,
      0.3,   0.35,  0.4,   0.45, 0.5,  0.6,  0.7,  0.8,  0.9,  1.0};
  return *b;
}

bool RegisterCollector(void (*fn)()) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.collectors.push_back(fn);
  return true;
}

MetricsSnapshot SnapshotMetrics() {
  Registry& reg = GetRegistry();
  std::vector<void (*)()> collectors;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    collectors = reg.collectors;
  }
  // Collectors publish via the normal Get*/Set API, so they run outside
  // the registry lock.
  for (void (*fn)() : collectors) fn();
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [name, c] : reg.counters) {
    snap.counters.emplace_back(name, c->Value());
  }
  for (const auto& [name, g] : reg.gauges) {
    snap.gauges.emplace_back(name, g->Value());
  }
  for (const auto& [name, h] : reg.histograms) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts = h->Counts();
    hs.count = 0;
    for (uint64_t c : hs.counts) hs.count += c;
    hs.sum = h->Sum();
    hs.min = hs.count > 0 ? h->Min() : 0.0;
    hs.max = hs.count > 0 ? h->Max() : 0.0;
    snap.histograms.emplace_back(name, std::move(hs));
  }
  return snap;
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"schema\": \"semtag-metrics-v1\",\n";
  out += "  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    AppendJsonEscaped(&out, snapshot.counters[i].first);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\": %llu",
                  static_cast<unsigned long long>(snapshot.counters[i].second));
    out += buf;
  }
  out += snapshot.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    AppendJsonEscaped(&out, snapshot.gauges[i].first);
    out += "\": " + FormatDouble(snapshot.gauges[i].second);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    AppendJsonEscaped(&out, name);
    out += "\": {\"bounds\": [";
    for (size_t j = 0; j < h.bounds.size(); ++j) {
      if (j > 0) out += ", ";
      out += FormatDouble(h.bounds[j]);
    }
    out += "], \"counts\": [";
    for (size_t j = 0; j < h.counts.size(); ++j) {
      if (j > 0) out += ", ";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(h.counts[j]));
      out += buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "], \"count\": %llu",
                  static_cast<unsigned long long>(h.count));
    out += buf;
    out += ", \"sum\": " + FormatDouble(h.sum);
    out += ", \"min\": " + FormatDouble(h.min);
    out += ", \"max\": " + FormatDouble(h.max);
    out += "}";
  }
  out += snapshot.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool WriteMetricsJson(const std::string& path) {
  return internal::WriteFileAtomicStd(path, MetricsToJson(SnapshotMetrics()));
}

void ResetMetricsForTest() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, c] : reg.counters) RegistryAccess::Reset(c);
  for (auto& [name, g] : reg.gauges) RegistryAccess::Reset(g);
  for (auto& [name, h] : reg.histograms) RegistryAccess::Reset(h);
}

bool HandleObsFlag(const char* arg) {
  const auto match = [arg](const char* flag, size_t len, const char** value) {
    if (std::strncmp(arg, flag, len) != 0) return false;
    if (arg[len] == '\0') {
      *value = nullptr;
      return true;
    }
    if (arg[len] == '=') {
      *value = arg + len + 1;
      return true;
    }
    return false;
  };
  const char* value = nullptr;
  if (match("--metrics", 9, &value)) {
    SetMetricsExportPath(value != nullptr && value[0] != '\0'
                             ? value
                             : "semtag_metrics.json");
    SetMetricsEnabled(true);
    return true;
  }
  if (match("--trace", 7, &value)) {
    SetTraceExportPath(value != nullptr && value[0] != '\0'
                           ? value
                           : "semtag_trace.json");
    SetTraceEnabled(true);
    return true;
  }
  return false;
}

namespace internal {

bool WriteFileAtomicStd(const std::string& path, const std::string& content) {
  long pid = 0;
#ifdef __unix__
  pid = static_cast<long>(::getpid());
#endif
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld", pid);
  const std::string tmp = path + suffix;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace internal

}  // namespace semtag::obs
