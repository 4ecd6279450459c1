#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "config/runtime_config.h"
#include "obs/metrics.h"

namespace semtag::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One completed span. 120 bytes; a ring of kRingCapacity records costs
/// ~1 MB per tracing thread.
struct SpanRecord {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint32_t begin_seq = 0;
  uint32_t end_seq = 0;
  char name[TraceSpan::kNameChars];
  char tag[TraceSpan::kTagChars];
};

/// Spans kept per thread; the oldest are dropped first.
constexpr size_t kRingCapacity = 8192;

struct ThreadBuffer {
  explicit ThreadBuffer(int tid_in) : tid(tid_in) {
    ring.resize(kRingCapacity);
  }
  std::mutex mu;
  const int tid;
  std::atomic<uint32_t> next_seq{0};
  uint64_t dropped = 0;  // guarded by mu
  size_t head = 0;       // next write slot; guarded by mu
  size_t size = 0;       // live records; guarded by mu
  std::vector<SpanRecord> ring;
};

/// All thread buffers ever created. Buffers are never destroyed (threads
/// may exit long before the atexit flush), so the registry owns them for
/// the process lifetime; the whole structure leaks deliberately.
struct BufferRegistry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
  int next_tid = 1;
};

BufferRegistry& GetBufferRegistry() {
  static BufferRegistry* r = new BufferRegistry();
  return *r;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    BufferRegistry& reg = GetBufferRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto* b = new ThreadBuffer(reg.next_tid++);
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void CopyField(char* dst, size_t cap, const char* src) {
  size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

std::mutex g_trace_export_mu;
std::string& TraceExportPathSlot() {
  static std::string* path = new std::string();
  return *path;
}

/// Run metadata exported as the trace's "otherData" object. Sorted map so
/// the JSON is deterministic; leaks like the buffer registry (writers may
/// run during static destruction).
std::mutex g_trace_metadata_mu;
std::map<std::string, std::string>& TraceMetadataSlot() {
  static auto* metadata = new std::map<std::string, std::string>();
  return *metadata;
}

struct TraceEnvInit {
  TraceEnvInit() {
    if (const std::string& path = GetRuntimeConfig().trace_path;
        !path.empty()) {
      SetTraceExportPath(path);
      SetTraceEnabled(true);
    }
    std::atexit(+[] {
      const std::string path = TraceExportPath();
      if (!path.empty() && TraceEnabled()) {
        WriteTraceJson(path);
      }
    });
  }
};
const TraceEnvInit g_trace_env_init;

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"') *out += "\\\"";
    else if (c == '\\') *out += "\\\\";
    else if (static_cast<unsigned char>(c) < 0x20) *out += ' ';
    else *out += c;
  }
}

/// One exported B or E event, ordered by (ts, tid, seq). Within a thread
/// the sequence counter advances at every begin and end, and the steady
/// clock is monotone, so the sort reproduces exact runtime nesting; ties
/// across threads cannot break per-tid balance.
struct Event {
  int64_t ts_ns;
  int tid;
  uint32_t seq;
  bool begin;
  const SpanRecord* record;
};

}  // namespace

void SetTraceEnabled(bool on) {
  internal::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void SetTraceExportPath(std::string path) {
  std::lock_guard<std::mutex> lock(g_trace_export_mu);
  TraceExportPathSlot() = std::move(path);
}

void SetTraceMetadata(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(g_trace_metadata_mu);
  TraceMetadataSlot()[key] = value;
}

std::string TraceExportPath() {
  std::lock_guard<std::mutex> lock(g_trace_export_mu);
  return TraceExportPathSlot();
}

TraceSpan::TraceSpan(const char* name) {
  if (!TraceEnabled()) return;
  active_ = true;
  CopyField(name_, kNameChars, name);
  tag_[0] = '\0';
  ThreadBuffer& buffer = LocalBuffer();
  begin_seq_ = buffer.next_seq.fetch_add(1, std::memory_order_relaxed);
  begin_ns_ = NowNs();
}

TraceSpan::TraceSpan(const char* name, const char* tag) : TraceSpan(name) {
  SetTag(tag);
}

void TraceSpan::SetTag(const char* tag) {
  if (!active_) return;
  CopyField(tag_, kTagChars, tag);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  const uint32_t end_seq =
      buffer.next_seq.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer.mu);
  SpanRecord& slot = buffer.ring[buffer.head];
  if (buffer.size == buffer.ring.size()) {
    ++buffer.dropped;  // overwriting the oldest record
  } else {
    ++buffer.size;
  }
  buffer.head = (buffer.head + 1) % buffer.ring.size();
  slot.begin_ns = begin_ns_;
  slot.end_ns = end_ns < begin_ns_ ? begin_ns_ : end_ns;
  slot.begin_seq = begin_seq_;
  slot.end_seq = end_seq;
  std::memcpy(slot.name, name_, kNameChars);
  std::memcpy(slot.tag, tag_, kTagChars);
}

std::string TraceToJson() {
  // Snapshot every ring under its own lock, then build events.
  std::vector<SpanRecord> records;
  std::vector<int> tids;
  {
    BufferRegistry& reg = GetBufferRegistry();
    std::lock_guard<std::mutex> reg_lock(reg.mu);
    for (ThreadBuffer* buffer : reg.buffers) {
      std::lock_guard<std::mutex> lock(buffer->mu);
      const size_t cap = buffer->ring.size();
      const size_t first = (buffer->head + cap - buffer->size) % cap;
      for (size_t i = 0; i < buffer->size; ++i) {
        records.push_back(buffer->ring[(first + i) % cap]);
        tids.push_back(buffer->tid);
      }
    }
  }
  std::vector<Event> events;
  events.reserve(records.size() * 2);
  int64_t base_ns = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    base_ns = std::min(base_ns, r.begin_ns);
    events.push_back({r.begin_ns, tids[i], r.begin_seq, true, &r});
    events.push_back({r.end_ns, tids[i], r.end_seq, false, &r});
  }
  if (events.empty()) base_ns = 0;
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.seq < b.seq;
  });

  std::string out = "{\"traceEvents\": [";
  char buf[160];
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const double ts_us = static_cast<double>(e.ts_ns - base_ns) / 1000.0;
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"";
    AppendEscaped(&out, e.record->name);
    std::snprintf(buf, sizeof(buf),
                  "\", \"cat\": \"semtag\", \"ph\": \"%c\", \"ts\": %.3f, "
                  "\"pid\": 1, \"tid\": %d",
                  e.begin ? 'B' : 'E', ts_us, e.tid);
    out += buf;
    if (!e.begin && e.record->tag[0] != '\0') {
      out += ", \"args\": {\"tag\": \"";
      AppendEscaped(&out, e.record->tag);
      out += "\"}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"";
  {
    std::lock_guard<std::mutex> lock(g_trace_metadata_mu);
    const auto& metadata = TraceMetadataSlot();
    if (!metadata.empty()) {
      out += ", \"otherData\": {";
      bool first = true;
      for (const auto& [key, value] : metadata) {
        if (!first) out += ", ";
        first = false;
        out += "\"";
        AppendEscaped(&out, key.c_str());
        out += "\": \"";
        AppendEscaped(&out, value.c_str());
        out += "\"";
      }
      out += "}";
    }
  }
  out += "}\n";
  return out;
}

bool WriteTraceJson(const std::string& path) {
  return internal::WriteFileAtomicStd(path, TraceToJson());
}

TraceStats GetTraceStats() {
  TraceStats stats;
  BufferRegistry& reg = GetBufferRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (ThreadBuffer* buffer : reg.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    stats.recorded += buffer->size;
    stats.dropped += buffer->dropped;
  }
  return stats;
}

void ResetTraceForTest() {
  BufferRegistry& reg = GetBufferRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (ThreadBuffer* buffer : reg.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->head = 0;
    buffer->size = 0;
    buffer->dropped = 0;
  }
}

}  // namespace semtag::obs
