#ifndef SEMTAG_OBS_TRACE_H_
#define SEMTAG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace semtag::obs {

/// Scoped trace spans exported in chrome://tracing "Trace Event Format"
/// JSON (loadable in Perfetto).
///
/// Spans are recorded into a fixed-capacity per-thread ring buffer: the
/// RAII TraceSpan stamps begin/end with the steady clock plus a per-thread
/// sequence number, and the destructor copies one complete record into the
/// ring (overwriting the oldest record when full, counted in dropped()).
/// Because a record carries both its begin and end, dropping any subset
/// keeps the exported B/E stream balanced, and per-thread sequence order
/// reproduces the exact runtime nesting.
///
/// Disabled (the default) a span construction is one relaxed atomic load
/// and a branch; no clock reads, no copies. Enabled via $SEMTAG_TRACE
/// (the export path, flushed at exit) or SetTraceEnabled().

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// Single relaxed atomic load; instrumentation sites branch on this.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

void SetTraceEnabled(bool on);

/// Where the atexit flush writes the chrome-trace JSON; empty disables the
/// flush. Initialized from $SEMTAG_TRACE.
void SetTraceExportPath(std::string path);
std::string TraceExportPath();

/// One scoped span. The name (and optional tag) are copied into inline
/// storage, truncated to the record field width; nothing is allocated.
class TraceSpan {
 public:
  static constexpr size_t kNameChars = 56;
  static constexpr size_t kTagChars = 24;

  explicit TraceSpan(const char* name);
  /// Convenience: span with the tag attached up front.
  TraceSpan(const char* name, const char* tag);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a short tag exported as args.tag on the span's end event
  /// (e.g. the CellOutcome of an experiment cell).
  void SetTag(const char* tag);

 private:
  bool active_ = false;
  int64_t begin_ns_ = 0;
  uint32_t begin_seq_ = 0;
  char name_[kNameChars];
  char tag_[kTagChars];
};

/// Process-wide key/value metadata exported in the trace JSON's
/// "otherData" object (chrome://tracing shows it under Metadata). Used to
/// stamp runs with environment facts a span stream cannot carry — e.g.
/// the dispatched SIMD tier — so an exported trace identifies which
/// kernels produced it. Last write per key wins; thread-safe.
void SetTraceMetadata(const std::string& key, const std::string& value);

/// Flushes every thread's ring into one chrome-trace JSON file (atomic
/// temp + rename). Records are not cleared: flushing is a snapshot, and
/// the atexit flush simply writes the final state. False on IO failure.
bool WriteTraceJson(const std::string& path);

/// The JSON that WriteTraceJson would write (tests).
std::string TraceToJson();

struct TraceStats {
  uint64_t recorded = 0;  ///< spans currently held across all rings
  uint64_t dropped = 0;   ///< spans overwritten by ring wrap-around
};
TraceStats GetTraceStats();

/// Empties every ring (thread buffers stay registered). Tests only.
void ResetTraceForTest();

}  // namespace semtag::obs

#endif  // SEMTAG_OBS_TRACE_H_
