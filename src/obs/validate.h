#ifndef SEMTAG_OBS_VALIDATE_H_
#define SEMTAG_OBS_VALIDATE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace semtag::obs {

/// Minimal JSON value + recursive-descent parser, used by the golden
/// trace/metrics tests and the `check_obs` CI artifact checker to parse
/// our own exports back. Supports the full JSON grammar we emit (objects,
/// arrays, strings with the escapes we produce, numbers, true/false/null).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Deepest array/object nesting ParseJson accepts. The parser recurses
/// once per level, so a cap keeps hostile input (say, 100k '[') from
/// overflowing the stack; real metrics, trace and BENCH files nest < 10.
constexpr int kMaxJsonDepth = 256;

/// Parses `text`; returns false and fills *error (with offset) on failure,
/// including nesting deeper than kMaxJsonDepth.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

struct ValidationResult {
  bool ok = false;
  std::string error;          // first problem found, empty when ok
  int events = 0;             // trace: B/E events checked
  int counters = 0;           // metrics: counters seen
  int histograms = 0;         // metrics: histograms seen
};

/// Chrome-trace export checks: parses as JSON, requires a traceEvents
/// array whose B/E events carry name/ts/pid/tid, and per-tid every E
/// closes the most recent open B with the same name (balanced, properly
/// nested, no negative-duration pairs).
ValidationResult ValidateTraceJson(const std::string& content);

/// semtag-metrics-v1 checks: schema marker, counters/gauges/histograms
/// objects, and per histogram counts.size == bounds.size + 1 with
/// count == sum(counts) and sorted bounds.
ValidationResult ValidateMetricsJson(const std::string& content);

/// File variants (read + validate); a missing/unreadable file fails.
ValidationResult ValidateTraceFile(const std::string& path);
ValidationResult ValidateMetricsFile(const std::string& path);

}  // namespace semtag::obs

#endif  // SEMTAG_OBS_VALIDATE_H_
