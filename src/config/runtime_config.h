#ifndef SEMTAG_CONFIG_RUNTIME_CONFIG_H_
#define SEMTAG_CONFIG_RUNTIME_CONFIG_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace semtag {

/// Every SEMTAG_* knob, typed (DESIGN.md "Runtime configuration"): the
/// process-wide settings. A setting of one binary is a flag of that binary
/// (common/flags.h) instead. This module is the only reader of the
/// environment; it depends only on the standard library, so obs can read
/// it during static initialization. Each knob is one row of the table in
/// runtime_config.cc (name, default as knob text, parser). An unset or empty knob takes its default; an
/// invalid value warns and takes the default too. The fields hold no
/// defaults: get a config from GetRuntimeConfig() or ParseRuntimeConfig().
struct RuntimeConfig {
  int num_threads = 0;           // SEMTAG_NUM_THREADS; 0 = hardware, max 256
  std::string simd;              // SEMTAG_SIMD: avx2|scalar; "" = probe CPU
  std::string fault;             // SEMTAG_FAULT (common/fault.h)
  int64_t cell_deadline_ms = 0;  // SEMTAG_CELL_DEADLINE_MS; 0 = none
  std::string cache_dir;         // SEMTAG_CACHE_DIR; $HOME/.cache/semtag
  std::string home;              // $HOME (not a knob)
  std::string metrics_path;      // SEMTAG_METRICS; "" = off
  std::string trace_path;        // SEMTAG_TRACE; "" = off

  bool operator==(const RuntimeConfig&) const = default;
};

/// Knob name -> text, e.g. a process environment.
using KnobMap = std::map<std::string, std::string>;

/// The process's config: parsed from the environment on the first call
/// (invalid values warn on stderr), then immutable except while a
/// ScopedRuntimeOverride is installed. Snapshots are never freed, so the
/// reference stays valid on any thread, in static initialization and in
/// atexit hooks.
const RuntimeConfig& GetRuntimeConfig();

/// Parses `env` through the knob table ("HOME" feeds the default cache
/// dir; other names are ignored). Warnings go to `warnings` when given.
RuntimeConfig ParseRuntimeConfig(const KnobMap& env,
                                 std::vector<std::string>* warnings = nullptr);

/// Every knob name, in table order.
std::vector<std::string> RuntimeKnobNames();

/// Publishes the current config with `knobs` re-parsed (an empty value
/// restores the default) until the end of the scope, then restores the
/// config it replaced. Tests and benches change knobs this way, never
/// through the environment: a reader on another thread sees one whole
/// config or the other. A name outside the knob table aborts. Install and
/// destroy on one thread, innermost first; each override's snapshot stays
/// allocated for the process life.
class ScopedRuntimeOverride {
 public:
  explicit ScopedRuntimeOverride(const KnobMap& knobs);
  /// The literal form: ScopedRuntimeOverride o({{"SEMTAG_SIMD", "scalar"}}).
  ScopedRuntimeOverride(std::initializer_list<KnobMap::value_type> knobs)
      : ScopedRuntimeOverride(KnobMap(knobs)) {}
  ~ScopedRuntimeOverride();
  ScopedRuntimeOverride(const ScopedRuntimeOverride&) = delete;
  ScopedRuntimeOverride& operator=(const ScopedRuntimeOverride&) = delete;

 private:
  const RuntimeConfig* previous_;
};

}  // namespace semtag

#endif  // SEMTAG_CONFIG_RUNTIME_CONFIG_H_
