#ifndef SEMTAG_CONFIG_RUNTIME_CONFIG_H_
#define SEMTAG_CONFIG_RUNTIME_CONFIG_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace semtag {

/// Every SEMTAG_* knob, typed (DESIGN.md "Runtime configuration"). This
/// module is the only reader of the environment; it depends only on the
/// standard library, so obs can read it during static initialization.
/// Each knob is one row of the table in runtime_config.cc (name, default
/// as knob text, parser). An unset or empty knob takes its default; an
/// invalid value warns and takes the default too. The fields hold no
/// defaults: get a config from GetRuntimeConfig() or ParseRuntimeConfig().
struct RuntimeConfig {
  int num_threads = 0;           // SEMTAG_NUM_THREADS; 0 = hardware, max 256
  std::string simd;              // SEMTAG_SIMD: avx2|scalar; "" = probe CPU
  bool quant = false;            // SEMTAG_QUANT=1: int8 inference tier
  std::string fault;             // SEMTAG_FAULT (common/fault.h)
  int64_t cell_deadline_ms = 0;  // SEMTAG_CELL_DEADLINE_MS; 0 = none
  std::string cache_dir;         // SEMTAG_CACHE_DIR; $HOME/.cache/semtag
  std::string home;              // $HOME (not a knob)
  std::string metrics_path;      // SEMTAG_METRICS; "" = off
  std::string trace_path;        // SEMTAG_TRACE; "" = off
  std::string cascade;           // SEMTAG_CASCADE: auto|simple|<S>+<D>
  double cascade_budget = 0.0;   // SEMTAG_CASCADE_BUDGET, F1 pts [0, 100]
  // SEMTAG_REPLAN_*: the re-planning loop (serve/replanner.h).
  int replan_epoch = 0;                 // _EPOCH
  int replan_window = 0;                // _WINDOW
  int replan_dwell = 0;                 // _HYSTERESIS "dwell,margin_pts"
  double replan_margin_pts = 0.0;
  double replan_dirty_threshold = 0.0;  // _DIRTY "threshold,band"
  double replan_dirty_band = 0.0;
  int64_t replan_profile_records = 0;   // _PROFILE "records,ratio"
  double replan_profile_ratio = 0.0;
  std::string replan_pair;              // _PAIR "<simple>+<deep>" or ""
  std::string replan_dir;               // _DIR: where replan specs live

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

/// Knob `name` of `config` as text that parses back to the same value.
std::string RenderKnob(const RuntimeConfig& config, std::string_view name);

/// This process's environment as "NAME=value" entries with `knobs` set:
/// the envp with which a parent hands its choice of config to an exec'd
/// child.
std::vector<std::string> ChildEnvironment(const KnobMap& knobs);

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
  /// The literal form: ScopedRuntimeOverride q({{"SEMTAG_QUANT", "1"}}).
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
