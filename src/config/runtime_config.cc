#include "config/runtime_config.h"

#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <list>
#include <mutex>
#include <sstream>
#include <type_traits>

extern char** environ;

namespace semtag {
namespace {

using C = RuntimeConfig;

/// A whole (int64_t) or finite real (double) number, nothing after it.
template <typename T>
bool Number(std::string_view text, T* out) {
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  T v;
  if constexpr (std::is_integral_v<T>) {
    v = std::strtoll(s.c_str(), &end, 10);
  } else {
    v = std::strtod(s.c_str(), &end);
  }
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      !std::isfinite(static_cast<double>(v))) {
    return false;
  }
  *out = v;
  return true;
}

/// Stores `v` into an integral or real field; false when out of range.
template <typename T>
bool Store(double v, T* field) {
  if constexpr (std::is_integral_v<T>) {
    if (!(v >= static_cast<double>(std::numeric_limits<T>::min()) &&
          v < static_cast<double>(std::numeric_limits<T>::max()))) {
      return false;
    }
  }
  *field = static_cast<T>(v);
  return true;
}

template <auto F>
bool Text(std::string_view t, C* c) {
  c->*F = std::string(t);
  return true;
}

/// A whole number in [lo, hi].
template <auto F, int64_t lo, int64_t hi>
bool Int(std::string_view t, C* c) {
  int64_t v = 0;
  if (!Number(t, &v) || v < lo || v > hi) return false;
  c->*F = static_cast<std::decay_t<decltype(c->*F)>>(v);
  return true;
}

/// "a,b": each non-empty part that parses replaces its field, so "5"
/// keeps the second value. Invalid only when neither part parses.
template <auto A, auto B>
bool Pair(std::string_view t, C* c) {
  const size_t comma = t.find(',');
  std::string_view second =
      comma == std::string_view::npos ? "" : t.substr(comma + 1);
  second = second.substr(0, second.find(','));
  double a = 0.0, b = 0.0;
  const bool has_a = Number(t.substr(0, comma), &a);
  const bool has_b = Number(second, &b);
  return (has_a || has_b) && (!has_a || Store(a, &(c->*A))) &&
         (!has_b || Store(b, &(c->*B)));
}

/// "<simple>+<deep>", split at the last '+' so that hybrid names such as
/// "LR+eb" stay whole on the left.
bool IsPair(std::string_view t) {
  const size_t plus = t.rfind('+');
  return plus != std::string_view::npos && plus > 0 && plus + 1 < t.size();
}

/// Field F as knob text; 17 significant digits round-trip every double.
template <auto F>
std::string Show(const C& c) {
  std::ostringstream out;
  out << std::setprecision(17) << c.*F;
  return out.str();
}

template <auto A, auto B>
std::string ShowPair(const C& c) {
  return Show<A>(c) + "," + Show<B>(c);
}

/// One knob: its name, its default as knob text, and how to parse and
/// render it. `parse` accepts the default; it may leave *c half-written
/// when it fails, so callers parse into a copy.
struct Knob {
  const char* name;
  const char* fallback;
  bool (*parse)(std::string_view, C*);
  std::string (*render)(const C&);
};

// constexpr, so the table is initialized before any dynamic initializer
// runs: obs parses the config during static initialization.
constexpr Knob kKnobs[] = {
    {"SEMTAG_NUM_THREADS", "0",
     [](std::string_view t, C* c) {
       if (!Int<&C::num_threads, 0, INT_MAX>(t, c)) return false;
       c->num_threads = c->num_threads < 256 ? c->num_threads : 256;
       return true;
     },
     Show<&C::num_threads>},
    {"SEMTAG_SIMD", "",
     [](std::string_view t, C* c) {
       return (t.empty() || t == "avx2" || t == "scalar") &&
              Text<&C::simd>(t, c);
     },
     Show<&C::simd>},
    {"SEMTAG_QUANT", "0",
     [](std::string_view t, C* c) {
       c->quant = t == "1";
       return t == "0" || t == "1";
     },
     Show<&C::quant>},
    {"SEMTAG_FAULT", "", Text<&C::fault>, Show<&C::fault>},
    {"SEMTAG_CELL_DEADLINE_MS", "0",
     Int<&C::cell_deadline_ms, 0, INT64_MAX>, Show<&C::cell_deadline_ms>},
    {"SEMTAG_CACHE_DIR", "",
     [](std::string_view t, C* c) {
       c->cache_dir = !t.empty()          ? std::string(t)
                      : !c->home.empty() ? c->home + "/.cache/semtag"
                                         : "semtag_cache";
       return true;
     },
     Show<&C::cache_dir>},
    {"SEMTAG_METRICS", "", Text<&C::metrics_path>, Show<&C::metrics_path>},
    {"SEMTAG_TRACE", "", Text<&C::trace_path>, Show<&C::trace_path>},
    {"SEMTAG_CASCADE", "auto",
     [](std::string_view t, C* c) {
       return (t == "auto" || t == "simple" || IsPair(t)) &&
              Text<&C::cascade>(t, c);
     },
     Show<&C::cascade>},
    {"SEMTAG_CASCADE_BUDGET", "0.5",
     [](std::string_view t, C* c) {
       double pts = 0.0;
       return Number(t, &pts) && pts >= 0.0 && pts <= 100.0 &&
              Store(pts, &c->cascade_budget);
     },
     Show<&C::cascade_budget>},
    {"SEMTAG_REPLAN_EPOCH", "256", Int<&C::replan_epoch, 0, INT_MAX>,
     Show<&C::replan_epoch>},
    {"SEMTAG_REPLAN_WINDOW", "8", Int<&C::replan_window, 1, INT_MAX>,
     Show<&C::replan_window>},
    {"SEMTAG_REPLAN_HYSTERESIS", "3,0.25",
     Pair<&C::replan_dwell, &C::replan_margin_pts>,
     ShowPair<&C::replan_dwell, &C::replan_margin_pts>},
    {"SEMTAG_REPLAN_DIRTY", "0.25,0.10",
     Pair<&C::replan_dirty_threshold, &C::replan_dirty_band>,
     ShowPair<&C::replan_dirty_threshold, &C::replan_dirty_band>},
    {"SEMTAG_REPLAN_PROFILE", "0,0",
     Pair<&C::replan_profile_records, &C::replan_profile_ratio>,
     ShowPair<&C::replan_profile_records, &C::replan_profile_ratio>},
    {"SEMTAG_REPLAN_PAIR", "",
     [](std::string_view t, C* c) {
       return (t.empty() || IsPair(t)) && Text<&C::replan_pair>(t, c);
     },
     Show<&C::replan_pair>},
    {"SEMTAG_REPLAN_DIR", ".", Text<&C::replan_dir>, Show<&C::replan_dir>},
};

const Knob* FindKnob(std::string_view name) {
  for (const Knob& knob : kKnobs) {
    if (name == knob.name) return &knob;
  }
  return nullptr;
}

/// Sets `knob` from `text` ("" = its default). An invalid value keeps the
/// default and adds the one warning format.
void Apply(const Knob& knob, std::string_view text, C* c,
           std::vector<std::string>* warnings) {
  knob.parse(knob.fallback, c);
  C trial = *c;
  if (!text.empty() && knob.parse(text, &trial)) {
    *c = std::move(trial);
  } else if (!text.empty() && warnings != nullptr) {
    warnings->push_back(std::string(knob.name) + "='" + std::string(text) +
                        "' is invalid; using the default '" + knob.fallback +
                        "'");
  }
}

void Warn(const std::vector<std::string>& warnings) {
  for (const std::string& w : warnings) {
    std::fprintf(stderr, "[WARN config/runtime_config.cc] %s\n", w.c_str());
  }
}

KnobMap ProcessEnvironment() {
  KnobMap env;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string_view kv = *entry;
    const size_t eq = kv.find('=');
    if (eq != std::string_view::npos) {
      env.emplace(kv.substr(0, eq), kv.substr(eq + 1));
    }
  }
  return env;
}

/// Every config ever published, and the current one. Leaked, like the obs
/// registries: pool threads and atexit hooks may read the config during
/// static destruction.
struct Snapshots {
  std::mutex mu;
  std::list<C> all;  // guarded by mu; never shrinks
  std::atomic<const C*> current{nullptr};

  void Publish(C config) {
    std::lock_guard<std::mutex> lock(mu);
    all.push_back(std::move(config));
    current.store(&all.back(), std::memory_order_release);
  }
};

Snapshots& GetSnapshots() {
  static Snapshots* snapshots = [] {
    auto* created = new Snapshots();
    std::vector<std::string> warnings;
    created->Publish(ParseRuntimeConfig(ProcessEnvironment(), &warnings));
    Warn(warnings);
    return created;
  }();
  return *snapshots;
}

}  // namespace

const RuntimeConfig& GetRuntimeConfig() {
  return *GetSnapshots().current.load(std::memory_order_acquire);
}

RuntimeConfig ParseRuntimeConfig(const KnobMap& env,
                                 std::vector<std::string>* warnings) {
  C config;
  if (const auto home = env.find("HOME"); home != env.end()) {
    config.home = home->second;
  }
  for (const Knob& knob : kKnobs) {
    const auto it = env.find(knob.name);
    Apply(knob, it == env.end() ? "" : it->second, &config, warnings);
  }
  return config;
}

std::vector<std::string> RuntimeKnobNames() {
  std::vector<std::string> names;
  for (const Knob& knob : kKnobs) names.push_back(knob.name);
  return names;
}

std::string RenderKnob(const RuntimeConfig& config, std::string_view name) {
  const Knob* knob = FindKnob(name);
  return knob != nullptr ? knob->render(config) : std::string();
}

std::vector<std::string> ChildEnvironment(const KnobMap& knobs) {
  KnobMap env = ProcessEnvironment();
  for (const auto& [name, value] : knobs) env[name] = value;
  std::vector<std::string> entries;
  for (const auto& [name, value] : env) entries.push_back(name + "=" + value);
  return entries;
}

ScopedRuntimeOverride::ScopedRuntimeOverride(const KnobMap& knobs)
    : previous_(&GetRuntimeConfig()) {
  C config = *previous_;
  std::vector<std::string> warnings;
  for (const auto& [name, value] : knobs) {
    const Knob* knob = FindKnob(name);
    if (knob == nullptr) {
      std::fprintf(stderr, "ScopedRuntimeOverride: %s is not a knob\n",
                   name.c_str());
      std::abort();
    }
    Apply(*knob, value, &config, &warnings);
  }
  Warn(warnings);
  GetSnapshots().Publish(std::move(config));
}

ScopedRuntimeOverride::~ScopedRuntimeOverride() {
  GetSnapshots().current.store(previous_, std::memory_order_release);
}

}  // namespace semtag
