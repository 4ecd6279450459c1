#include "config/runtime_config.h"

#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <mutex>
#include <string_view>
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

/// "<simple>+<deep>", split at the last '+' so that hybrid names such as
/// "LR+eb" stay whole on the left.
bool IsPair(std::string_view t) {
  const size_t plus = t.rfind('+');
  return plus != std::string_view::npos && plus > 0 && plus + 1 < t.size();
}

/// One knob: its name, its default as knob text, and how to parse it.
/// `parse` accepts the default; it may leave *c half-written when it
/// fails, so callers parse into a copy.
struct Knob {
  const char* name;
  const char* fallback;
  bool (*parse)(std::string_view, C*);
};

// constexpr, so the table is initialized before any dynamic initializer
// runs: obs parses the config during static initialization.
constexpr Knob kKnobs[] = {
    {"SEMTAG_NUM_THREADS", "0",
     [](std::string_view t, C* c) {
       if (!Int<&C::num_threads, 0, INT_MAX>(t, c)) return false;
       c->num_threads = c->num_threads < 256 ? c->num_threads : 256;
       return true;
     }},
    {"SEMTAG_SIMD", "",
     [](std::string_view t, C* c) {
       return (t.empty() || t == "avx2" || t == "scalar") &&
              Text<&C::simd>(t, c);
     }},
    {"SEMTAG_QUANT", "0",
     [](std::string_view t, C* c) {
       c->quant = t == "1";
       return t == "0" || t == "1";
     }},
    {"SEMTAG_FAULT", "", Text<&C::fault>},
    {"SEMTAG_CELL_DEADLINE_MS", "0",
     Int<&C::cell_deadline_ms, 0, INT64_MAX>},
    {"SEMTAG_CACHE_DIR", "",
     [](std::string_view t, C* c) {
       c->cache_dir = !t.empty()          ? std::string(t)
                      : !c->home.empty() ? c->home + "/.cache/semtag"
                                         : "semtag_cache";
       return true;
     }},
    {"SEMTAG_METRICS", "", Text<&C::metrics_path>},
    {"SEMTAG_TRACE", "", Text<&C::trace_path>},
    {"SEMTAG_CASCADE", "auto",
     [](std::string_view t, C* c) {
       return (t == "auto" || t == "simple" || IsPair(t)) &&
              Text<&C::cascade>(t, c);
     }},
    {"SEMTAG_CASCADE_BUDGET", "0.5",
     [](std::string_view t, C* c) {
       double pts = 0.0;
       if (!Number(t, &pts) || pts < 0.0 || pts > 100.0) return false;
       c->cascade_budget = pts;
       return true;
     }},
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
