#include "common/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "config/runtime_config.h"
#include "obs/metrics.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace semtag {

namespace {

struct ArmedFault {
  FaultSpec spec;
  int eligible = 0;   // eligible probes seen so far
  int triggered = 0;  // times this spec fired
};

struct Registry {
  std::mutex mu;
  std::vector<ArmedFault> faults;
  int trigger_counts[kNumFaultPoints] = {};
};

/// True while any fault is armed; lets unarmed probes skip the mutex.
std::atomic<bool> g_armed{false};

Result<FaultPoint> PointFromName(std::string_view name) {
  if (name == "write_fail") return FaultPoint::kWriteFail;
  if (name == "read_corrupt") return FaultPoint::kReadCorrupt;
  if (name == "nan_loss") return FaultPoint::kNonFiniteLoss;
  if (name == "nan_grad") return FaultPoint::kNonFiniteGrad;
  if (name == "stall") return FaultPoint::kStall;
  if (name == "crash") return FaultPoint::kCrash;
  return Status::InvalidArgument("unknown fault point: " + std::string(name));
}

void LoadConfig(Registry* r) {
  for (const auto& entry : Split(GetRuntimeConfig().fault, ';')) {
    if (StripAsciiWhitespace(entry).empty()) continue;
    auto parsed = ParseFaultSpec(entry);
    if (!parsed.ok()) {
      SEMTAG_LOG(kError, "ignoring SEMTAG_FAULT entry '%s': %s",
                 entry.c_str(), parsed.status().ToString().c_str());
      continue;
    }
    r->faults.push_back({std::move(parsed).ValueOrDie(), 0, 0});
  }
  g_armed.store(!r->faults.empty(), std::memory_order_release);
}

/// Created on first use, armed from the runtime config's SEMTAG_FAULT.
Registry& GetRegistry() {
  static Registry& r = *[] {
    auto* created = new Registry();
    LoadConfig(created);
    return created;
  }();
  return r;
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kWriteFail:
      return "write_fail";
    case FaultPoint::kReadCorrupt:
      return "read_corrupt";
    case FaultPoint::kNonFiniteLoss:
      return "nan_loss";
    case FaultPoint::kNonFiniteGrad:
      return "nan_grad";
    case FaultPoint::kStall:
      return "stall";
    case FaultPoint::kCrash:
      return "crash";
  }
  return "?";
}

Result<FaultSpec> ParseFaultSpec(std::string_view entry) {
  const auto fields = Split(StripAsciiWhitespace(entry), ':');
  if (fields.empty() || fields[0].empty()) {
    return Status::InvalidArgument("empty fault spec entry");
  }
  FaultSpec spec;
  SEMTAG_ASSIGN_OR_RETURN(spec.point, PointFromName(fields[0]));
  for (size_t i = 1; i < fields.size(); ++i) {
    const auto eq = fields[i].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault field missing '=': " + fields[i]);
    }
    const std::string key = fields[i].substr(0, eq);
    const std::string value = fields[i].substr(eq + 1);
    if (key == "match") {
      spec.match = value;
      continue;
    }
    int64_t n = 0;
    if (!ParseInt64(value, &n) || n < 0) {
      return Status::InvalidArgument("bad fault field value: " + fields[i]);
    }
    if (key == "after") {
      spec.after = static_cast<int>(n);
    } else if (key == "count") {
      spec.count = static_cast<int>(n);
    } else if (key == "every") {
      spec.every = std::max<int>(1, static_cast<int>(n));
    } else if (key == "ms") {
      spec.ms = static_cast<int>(n);
    } else {
      return Status::InvalidArgument("unknown fault field: " + key);
    }
  }
  return spec;
}

Status SetFaultsFromSpec(std::string_view spec) {
  std::vector<FaultSpec> parsed;
  for (const auto& entry : Split(spec, ';')) {
    if (StripAsciiWhitespace(entry).empty()) continue;
    SEMTAG_ASSIGN_OR_RETURN(FaultSpec s, ParseFaultSpec(entry));
    parsed.push_back(std::move(s));
  }
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.faults.clear();
  for (auto& s : parsed) r.faults.push_back({std::move(s), 0, 0});
  for (int& c : r.trigger_counts) c = 0;
  g_armed.store(!r.faults.empty(), std::memory_order_release);
  return Status::OK();
}

void ClearFaults() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.faults.clear();
  for (int& c : r.trigger_counts) c = 0;
  g_armed.store(false, std::memory_order_release);
}

bool FaultInjected(FaultPoint point, std::string_view context) {
  Registry& r = GetRegistry();
  if (!g_armed.load(std::memory_order_acquire)) return false;
  int stall_ms = -1;
  bool triggered = false;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& armed : r.faults) {
      const FaultSpec& s = armed.spec;
      if (s.point != point) continue;
      if (!s.match.empty() &&
          context.find(s.match) == std::string_view::npos) {
        continue;
      }
      const int eligible = armed.eligible++;
      if (eligible < s.after) continue;
      if ((eligible - s.after) % s.every != 0) continue;
      if (s.count >= 0 && armed.triggered >= s.count) continue;
      ++armed.triggered;
      ++r.trigger_counts[static_cast<int>(point)];
      triggered = true;
      if (point == FaultPoint::kStall) stall_ms = s.ms;
      break;
    }
  }
  if (!triggered) return false;
  SEMTAG_LOG(kWarning, "fault injected: %s at %.*s", FaultPointName(point),
             static_cast<int>(context.size()), context.data());
  if (obs::MetricsEnabled()) {
    obs::GetCounter(std::string("fault/fired/") + FaultPointName(point))
        .Add(1);
  }
  if (point == FaultPoint::kCrash) {
#ifdef __unix__
    _exit(137);
#else
    std::abort();
#endif
  }
  if (stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  return true;
}

int FaultTriggerCount(FaultPoint point) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.trigger_counts[static_cast<int>(point)];
}

}  // namespace semtag
