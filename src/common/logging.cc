#include "common/logging.h"

#include <atomic>
#include <cstdarg>
#include <mutex>

namespace semtag {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

/// Serializes sink writes: parallel experiment cells log concurrently, and
/// interleaved vfprintf calls would shred lines. A function-local static
/// avoids any init-order hazard with logs emitted during static
/// initialization.
std::mutex& SinkMutex() {
  static std::mutex& mu = *new std::mutex();
  return mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace internal {

void LogMessage(LogLevel level, const char* file, int line, const char* fmt,
                ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fprintf(stderr, "[%s %s:%d] ", LevelName(level), file, line);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace internal
}  // namespace semtag
