#ifndef SEMTAG_COMMON_LOGGING_H_
#define SEMTAG_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

namespace semtag {

/// Severity levels for SEMTAG_LOG.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Minimum severity printed to stderr. Defaults to kInfo; benches raise it
/// to kWarning to keep table output clean.
void SetLogLevel(LogLevel level);

namespace internal {
void LogMessage(LogLevel level, const char* file, int line, const char* fmt,
                ...) __attribute__((format(printf, 4, 5)));
}  // namespace internal

}  // namespace semtag

/// printf-style logging: SEMTAG_LOG(kInfo, "trained in %.2fs", t).
#define SEMTAG_LOG(level, ...)                                          \
  ::semtag::internal::LogMessage(::semtag::LogLevel::level, __FILE__, \
                                 __LINE__, __VA_ARGS__)

/// Fatal check used for programmer errors (not data errors, which use
/// Status). Always on, including in release builds.
#define SEMTAG_CHECK(cond)                                                 \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,        \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

#endif  // SEMTAG_COMMON_LOGGING_H_
