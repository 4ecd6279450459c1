#ifndef SEMTAG_COMMON_STRING_UTIL_H_
#define SEMTAG_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace semtag {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Splits on a single separator character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a count with thousands separators, e.g. 4750000 -> "4,750,000".
std::string WithCommas(int64_t n);

/// Validated numeric parsing (unlike atof/atol, rejects trailing garbage,
/// empty input, overflow, and — for doubles — non-finite values). On
/// failure returns false and leaves *out untouched.
bool ParseDouble(std::string_view s, double* out);
bool ParseInt64(std::string_view s, int64_t* out);

/// Formats seconds compactly: "0.42s", "13.0s", "4.2m", "1.3h".
std::string HumanSeconds(double seconds);

}  // namespace semtag

#endif  // SEMTAG_COMMON_STRING_UTIL_H_
