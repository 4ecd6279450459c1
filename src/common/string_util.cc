#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace semtag {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string WithCommas(int64_t n) {
  const bool neg = n < 0;
  std::string digits = std::to_string(neg ? -n : n);
  std::string out;
  const size_t len = digits.size();
  for (size_t i = 0; i < len; ++i) {
    if (i > 0 && (len - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return neg ? "-" + out : out;
}

bool ParseDouble(std::string_view s, double* out) {
  s = StripAsciiWhitespace(s);
  if (s.empty() || s.size() >= 64) return false;
  char buf[64];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end != buf + s.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = StripAsciiWhitespace(s);
  if (s.empty() || s.size() >= 32) return false;
  char buf[32];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (end != buf + s.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::string HumanSeconds(double seconds) {
  if (seconds < 60.0) return StrFormat("%.2fs", seconds);
  if (seconds < 3600.0) return StrFormat("%.1fm", seconds / 60.0);
  return StrFormat("%.2fh", seconds / 3600.0);
}

}  // namespace semtag
