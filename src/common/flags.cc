#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/string_util.h"

namespace semtag {
namespace {

/// A default or bound as usage text. Not through std::ostringstream: its
/// locale set-up added ~0.45 MB to the daemon's peak RSS.
template <typename T>
std::string Show(T v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    return StrFormat("%g", v);
  }
}

/// "0 to 65535", or ">= 1" when `hi` is the type's maximum.
template <typename T>
std::string Range(T lo, T hi) {
  return hi == std::numeric_limits<T>::max() ? ">= " + Show(lo)
                                             : Show(lo) + " to " + Show(hi);
}

/// The number `text` into *value when it lies in [lo, hi].
template <typename T>
bool SetNumber(std::string_view text, T lo, T hi, T* value) {
  std::conditional_t<std::is_integral_v<T>, int64_t, double> v = 0;
  if constexpr (std::is_integral_v<T>) {
    if (!ParseInt64(text, &v)) return false;
  } else {
    if (!ParseDouble(text, &v)) return false;
  }
  if (v < lo || v > hi) return false;
  *value = static_cast<T>(v);
  return true;
}

}  // namespace

Flags::Flags(std::string command) : command_(std::move(command)) {}

void Flags::String(const char* name, std::string* value, const char* help) {
  flags_.push_back({name, "TEXT", help, "", *value,
                    [value](std::string_view text) {
                      *value = std::string(text);
                      return true;
                    }});
}

template <typename T>
void Flags::Number(const char* name, T* value, std::type_identity_t<T> lo,
                   std::type_identity_t<T> hi, const char* help) {
  flags_.push_back({name, std::is_integral_v<T> ? "INT" : "NUM", help,
                    Range(lo, hi), Show(*value),
                    [value, lo, hi](std::string_view text) {
                      return SetNumber(text, lo, hi, value);
                    }});
}
template void Flags::Number(const char*, int*, int, int, const char*);
template void Flags::Number(const char*, int64_t*, int64_t, int64_t,
                            const char*);
template void Flags::Number(const char*, double*, double, double,
                            const char*);

void Flags::Bool(const char* name, bool* value, const char* help) {
  flags_.push_back({name, "", help, "", "", [value](std::string_view) {
                      *value = true;
                      return true;
                    }});
}

Status Flags::Parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!StartsWith(arg, "--") || arg.size() == 2) {
      return Status::InvalidArgument(
          StrFormat("unexpected argument '%s'", argv[i]));
    }
    const std::string_view body = arg.substr(2);
    const size_t eq = body.find('=');
    const std::string_view name = body.substr(0, eq);
    if (name == "help") {
      help_ = true;
      return Status::OK();
    }
    const auto it =
        std::find_if(flags_.begin(), flags_.end(),
                     [name](const Flag& f) { return f.name == name; });
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + std::string(name));
    }
    Flag& flag = *it;
    if (flag.seen) {
      return Status::InvalidArgument("--" + flag.name + " given twice");
    }
    flag.seen = true;
    std::string_view value;
    if (flag.value_type.empty()) {
      if (eq != std::string_view::npos) {
        return Status::InvalidArgument("--" + flag.name + " takes no value");
      }
    } else if (eq != std::string_view::npos) {
      value = body.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      value = argv[++i];
    } else {
      return Status::InvalidArgument("--" + flag.name + " needs a value");
    }
    if (!flag.set(value)) {
      return Status::InvalidArgument(
          "--" + flag.name + ": bad value '" + std::string(value) +
          "'; want " + (flag.value_type == "INT" ? "an integer" : "a number") +
          ", " + flag.range);
    }
  }
  return Status::OK();
}

void Flags::ParseOrExit(int argc, const char* const* argv, int first) {
  const Status st = Parse(argc, argv, first);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n(%s --help lists the flags)\n",
                 command_.c_str(), st.message().c_str(), command_.c_str());
    std::exit(2);
  }
  if (help_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
}

void Flags::Fail(std::string_view name, std::string_view problem) const {
  std::fprintf(stderr, "%s: --%.*s: %.*s\n", command_.c_str(),
               static_cast<int>(name.size()), name.data(),
               static_cast<int>(problem.size()), problem.data());
  std::exit(2);
}

std::string Flags::Usage() const {
  const auto head = [](const Flag& flag) {
    return "--" + flag.name +
           (flag.value_type.empty() ? "" : " " + flag.value_type);
  };
  size_t width = 0;
  for (const Flag& flag : flags_) width = std::max(width, head(flag).size());
  std::string out = "usage: " + command_ + " [flags]\n";
  for (const Flag& flag : flags_) {
    std::string line = StrFormat("  %-*s  %s", static_cast<int>(width),
                                 head(flag).c_str(), flag.help.c_str());
    if (!flag.range.empty()) {
      line += " (" + flag.range + "; default " + flag.fallback + ")";
    } else if (!flag.fallback.empty()) {
      line += " (default " + flag.fallback + ")";
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace semtag
