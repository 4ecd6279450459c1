#ifndef SEMTAG_COMMON_FLAGS_H_
#define SEMTAG_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace semtag {

/// The command line of one binary (DESIGN.md "Runtime configuration").
/// Each flag is declared once, with its type, its help line and the
/// variable it sets; that variable's value at declaration is the default.
/// A flag is a string, an integer or a real number in a range, or a
/// presence-only bool. Parse accepts `--name value` and `--name=value`; a
/// bool takes no value, so the argument after it is never swallowed.
/// Everything else is an error that names the flag: an unknown flag, a
/// positional argument, a missing value, a value that does not parse or
/// lies outside its range, and a flag given twice.
class Flags {
 public:
  /// `command` heads the usage text and errors: "semtag train".
  explicit Flags(std::string command);

  void String(const char* name, std::string* value, const char* help);
  /// An integer (T = int or int64_t) or a real number (T = double) in
  /// [lo, hi].
  template <typename T>
  void Number(const char* name, T* value, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi, const char* help);
  void Bool(const char* name, bool* value, const char* help);

  /// Sets the declared variables from argv[first, argc). `--help` stops
  /// parsing and sets help().
  Status Parse(int argc, const char* const* argv, int first = 1);
  bool help() const { return help_; }

  /// Parse for a main(): on --help prints Usage() to stdout and exits 0,
  /// on an error prints it to stderr and exits 2.
  void ParseOrExit(int argc, const char* const* argv, int first = 1);

  /// Rejects a value that parsed but that the binary cannot use (an
  /// unknown model name, say): prints "<command>: --<name>: <problem>" to
  /// stderr and exits 2.
  [[noreturn]] void Fail(std::string_view name,
                         std::string_view problem) const;

  /// "usage: <command> [flags]", then one line per flag: its name, value
  /// type, help, range and default.
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    std::string value_type;  // "TEXT", "INT" or "NUM"; "" for a bool
    std::string help;
    std::string range;     // "0 to 65535", ">= 1"; "" for any value
    std::string fallback;  // the default as text; "" when none is shown
    std::function<bool(std::string_view)> set;  // false: bad value
    bool seen = false;
  };

  std::string command_;
  std::vector<Flag> flags_;
  bool help_ = false;
};

}  // namespace semtag

#endif  // SEMTAG_COMMON_FLAGS_H_
