#include "obs/validate.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace semtag::obs {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " (at offset %zu)", pos_);
      *error = error_ + buf;
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      *error = "trailing content after JSON value";
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  /// Counts one nesting level for the lifetime of a container parse.
  class DepthGuard {
   public:
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    int* depth_;
  };

  bool ParseObject(JsonValue* out) {
    const DepthGuard guard(&depth_);
    if (depth_ > kMaxJsonDepth) return Fail("nesting too deep");
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return Fail("expected object key");
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    const DepthGuard guard(&depth_);
    if (depth_ > kMaxJsonDepth) return Fail("nesting too deep");
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            // Exports only emit \u00xx control escapes; decode to one byte.
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape digit");
            }
            *out += static_cast<char>(code & 0xff);
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      *out += c;
    }
    return Fail("unterminated string");
  }

  bool ParseKeyword(JsonValue* out) {
    auto match = [&](const char* word) {
      const size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return Fail("unknown keyword");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects on the parse stack
  std::string error_;
};

ValidationResult Invalid(std::string error) {
  ValidationResult r;
  r.error = std::move(error);
  return r;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

ValidationResult ValidateTraceJson(const std::string& content) {
  JsonValue root;
  std::string error;
  if (!ParseJson(content, &root, &error)) {
    return Invalid("trace is not valid JSON: " + error);
  }
  if (!root.is_object()) return Invalid("trace root is not an object");
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Invalid("missing traceEvents array");
  }
  ValidationResult result;
  // Per-tid stack of open span names: E must close the most recent B.
  std::map<int, std::vector<std::string>> open;
  std::map<int, double> last_ts;
  for (const JsonValue& e : events->array) {
    if (!e.is_object()) return Invalid("traceEvents entry is not an object");
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) return Invalid("event missing ph");
    if (ph->string_value != "B" && ph->string_value != "E") {
      continue;  // metadata/counter events don't affect balance
    }
    const JsonValue* name = e.Find("name");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* tid = e.Find("tid");
    const JsonValue* pid = e.Find("pid");
    if (name == nullptr || !name->is_string()) return Invalid("event missing name");
    if (ts == nullptr || !ts->is_number()) return Invalid("event missing ts");
    if (tid == nullptr || !tid->is_number()) return Invalid("event missing tid");
    if (pid == nullptr || !pid->is_number()) return Invalid("event missing pid");
    const int t = static_cast<int>(tid->number);
    auto [it, inserted] = last_ts.emplace(t, ts->number);
    if (!inserted) {
      if (ts->number < it->second) {
        return Invalid("events for tid " + std::to_string(t) +
                       " are not in timestamp order");
      }
      it->second = ts->number;
    }
    auto& stack = open[t];
    if (ph->string_value == "B") {
      stack.push_back(name->string_value);
    } else {
      if (stack.empty()) {
        return Invalid("E event with no open B on tid " + std::to_string(t));
      }
      if (stack.back() != name->string_value) {
        return Invalid("E event '" + name->string_value +
                       "' does not close open span '" + stack.back() +
                       "' on tid " + std::to_string(t));
      }
      stack.pop_back();
    }
    ++result.events;
  }
  for (const auto& [t, stack] : open) {
    if (!stack.empty()) {
      return Invalid("unbalanced B event '" + stack.back() + "' on tid " +
                     std::to_string(t));
    }
  }
  result.ok = true;
  return result;
}

ValidationResult ValidateMetricsJson(const std::string& content) {
  JsonValue root;
  std::string error;
  if (!ParseJson(content, &root, &error)) {
    return Invalid("metrics are not valid JSON: " + error);
  }
  if (!root.is_object()) return Invalid("metrics root is not an object");
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != "semtag-metrics-v1") {
    return Invalid("missing schema marker semtag-metrics-v1");
  }
  ValidationResult result;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* v = root.Find(section);
    if (v == nullptr || !v->is_object()) {
      return Invalid(std::string("missing ") + section + " object");
    }
  }
  for (const auto& [name, v] : root.Find("counters")->object) {
    if (!v.is_number() || v.number < 0) {
      return Invalid("counter " + name + " is not a non-negative number");
    }
    ++result.counters;
  }
  for (const auto& [name, h] : root.Find("histograms")->object) {
    if (!h.is_object()) return Invalid("histogram " + name + " not an object");
    const JsonValue* bounds = h.Find("bounds");
    const JsonValue* counts = h.Find("counts");
    const JsonValue* count = h.Find("count");
    if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
        !counts->is_array() || count == nullptr || !count->is_number()) {
      return Invalid("histogram " + name + " missing bounds/counts/count");
    }
    if (counts->array.size() != bounds->array.size() + 1) {
      return Invalid("histogram " + name +
                     ": counts must have bounds+1 entries");
    }
    double prev = -std::numeric_limits<double>::infinity();
    for (const JsonValue& b : bounds->array) {
      if (!b.is_number() || b.number <= prev) {
        return Invalid("histogram " + name + ": bounds not increasing");
      }
      prev = b.number;
    }
    double total = 0;
    for (const JsonValue& c : counts->array) {
      if (!c.is_number() || c.number < 0) {
        return Invalid("histogram " + name + ": negative bucket count");
      }
      total += c.number;
    }
    if (std::fabs(total - count->number) > 0.5) {
      return Invalid("histogram " + name + ": count != sum(counts)");
    }
    ++result.histograms;
  }
  result.ok = true;
  return result;
}

ValidationResult ValidateTraceFile(const std::string& path) {
  std::string content, error;
  if (!ReadFile(path, &content, &error)) return Invalid(error);
  return ValidateTraceJson(content);
}

ValidationResult ValidateMetricsFile(const std::string& path) {
  std::string content, error;
  if (!ReadFile(path, &content, &error)) return Invalid(error);
  return ValidateMetricsJson(content);
}

}  // namespace semtag::obs
