#include "text/tokenizer.h"

#include <cctype>

namespace semtag::text {

namespace {

bool IsWordChar(unsigned char c) { return std::isalnum(c); }

}  // namespace

std::vector<std::string> Tokenize(std::string_view textv) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  };
  for (size_t i = 0; i < textv.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(textv[i]);
    if (IsWordChar(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (c == '\'' && !current.empty() && i + 1 < textv.size() &&
               IsWordChar(static_cast<unsigned char>(textv[i + 1]))) {
      current.push_back('\'');
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

}  // namespace semtag::text
