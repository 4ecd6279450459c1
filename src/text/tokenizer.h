#ifndef SEMTAG_TEXT_TOKENIZER_H_
#define SEMTAG_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace semtag::text {

/// Splits text into lowercase word tokens. A token is a maximal run of
/// alphanumeric characters (plus apostrophes inside words, so "don't"
/// stays one token); everything else is a separator.
std::vector<std::string> Tokenize(std::string_view text);

}  // namespace semtag::text

#endif  // SEMTAG_TEXT_TOKENIZER_H_
