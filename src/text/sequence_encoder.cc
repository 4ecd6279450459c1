#include "text/sequence_encoder.h"

namespace semtag::text {

void SequenceEncoder::Fit(const std::vector<std::string>& texts) {
  VocabularyBuilder builder;
  for (const auto& t : texts) {
    builder.AddDocument(Tokenize(t));
  }
  vocab_ = builder.Build(options_.min_doc_freq, options_.max_words);
}

std::vector<int32_t> SequenceEncoder::Encode(std::string_view text) const {
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(options_.max_len));
  if (options_.add_cls) ids.push_back(kClsId);
  for (const auto& tok : Tokenize(text)) {
    if (static_cast<int>(ids.size()) >= options_.max_len) break;
    const int32_t word_id = vocab_.Lookup(tok);
    ids.push_back(word_id == kUnknownTokenId
                      ? kUnkId
                      : kNumSpecialTokens + word_id);
  }
  while (static_cast<int>(ids.size()) < options_.max_len) {
    ids.push_back(kPadId);
  }
  return ids;
}

}  // namespace semtag::text
