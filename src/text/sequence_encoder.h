#ifndef SEMTAG_TEXT_SEQUENCE_ENCODER_H_
#define SEMTAG_TEXT_SEQUENCE_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace semtag::text {

/// Reserved ids at the head of every sequence vocabulary.
/// [PAD]=0 pads short sequences, [UNK]=1 replaces out-of-vocabulary words,
/// [CLS]=2 heads every encoded sequence (BERT-style classification token),
/// [MASK]=3 is used by masked-language-model pretraining.
inline constexpr int32_t kPadId = 0;
inline constexpr int32_t kUnkId = 1;
inline constexpr int32_t kClsId = 2;
inline constexpr int32_t kMaskId = 3;
inline constexpr int32_t kNumSpecialTokens = 4;

/// Options for SequenceEncoder.
struct SequenceEncoderOptions {
  /// Maximum sequence length including the leading [CLS].
  int max_len = 24;
  /// Keep words seen in at least this many training documents.
  int64_t min_doc_freq = 2;
  /// Cap on word vocabulary (excluding special tokens, 0 = unlimited).
  size_t max_words = 20000;
  /// Prepend [CLS] (on for transformer models, off for CNN/LSTM).
  bool add_cls = false;
};

/// Converts raw text to fixed-length id sequences: the input representation
/// of the deep models (Section 3.3). Unknown words map to [UNK]; sequences
/// are truncated / right-padded with [PAD] to max_len.
class SequenceEncoder {
 public:
  explicit SequenceEncoder(SequenceEncoderOptions options = {})
      : options_(options) {}

  /// Learns the word vocabulary from the corpus.
  void Fit(const std::vector<std::string>& texts);

  /// Installs a pre-built word vocabulary (used to share the pretraining
  /// vocabulary between the synthetic wiki corpus and downstream tasks).
  void SetVocabulary(Vocabulary vocab) { vocab_ = std::move(vocab); }

  /// Encodes one text to exactly max_len ids.
  std::vector<int32_t> Encode(std::string_view text) const;

  /// Number of ids the embedding table must cover
  /// (special tokens + words).
  int32_t vocab_size() const { return kNumSpecialTokens + vocab_.size(); }

  int max_len() const { return options_.max_len; }
  bool add_cls() const { return options_.add_cls; }
  const Vocabulary& word_vocabulary() const { return vocab_; }

 private:
  SequenceEncoderOptions options_;
  Vocabulary vocab_;
};

}  // namespace semtag::text

#endif  // SEMTAG_TEXT_SEQUENCE_ENCODER_H_
