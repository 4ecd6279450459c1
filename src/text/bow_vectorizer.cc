#include "text/bow_vectorizer.h"

#include <cmath>

#include "common/logging.h"
#include "text/ngram.h"

namespace semtag::text {

void BowVectorizer::Fit(const std::vector<std::string>& texts) {
  VocabularyBuilder builder;
  for (const auto& t : texts) {
    builder.AddDocument(
        ExtractNgrams(Tokenize(t), options_.min_ngram, options_.max_ngram));
  }
  vocab_ = builder.Build(options_.min_doc_freq, options_.max_features);
  idf_.assign(static_cast<size_t>(vocab_.size()), 1.0f);
  if (options_.use_idf) {
    const double n = static_cast<double>(texts.size());
    for (int32_t id = 0; id < vocab_.size(); ++id) {
      const double df = static_cast<double>(vocab_.DocFreqOf(id));
      idf_[static_cast<size_t>(id)] =
          static_cast<float>(std::log(n / std::max(df, 1.0)) + 1.0);
    }
  }
}

BowVectorizer BowVectorizer::FromState(BowOptions options, Vocabulary vocab,
                                       std::vector<float> idf) {
  BowVectorizer out(options);
  SEMTAG_CHECK(static_cast<size_t>(vocab.size()) == idf.size());
  out.vocab_ = std::move(vocab);
  out.idf_ = std::move(idf);
  return out;
}

la::SparseVector BowVectorizer::Transform(std::string_view text) const {
  la::SparseVector vec;
  const auto grams =
      ExtractNgrams(Tokenize(text), options_.min_ngram, options_.max_ngram);
  vec.reserve(grams.size());
  for (const auto& g : grams) {
    const int32_t id = vocab_.Lookup(g);
    if (id != kUnknownTokenId) {
      vec.Push(static_cast<uint32_t>(id), 1.0f);
    }
  }
  vec.SortAndMerge();
  if (options_.use_idf) {
    // After SortAndMerge each entry value is the raw term count; scale by
    // the feature's IDF weight.
    la::SparseVector weighted;
    weighted.reserve(vec.nnz());
    for (const auto& e : vec.entries()) {
      weighted.Push(e.index, e.value * idf_[e.index]);
    }
    vec = std::move(weighted);
  }
  if (options_.l2_normalize) vec.L2Normalize();
  return vec;
}

la::SparseMatrix BowVectorizer::TransformAll(
    const std::vector<std::string>& texts) const {
  la::SparseMatrix m(num_features());
  for (const auto& t : texts) m.AddRow(Transform(t));
  return m;
}

}  // namespace semtag::text
