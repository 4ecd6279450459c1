#include "models/simple/linear_model.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "models/simple/linear_svm.h"
#include "models/simple/logistic_regression.h"

namespace semtag::models {

namespace {
constexpr const char* kFormatHeader = "semtag-linear-model v1";

/// Longest n-gram a checkpoint may ask for: far above the (1, 2) the study
/// uses, and it bounds the per-text n-gram loop.
constexpr int kMaxNgram = 8;

/// Escapes newlines in n-grams (tokens never contain them, but be safe).
std::string EscapeToken(const std::string& token) {
  std::string out;
  for (char c : token) {
    if (c == '\n' || c == '\r') out.push_back(' ');
    else out.push_back(c);
  }
  return out;
}

}  // namespace

Status LinearModel::Save(const std::string& path) const {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  const text::BowOptions& options = vectorizer_.options();
  const text::Vocabulary& vocab = vectorizer_.vocabulary();
  std::ostringstream out;
  out << kFormatHeader << "\n";
  out << "model " << name() << "\n";
  out << StrFormat("options %d %d %lld %zu %d %d\n", options.min_ngram,
                   options.max_ngram,
                   static_cast<long long>(options.min_doc_freq),
                   options.max_features, options.use_idf ? 1 : 0,
                   options.l2_normalize ? 1 : 0);
  out << StrFormat("bias %.9g\n", static_cast<double>(bias_));
  out << "features " << weights_.size() << "\n";
  for (int32_t id = 0; id < vocab.size(); ++id) {
    out << EscapeToken(vocab.TokenOf(id)) << "\t" << vocab.DocFreqOf(id)
        << "\t"
        << StrFormat("%.9g", static_cast<double>(vectorizer_.IdfOf(id)))
        << "\t" << StrFormat("%.9g", static_cast<double>(weights_[id]))
        << "\n";
  }
  return WriteStringToFile(path, out.str());
}

Result<std::unique_ptr<LinearModel>> LoadLinearModel(
    const std::string& path) {
  SEMTAG_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != kFormatHeader) {
    return Status::InvalidArgument("not a semtag linear model: " + path);
  }
  if (!std::getline(in, line) || !StartsWith(line, "model ")) {
    return Status::InvalidArgument("missing model line: " + path);
  }
  std::unique_ptr<LinearModel> model;
  const std::string family = line.substr(6);
  if (family == "LR") {
    model = std::make_unique<LogisticRegression>();
  } else if (family == "SVM") {
    model = std::make_unique<LinearSvm>();
  } else {
    return Status::InvalidArgument("not an LR or SVM checkpoint (model " +
                                   family + "): " + path);
  }
  // options <min_ngram> <max_ngram> <min_doc_freq> <max_features>
  //         <use_idf> <l2_normalize>
  const std::vector<std::string> words =
      std::getline(in, line) ? Split(line, ' ') : std::vector<std::string>();
  int64_t o[6] = {};
  bool ok = words.size() == 7 && words[0] == "options";
  for (size_t i = 0; ok && i < 6; ++i) ok = ParseInt64(words[i + 1], &o[i]);
  if (!ok || o[0] < 1 || o[1] < o[0] || o[1] > kMaxNgram || o[3] < 0 ||
      (o[4] != 0 && o[4] != 1) || (o[5] != 0 && o[5] != 1)) {
    return Status::InvalidArgument("bad options line: " + path);
  }
  text::BowOptions options;
  options.min_ngram = static_cast<int>(o[0]);
  options.max_ngram = static_cast<int>(o[1]);
  options.min_doc_freq = o[2];
  options.max_features = static_cast<size_t>(o[3]);
  options.use_idf = o[4] == 1;
  options.l2_normalize = o[5] == 1;
  double bias = 0.0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "bias %lf", &bias) != 1) {
    return Status::InvalidArgument("bad bias line: " + path);
  }
  // Feature ids are int32. The table grows line by line: the count is the
  // file's claim, not a size to reserve.
  int64_t count = 0;
  if (!std::getline(in, line) || !StartsWith(line, "features ") ||
      !ParseInt64(line.substr(9), &count) || count < 0 ||
      count > INT32_MAX) {
    return Status::InvalidArgument("bad features line: " + path);
  }
  text::Vocabulary vocab;
  std::vector<float> idf;
  for (int64_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument(StrFormat(
          "truncated feature table at %lld of %lld",
          static_cast<long long>(i), static_cast<long long>(count)));
    }
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 4) {
      return Status::InvalidArgument(
          StrFormat("feature line %lld has %zu fields",
                    static_cast<long long>(i), fields.size()));
    }
    if (vocab.Lookup(fields[0]) != text::kUnknownTokenId) {
      return Status::InvalidArgument(
          StrFormat("feature line %lld repeats '%s'",
                    static_cast<long long>(i), fields[0].c_str()));
    }
    vocab.Add(fields[0], std::atoll(fields[1].c_str()));
    idf.push_back(static_cast<float>(std::atof(fields[2].c_str())));
    model->weights_.push_back(
        static_cast<float>(std::atof(fields[3].c_str())));
  }
  model->vectorizer_ = text::BowVectorizer::FromState(
      options, std::move(vocab), std::move(idf));
  model->bias_ = static_cast<float>(bias);
  model->trained_ = true;
  return model;
}

double LinearModel::Decision(std::string_view text) const {
  SEMTAG_CHECK(trained_);
  const la::SparseVector x = vectorizer_.Transform(text);
  return x.Dot(weights_.data()) + bias_;
}

std::vector<TokenContribution> LinearModel::Explain(std::string_view text,
                                                    int k) const {
  SEMTAG_CHECK(trained_);
  const la::SparseVector x = vectorizer_.Transform(text);
  std::vector<TokenContribution> contributions;
  contributions.reserve(x.nnz());
  for (const auto& e : x.entries()) {
    const double c = static_cast<double>(e.value) * weights_[e.index];
    if (c == 0.0) continue;
    contributions.push_back(TokenContribution{
        vectorizer_.vocabulary().TokenOf(static_cast<int32_t>(e.index)), c});
  }
  std::sort(contributions.begin(), contributions.end(),
            [](const TokenContribution& a, const TokenContribution& b) {
              return std::fabs(a.contribution) > std::fabs(b.contribution);
            });
  if (static_cast<int>(contributions.size()) > k) {
    contributions.resize(static_cast<size_t>(k));
  }
  return contributions;
}

}  // namespace semtag::models
