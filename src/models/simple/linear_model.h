#ifndef SEMTAG_MODELS_SIMPLE_LINEAR_MODEL_H_
#define SEMTAG_MODELS_SIMPLE_LINEAR_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/model.h"
#include "text/bow_vectorizer.h"

namespace semtag::models {

/// A token's contribution to a linear decision (Explain output).
struct TokenContribution {
  std::string feature;  // n-gram, e.g. "great" or "would_recommend"
  double contribution;  // weight * feature value; sign = direction
};

/// The BoW linear models, LR and SVM: a fitted vectorizer, one weight per
/// feature and a bias. Subclasses train the weights and map the decision
/// value w.x + b to their score; this class persists and explains them.
/// The checkpoint is versioned line-oriented text: portable, diffable,
/// and inspectable.
class LinearModel : public TaggingModel {
 public:
  bool is_deep() const override { return false; }

  size_t num_features() const { return weights_.size(); }

  /// Persists the trained model (vocabulary, IDF, weights);
  /// LoadLinearModel restores a ready-to-score model.
  Status Save(const std::string& path) const;

  /// Top-k features driving this text's score, by |weight * value|
  /// (a positive contribution pushes toward the tag).
  std::vector<TokenContribution> Explain(std::string_view text,
                                         int k = 5) const;

 protected:
  /// w.x + b for `text`. Requires a trained model.
  double Decision(std::string_view text) const;

  text::BowVectorizer vectorizer_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
  bool trained_ = false;

  friend Result<std::unique_ptr<LinearModel>> LoadLinearModel(
      const std::string& path);
};

/// Reads a file written by LinearModel::Save and returns the family its
/// `model` line names (LR or SVM), ready to score. A malformed file is an
/// error, never an abort: an n-gram range outside [1, 8], a 0/1 flag with
/// another value, a feature count the table does not hold, or a feature
/// listed twice.
Result<std::unique_ptr<LinearModel>> LoadLinearModel(const std::string& path);

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_SIMPLE_LINEAR_MODEL_H_
