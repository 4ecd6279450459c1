#ifndef SEMTAG_MODELS_SIMPLE_LINEAR_SVM_H_
#define SEMTAG_MODELS_SIMPLE_LINEAR_SVM_H_

#include "models/simple/linear_model.h"
#include "text/bow_vectorizer.h"

namespace semtag::models {

/// Options for LinearSvm.
struct SvmOptions {
  /// Soft-margin cost C (the liblinear default).
  double c = 1.0;
  /// Dual-coordinate-descent epochs over the training set.
  int max_epochs = 20;
  /// Stop when the largest projected-gradient magnitude in an epoch falls
  /// below this tolerance.
  double tolerance = 1e-3;
  uint64_t seed = 19;
  text::BowOptions bow;
};

/// L1-loss linear SVM over BoW(1,2)+TF-IDF features, trained with dual
/// coordinate descent (the liblinear algorithm sklearn's LinearSVC wraps —
/// Section 3.2's SVM). Score() returns the signed margin; the natural
/// decision boundary is 0.
class LinearSvm : public LinearModel {
 public:
  explicit LinearSvm(SvmOptions options = {}) : options_(options) {}

  std::string name() const override { return "SVM"; }
  Status Train(const data::Dataset& train) override;
  double Score(std::string_view text) const override;
  double DecisionThreshold() const override { return 0.0; }

 private:
  SvmOptions options_;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_SIMPLE_LINEAR_SVM_H_
