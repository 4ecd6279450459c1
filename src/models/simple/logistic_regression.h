#ifndef SEMTAG_MODELS_SIMPLE_LOGISTIC_REGRESSION_H_
#define SEMTAG_MODELS_SIMPLE_LOGISTIC_REGRESSION_H_

#include "models/simple/linear_model.h"
#include "text/bow_vectorizer.h"

namespace semtag::models {

/// Options for LogisticRegression.
struct LrOptions {
  int epochs = 12;
  /// Initial SGD learning rate; decays as lr0 / (1 + t * decay).
  double learning_rate = 0.5;
  double lr_decay = 1e-4;
  /// L2 regularization strength.
  double l2 = 1e-5;
  uint64_t seed = 17;
  text::BowOptions bow;
};

/// Sparse logistic regression over BoW(1,2)+TF-IDF features, trained with
/// SGD (Section 3.2's LR). Score() returns P(y=1).
class LogisticRegression : public LinearModel {
 public:
  explicit LogisticRegression(LrOptions options = {})
      : options_(options) {}

  std::string name() const override { return "LR"; }
  Status Train(const data::Dataset& train) override;
  double Score(std::string_view text) const override;

 private:
  LrOptions options_;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_SIMPLE_LOGISTIC_REGRESSION_H_
