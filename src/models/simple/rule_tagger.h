#ifndef SEMTAG_MODELS_SIMPLE_RULE_TAGGER_H_
#define SEMTAG_MODELS_SIMPLE_RULE_TAGGER_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "models/model.h"
#include "text/tokenizer.h"

namespace semtag::models {

/// Options for RuleTagger.
struct RuleTaggerOptions {
  /// How many keyword rules to induce when Train() is used.
  int max_rules = 40;
  /// A token qualifies as a rule when P - N (class-conditional document
  /// occurrence gap, Table 8's measure) is at least this large.
  double min_gap = 0.08;
  /// Minimum records a token must appear in to be considered.
  int64_t min_records = 5;
};

/// Keyword-rule tagger: the "rule programming" approach the paper's
/// introduction contrasts with supervised learning. A text is tagged when
/// it contains at least one rule keyword.
///
/// Rules are induced from labeled data (Train picks the top P-N tokens),
/// which models an expert who skims the data for trigger words. The model
/// illustrates the intro's point: cheap, interpretable, and usually well
/// below learned models on F1.
class RuleTagger : public TaggingModel {
 public:
  explicit RuleTagger(RuleTaggerOptions options = {})
      : options_(options) {}

  std::string name() const override { return "RULES"; }
  bool is_deep() const override { return false; }

  /// Induces keyword rules from the training data.
  Status Train(const data::Dataset& train) override;

  /// Fraction of the text's tokens that are rule keywords; >= any hit
  /// tags the text, so the natural threshold is just above zero.
  double Score(std::string_view text) const override;
  double DecisionThreshold() const override { return 1e-9; }

  const std::unordered_set<std::string>& keywords() const {
    return keywords_;
  }

 private:
  RuleTaggerOptions options_;
  std::unordered_set<std::string> keywords_;
};

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_SIMPLE_RULE_TAGGER_H_
