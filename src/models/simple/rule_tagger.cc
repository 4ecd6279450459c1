#include "models/simple/rule_tagger.h"

#include "common/timer.h"
#include "data/analysis.h"

namespace semtag::models {

Status RuleTagger::Train(const data::Dataset& train) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  const auto tokens = data::TopInformativeTokens(
      train, options_.max_rules, options_.min_records);
  for (const auto& t : tokens) {
    if (t.p - t.n >= options_.min_gap) keywords_.insert(t.token);
  }
  if (keywords_.empty()) {
    return Status::FailedPrecondition(
        "no token meets the rule-induction gap; lower min_gap");
  }
  set_train_seconds(timer.ElapsedSeconds());
  return Status::OK();
}

double RuleTagger::Score(std::string_view text) const {
  const auto tokens = text::Tokenize(text);
  if (tokens.empty()) return 0.0;
  int hits = 0;
  for (const auto& t : tokens) hits += keywords_.count(t) > 0;
  return static_cast<double>(hits) / static_cast<double>(tokens.size());
}

}  // namespace semtag::models
