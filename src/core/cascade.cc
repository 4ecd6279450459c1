#include "core/cascade.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "data/specs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::core {

namespace {

/// Escalation sends at most this fraction of the accuracy budget's worth
/// of expected F1 to the simple-only decision: on cells where the
/// reference heat map already has the simple model within the budget of
/// the deep one, the deep tier buys nothing measurable.
double BudgetAsF1(double budget_pts) { return budget_pts / 100.0; }

/// Trailing fraction of the training set held out for calibration.
constexpr double kHoldoutFraction = 0.2;

}  // namespace

Status ParseCascadePair(const std::string& text, models::ModelKind* simple,
                        models::ModelKind* deep) {
  const size_t plus = text.rfind('+');
  if (plus == std::string::npos || plus == 0 || plus + 1 == text.size()) {
    return Status::InvalidArgument("not a <simple>+<deep> pair: " + text);
  }
  const auto front = models::ModelKindFromName(text.substr(0, plus));
  if (!front.ok()) return front.status();
  const auto back = models::ModelKindFromName(text.substr(plus + 1));
  if (!back.ok()) return back.status();
  if (models::IsDeep(*front) || *front == models::ModelKind::kCascade ||
      !models::IsDeep(*back)) {
    return Status::InvalidArgument("not a <simple>+<deep> pair: " + text);
  }
  *simple = *front;
  *deep = *back;
  return Status::OK();
}

Status ApplyCascadePolicy(const std::string& text, CascadeOptions* options) {
  if (text.empty() || text == "auto") return Status::OK();
  if (text == "simple") {
    options->policy = CascadePolicy::kSimpleOnly;
    return Status::OK();
  }
  const Status st = ParseCascadePair(text, &options->simple, &options->deep);
  if (!st.ok()) return st;
  options->policy = CascadePolicy::kPinnedPair;
  return Status::OK();
}

CascadePlan PlanCascade(const DatasetProfile& profile,
                        const std::vector<HeatMapRow>& reference,
                        const CascadeOptions& options) {
  return PlanCascadeBiased(profile, reference, options, nullptr, 0.0);
}

CascadePlan PlanCascadeBiased(const DatasetProfile& profile,
                              const std::vector<HeatMapRow>& reference,
                              const CascadeOptions& options,
                              const CascadePlan* incumbent,
                              double margin_pts) {
  CascadePlan plan;
  plan.simple = options.simple;
  plan.deep = options.deep;
  const HeatMapPoint point = InterpolateHeatMap(profile, reference);
  plan.expected_deep_f1 = point.bert_f1;
  plan.expected_simple_f1 = point.svm_f1;
  if (options.policy == CascadePolicy::kSimpleOnly) {
    plan.simple_only = true;
    plan.rationale = "simple-only forced (policy \"simple\")";
    return plan;
  }
  if (options.policy == CascadePolicy::kAuto) {
    // LR's sigmoid spreads margins smoothly under label noise where hinge
    // training piles them up near the boundary, which starves the
    // threshold sweep of resolution — so dirty cells front with LR.
    plan.simple = profile.labels_clean ? models::ModelKind::kSvm
                                       : models::ModelKind::kLr;
  }
  // The simple model wins the cell when its expected F1 plus the accuracy
  // budget reaches the deep one's: edge >= 0. The incumbent bias shifts
  // that boundary by margin_pts so a profile straddling the edge cannot
  // flap the decision.
  const double edge =
      point.svm_f1 + BudgetAsF1(options.budget_pts) - point.bert_f1;
  double bias = 0.0;
  if (incumbent != nullptr && margin_pts > 0.0) {
    bias = incumbent->simple_only ? -BudgetAsF1(margin_pts)
                                  : BudgetAsF1(margin_pts);
  }
  if (options.policy == CascadePolicy::kAuto && edge >= bias) {
    plan.simple_only = true;
    plan.rationale = StrFormat(
        "heat-map cell favours simple (expected simple F1 %.2f vs deep "
        "%.2f, budget %.2f pts): deep tier skipped entirely",
        point.svm_f1, point.bert_f1, options.budget_pts);
    return plan;
  }
  plan.rationale = StrFormat(
      "expected deep F1 %.2f vs simple %.2f: escalate low-margin examples "
      "%s -> %s, threshold calibrated to a %.2f-pt budget",
      point.bert_f1, point.svm_f1, models::ModelKindName(plan.simple),
      models::ModelKindName(plan.deep), options.budget_pts);
  return plan;
}

std::string CascadePairName(const CascadePlan& plan) {
  if (plan.simple_only) return "simple";
  return StrFormat("%s+%s", models::ModelKindName(plan.simple),
                   models::ModelKindName(plan.deep));
}

CascadeCalibration CalibrateCascadeThreshold(
    const std::vector<int>& labels, const std::vector<double>& simple_probs,
    const std::vector<double>& deep_probs, double budget_pts) {
  CascadeCalibration cal;
  const size_t n = labels.size();
  SEMTAG_CHECK(simple_probs.size() == n && deep_probs.size() == n);
  if (n == 0) return cal;

  // Confusion counts over the positive class; F1 needs only tp/fp/fn.
  int64_t tp = 0, fp = 0, fn = 0;
  const auto f1 = [](int64_t tp_, int64_t fp_, int64_t fn_) {
    const int64_t denom = 2 * tp_ + fp_ + fn_;
    return denom == 0 ? 0.0 : 2.0 * static_cast<double>(tp_) / denom;
  };
  std::vector<uint8_t> simple_pred(n), deep_pred(n);
  for (size_t i = 0; i < n; ++i) {
    simple_pred[i] = simple_probs[i] >= 0.5 ? 1 : 0;
    deep_pred[i] = deep_probs[i] >= 0.5 ? 1 : 0;
    tp += simple_pred[i] == 1 && labels[i] == 1;
    fp += simple_pred[i] == 1 && labels[i] != 1;
    fn += simple_pred[i] == 0 && labels[i] == 1;
  }
  cal.simple_f1 = f1(tp, fp, fn);
  {
    int64_t dtp = 0, dfp = 0, dfn = 0;
    for (size_t i = 0; i < n; ++i) {
      dtp += deep_pred[i] == 1 && labels[i] == 1;
      dfp += deep_pred[i] == 1 && labels[i] != 1;
      dfn += deep_pred[i] == 0 && labels[i] == 1;
    }
    cal.deep_f1 = f1(dtp, dfp, dfn);
  }

  // Sweep candidate thresholds in ascending margin order, flipping each
  // tied group from its simple to its deep prediction incrementally. The
  // escalated set at threshold t is exactly {i : margin_i <= t}, so the
  // escalation fraction is monotone in t and the first candidate within
  // budget is also the cheapest.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> margin(n);
  for (size_t i = 0; i < n; ++i) {
    margin[i] = std::abs(2.0 * simple_probs[i] - 1.0);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return margin[a] < margin[b];
  });

  cal.frontier.push_back({-1.0, 0.0, cal.simple_f1});
  const double floor = cal.deep_f1 - BudgetAsF1(budget_pts);
  bool chosen = cal.simple_f1 >= floor;
  if (chosen) {
    cal.threshold = -1.0;
    cal.escalation_fraction = 0.0;
    cal.cascade_f1 = cal.simple_f1;
  }
  size_t pos = 0;
  while (pos < n) {
    const double t = margin[order[pos]];
    // Flip the whole tied group: membership must not depend on sort order.
    while (pos < n && margin[order[pos]] == t) {
      const size_t i = order[pos++];
      tp -= simple_pred[i] == 1 && labels[i] == 1;
      fp -= simple_pred[i] == 1 && labels[i] != 1;
      fn -= simple_pred[i] == 0 && labels[i] == 1;
      tp += deep_pred[i] == 1 && labels[i] == 1;
      fp += deep_pred[i] == 1 && labels[i] != 1;
      fn += deep_pred[i] == 0 && labels[i] == 1;
    }
    const double cascade_f1 = f1(tp, fp, fn);
    const double fraction = static_cast<double>(pos) / n;
    cal.frontier.push_back({t, fraction, cascade_f1});
    if (!chosen && cascade_f1 >= floor) {
      chosen = true;
      cal.threshold = t;
      cal.escalation_fraction = fraction;
      cal.cascade_f1 = cascade_f1;
    }
  }
  if (!chosen) {
    // Unreachable in exact arithmetic (the full sweep IS always-deep),
    // but never leave the budget silently broken.
    cal.threshold = margin[order[n - 1]];
    cal.escalation_fraction = 1.0;
    cal.cascade_f1 = cal.deep_f1;
  }

  // Subsample the frontier for reporting; keep both endpoints.
  constexpr size_t kMaxFrontier = 33;
  if (cal.frontier.size() > kMaxFrontier) {
    std::vector<FrontierPoint> kept;
    kept.reserve(kMaxFrontier);
    for (size_t j = 0; j < kMaxFrontier; ++j) {
      kept.push_back(
          cal.frontier[j * (cal.frontier.size() - 1) / (kMaxFrontier - 1)]);
    }
    cal.frontier = std::move(kept);
  }
  return cal;
}

Cascade::Cascade(CascadeOptions options) : options_(options) {}

Cascade::~Cascade() = default;

Status Cascade::Train(const data::Dataset& train) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  obs::TraceSpan train_span("cascade/train");

  DatasetProfile profile = ProfileDataset(train);
  // Grid cells carry the spec name; recover the declared cleanliness the
  // profile cannot measure (Section 4: rule-labeled datasets are dirty).
  if (const auto spec = data::FindSpec(train.name()); spec.ok()) {
    profile.labels_clean = !spec->dirty;
  }
  plan_ = PlanCascade(profile, PaperHeatMap(), options_);

  const size_t holdout_size = static_cast<size_t>(
      static_cast<double>(train.size()) * kHoldoutFraction);
  const bool calibratable = !plan_.simple_only && holdout_size >= 4;
  if (!plan_.simple_only && !calibratable) {
    plan_.simple_only = true;
    plan_.rationale +=
        "; degenerated to simple-only (training set too small to hold out "
        "a calibration split)";
  }

  if (plan_.simple_only) {
    // No threshold to calibrate: the simple model gets every record and
    // the deep model is never constructed or trained.
    simple_ = models::CreateModelSeeded(plan_.simple, options_.seed);
    SEMTAG_CHECK(simple_ != nullptr);
    simple_->set_cancellation(cancellation());
    SEMTAG_RETURN_NOT_OK(simple_->Train(train));
    calibration_ = CascadeCalibration();
    trained_ = true;
    set_train_retries(simple_->train_retries());
    set_train_seconds(timer.ElapsedSeconds());
    SEMTAG_OBS_GAUGE_SET("cascade/threshold", calibration_.threshold);
    return Status::OK();
  }

  auto [fit, holdout] = train.Split(1.0 - kHoldoutFraction);
  fit.set_name(train.name());
  simple_ = models::CreateModelSeeded(plan_.simple, options_.seed);
  deep_ = models::CreateModelSeeded(plan_.deep, options_.seed);
  SEMTAG_CHECK(simple_ != nullptr && deep_ != nullptr);
  simple_->set_cancellation(cancellation());
  deep_->set_cancellation(cancellation());
  SEMTAG_RETURN_NOT_OK(simple_->Train(fit));
  SEMTAG_RETURN_NOT_OK(deep_->Train(fit));
  set_train_retries(simple_->train_retries() + deep_->train_retries());

  {
    obs::TraceSpan calibrate_span("cascade/calibrate");
    const auto texts = holdout.Texts();
    const auto labels = holdout.Labels();
    std::vector<double> simple_probs = simple_->ScoreAll(texts);
    for (double& p : simple_probs) {
      p = simple_->ProbabilityFromScore(p);
    }
    std::vector<double> deep_probs = deep_->ScoreAll(texts);
    for (double& p : deep_probs) {
      p = deep_->ProbabilityFromScore(p);
    }
    calibration_ = CalibrateCascadeThreshold(labels, simple_probs,
                                             deep_probs,
                                             options_.budget_pts);
  }
  if (calibration_.threshold < 0.0) {
    // The simple model alone met the budget on the holdout: drop the deep
    // tier so scoring never pays for it (its training cost is already in
    // train_seconds, honestly).
    deep_.reset();
  }
  trained_ = true;
  set_train_seconds(timer.ElapsedSeconds());
  SEMTAG_OBS_GAUGE_SET("cascade/threshold", calibration_.threshold);
  SEMTAG_OBS_GAUGE_SET("cascade/calibrated_escalation_fraction",
                       calibration_.escalation_fraction);
  SEMTAG_LOG(kInfo,
             "cascade %s: threshold %.4f, %.0f%% escalated on holdout, "
             "F1 %.3f vs always-deep %.3f (%s)",
             train.name().c_str(), calibration_.threshold,
             100.0 * calibration_.escalation_fraction,
             calibration_.cascade_f1, calibration_.deep_f1,
             plan_.rationale.c_str());
  return Status::OK();
}

bool Cascade::WouldEscalate(double simple_score) const {
  return deep_ != nullptr &&
         simple_->MarginFromScore(simple_score) <= calibration_.threshold;
}

double Cascade::Score(std::string_view text) const {
  return ScoreAll({std::string(text)})[0];
}

std::vector<double> Cascade::ScoreAll(
    const std::vector<std::string>& texts) const {
  SEMTAG_CHECK(trained_);
  obs::TraceSpan score_span("cascade/score_all");
  // Tier 1: the simple model scores everything. ScoreAll parallelises
  // per-text with thread-count-invariant results, so the escalation
  // membership computed from these scores is deterministic too.
  WallTimer simple_timer;
  std::vector<double> out;
  std::vector<size_t> escalated;
  std::vector<std::string> gathered;
  {
    obs::TraceSpan simple_span("cascade/simple_pass");
    out = simple_->ScoreAll(texts);
    for (size_t i = 0; i < out.size(); ++i) {
      if (WouldEscalate(out[i])) {
        escalated.push_back(i);
        gathered.push_back(texts[i]);
      }
      out[i] = simple_->ProbabilityFromScore(out[i]);
    }
  }
  SEMTAG_OBS_OBSERVE("cascade/simple_pass_us", obs::LatencyBucketsUs(),
                     simple_timer.ElapsedSeconds() * 1e6);
  // Tier 2: low-margin examples ride the deep model's batched ScoreAll in
  // dense absolute-boundary batches.
  if (!escalated.empty()) {
    WallTimer deep_timer;
    obs::TraceSpan deep_span("cascade/deep_pass");
    const std::vector<double> deep_scores = deep_->ScoreAll(gathered);
    for (size_t k = 0; k < escalated.size(); ++k) {
      out[escalated[k]] = deep_->ProbabilityFromScore(deep_scores[k]);
    }
    SEMTAG_OBS_OBSERVE("cascade/deep_pass_us", obs::LatencyBucketsUs(),
                       deep_timer.ElapsedSeconds() * 1e6);
  }
  SEMTAG_OBS_COUNT("cascade/examples_total", texts.size());
  SEMTAG_OBS_COUNT("cascade/examples_escalated", escalated.size());
  return out;
}

std::vector<uint8_t> Cascade::EscalationMask(
    const std::vector<std::string>& texts) const {
  SEMTAG_CHECK(trained_);
  const std::vector<double> scores = simple_->ScoreAll(texts);
  std::vector<uint8_t> mask(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    mask[i] = WouldEscalate(scores[i]) ? 1 : 0;
  }
  return mask;
}

}  // namespace semtag::core
