#ifndef SEMTAG_CORE_CASCADE_H_
#define SEMTAG_CORE_CASCADE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/advisor.h"
#include "core/characteristics.h"
#include "models/factory.h"
#include "models/model.h"

namespace semtag::core {

/// Which pair the cascade runs, and whether it may drop its deep tier.
enum class CascadePolicy {
  /// The planner picks the front end from the dataset profile (SVM for
  /// clean data, LR for dirty), escalates to `deep`, and degenerates to
  /// simple-only on heat-map cells where the simple model already wins.
  kAuto,
  /// `simple` and `deep` verbatim; never degenerates to simple-only.
  kPinnedPair,
  /// `simple` alone: the deep tier is never trained.
  kSimpleOnly,
};

/// Configuration of the confidence-gated cascade (DESIGN.md "Cascade
/// inference"). The defaults are what a grid CASCADE cell runs: the auto
/// policy over a mini-BERT escalation tier, threshold calibrated to give
/// up at most 0.5 F1 points versus always-deep.
struct CascadeOptions {
  CascadePolicy policy = CascadePolicy::kAuto;
  /// Simple front end / deep escalation tier (see CascadePolicy for which
  /// one the policy may override).
  models::ModelKind simple = models::ModelKind::kSvm;
  models::ModelKind deep = models::ModelKind::kBert;
  /// Accuracy budget: the calibrated threshold is the smallest one whose
  /// holdout F1 stays within `budget_pts` F1 points (1 pt = 0.01 F1) of
  /// scoring everything with the deep model.
  double budget_pts = 0.5;
  uint64_t seed = 0;
};

/// The one parser of a "<simple>+<deep>" pair, behind semtag_serve
/// --replan-pair and ApplyCascadePolicy. Splits at the last '+', so hybrid
/// names such as "LR+eb" stay whole on the left, and requires a simple
/// front end and a deep escalation tier. Writes the outputs only on
/// success.
Status ParseCascadePair(const std::string& text, models::ModelKind* simple,
                        models::ModelKind* deep);

/// The one parser of a policy, behind semtag cascade --pair, semtag_serve
/// --cascade and the spec-file `cascade` field: "" or "auto" is kAuto,
/// "simple" is kSimpleOnly, and a pair is kPinnedPair with both tiers set.
/// On error `options` is unchanged.
Status ApplyCascadePolicy(const std::string& text, CascadeOptions* options);

/// What the policy decided for one dataset: the pair to use, and whether
/// the deep tier is needed at all on this heat-map cell.
struct CascadePlan {
  models::ModelKind simple = models::ModelKind::kSvm;
  models::ModelKind deep = models::ModelKind::kBert;
  bool simple_only = false;
  /// Interpolated reference expectations that drove the decision.
  double expected_deep_f1 = 0.0;
  double expected_simple_f1 = 0.0;
  std::string rationale;
};

/// The DatasetProfile-driven policy: interpolates the reference heat map
/// at `profile` (InterpolateHeatMap) and degenerates to simple-only when
/// the simple model already wins that cell within the accuracy budget;
/// otherwise picks SVM->deep for clean data and LR->deep for dirty data
/// (LR's sigmoid margins are better spread than hinge margins under label
/// noise, which the threshold sweep needs).
CascadePlan PlanCascade(const DatasetProfile& profile,
                        const std::vector<HeatMapRow>& reference,
                        const CascadeOptions& options);

/// PlanCascade with an incumbent bias: the margin half of the re-planner's
/// hysteresis (DESIGN.md "Online re-planning"). `margin_pts` (F1 points)
/// shifts the simple-only decision in the incumbent's favour — an
/// incumbent cascade demands `margin_pts` of EXTRA simple advantage before
/// degenerating, an incumbent simple-only tolerates a `margin_pts`
/// shortfall before re-growing the deep tier — so a profile hovering on a
/// heat-map cell edge keeps the pair it already has. With a null incumbent
/// or zero margin this is exactly PlanCascade (pinned by tests).
CascadePlan PlanCascadeBiased(const DatasetProfile& profile,
                              const std::vector<HeatMapRow>& reference,
                              const CascadeOptions& options,
                              const CascadePlan* incumbent,
                              double margin_pts);

/// Canonical spec-file name of a plan's execution shape: "simple" for a
/// degenerate plan, "<SIMPLE>+<DEEP>" otherwise. Round-trips through
/// ModelSpec.cascade (ApplyCascadePolicy), and is the identity the re-planner
/// compares when deciding whether a profile shift actually changes the
/// serving pair.
std::string CascadePairName(const CascadePlan& plan);

/// One point of the cost/accuracy frontier swept during calibration.
struct FrontierPoint {
  double threshold = 0.0;            // margin threshold (escalate when <=)
  double escalation_fraction = 0.0;  // holdout fraction sent to deep
  double f1 = 0.0;                   // cascade F1 on the holdout
};

/// Result of the holdout threshold sweep.
struct CascadeCalibration {
  /// Escalate when the simple margin is <= threshold. -1 (below any
  /// margin) means never escalate; the maximum holdout margin means
  /// always escalate.
  double threshold = -1.0;
  double escalation_fraction = 0.0;  // at the chosen threshold
  double cascade_f1 = 0.0;           // at the chosen threshold
  double simple_f1 = 0.0;            // threshold -1 endpoint
  double deep_f1 = 0.0;              // always-escalate endpoint
  /// The full frontier from always-simple to always-deep, in threshold
  /// order (subsampled to <= 33 points for reporting).
  std::vector<FrontierPoint> frontier;
};

/// Sweeps the margin threshold over the holdout and returns the smallest
/// one (= minimum deep fraction, escalation being monotone in the
/// threshold) whose cascade F1 is within `budget_pts` F1 points of the
/// always-deep F1. Pure and single-threaded: byte-identical inputs give a
/// bit-identical threshold whatever the thread count of the surrounding
/// run. Candidate thresholds are -1 plus every distinct holdout margin, so
/// the chosen value is an exact double from the data, not a grid point.
CascadeCalibration CalibrateCascadeThreshold(
    const std::vector<int>& labels, const std::vector<double>& simple_probs,
    const std::vector<double>& deep_probs, double budget_pts);

/// Confidence-gated cascade: a TaggingModel whose Train() fits a simple
/// front-end and (unless the policy degenerates) a deep escalation tier,
/// then calibrates the margin threshold on a holdout split. Scoring runs
/// every example through the simple model (microseconds) and forwards
/// only low-margin examples — gathered into dense batches — through the
/// deep model's batched ScoreAll. Scores are on the unified probability
/// scale (ProbabilityFromScore) whichever tier produced them, so the
/// decision boundary is 0.5.
///
/// Determinism: escalation membership depends only on the simple model's
/// scores and the calibrated threshold, and both tiers score
/// deterministically, so the escalated set and the final scores are
/// bit-identical across thread counts for fixed options.
class Cascade : public models::TaggingModel {
 public:
  explicit Cascade(CascadeOptions options = {});
  ~Cascade() override;

  std::string name() const override { return "CASCADE"; }
  bool is_deep() const override { return false; }
  Status Train(const data::Dataset& train) override;
  /// ScoreAll of a batch of one.
  double Score(std::string_view text) const override;
  std::vector<double> ScoreAll(
      const std::vector<std::string>& texts) const override;

  /// The policy decision and calibration of the last Train().
  const CascadePlan& plan() const { return plan_; }
  const CascadeCalibration& calibration() const { return calibration_; }

  /// Margin threshold in force; escalate when simple margin <= threshold.
  double threshold() const { return calibration_.threshold; }

  /// 1 for each text the cascade would escalate, 0 otherwise (exactly the
  /// membership ScoreAll uses; exposed so tests can pin it bit-identical
  /// across thread counts and batch caps).
  std::vector<uint8_t> EscalationMask(
      const std::vector<std::string>& texts) const;

  const models::TaggingModel* simple_model() const { return simple_.get(); }
  /// Null when the policy degenerated to simple-only.
  const models::TaggingModel* deep_model() const { return deep_.get(); }

 private:
  bool WouldEscalate(double simple_score) const;

  CascadeOptions options_;
  CascadePlan plan_;
  CascadeCalibration calibration_;
  std::unique_ptr<models::TaggingModel> simple_;
  std::unique_ptr<models::TaggingModel> deep_;
  bool trained_ = false;
};

}  // namespace semtag::core

#endif  // SEMTAG_CORE_CASCADE_H_
