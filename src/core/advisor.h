#ifndef SEMTAG_CORE_ADVISOR_H_
#define SEMTAG_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "core/characteristics.h"
#include "core/experiment.h"
#include "models/factory.h"

namespace semtag::core {

/// One row of the Figure 11 heat map.
struct HeatMapRow {
  std::string dataset;
  int64_t paper_records;
  double ratio;
  bool clean;
  double bert_f1;
  double svm_f1;
};

/// Builds the heat map by running (or loading from cache) BERT and SVM on
/// all 21 datasets, as one RunMany grid on the global pool.
std::vector<HeatMapRow> BuildHeatMap(ExperimentRunner* runner);

/// The paper's reference heat map (Figure 11's published numbers), usable
/// without running any experiment — this is what the Advisor interpolates.
std::vector<HeatMapRow> PaperHeatMap();

/// Renders an ANSI-colored heat map table like Figure 11 (blue = low F1,
/// red = high F1, bucketed at the paper's 0.53 midpoint). Set `color` false
/// for plain text.
std::string RenderHeatMap(const std::vector<HeatMapRow>& rows,
                          bool color = true);

/// The heat map evaluated at an arbitrary profile: expected deep and
/// simple F1 interpolated from the k nearest reference datasets in
/// (log-size, ratio, cleanliness) space, inverse-distance weighted.
struct HeatMapPoint {
  double bert_f1 = 0.0;
  double svm_f1 = 0.0;
  /// Reference datasets the estimate interpolates, nearest first.
  std::vector<std::string> neighbors;
};

/// Interpolates the reference heat map at `profile` — the primitive under
/// both RecommendModel's F1 band and the cascade policy's per-cell
/// simple/deep choice (core/cascade.h).
HeatMapPoint InterpolateHeatMap(const DatasetProfile& profile,
                                const std::vector<HeatMapRow>& reference,
                                int k = 3);

/// What the practitioner tells the Advisor about their task.
struct AdviceRequest {
  DatasetProfile profile;
  /// Training must be cheap (no GPU / frequent retraining).
  bool need_fast_training = false;
};

/// The Advisor's output: Section 6.3 distilled into a procedure.
struct Advice {
  models::ModelKind recommended;
  /// Runner-up worth trying (usually the other family's best).
  models::ModelKind alternative;
  /// Expected F1 band from the k-nearest reference datasets.
  double expected_f1_low = 0.0;
  double expected_f1_high = 0.0;
  /// Reference datasets that informed the estimate.
  std::vector<std::string> neighbors;
  std::string rationale;
};

/// Recommends a model per the study's findings: BERT for small datasets
/// (large expected F1 gain), simple models for large datasets (same F1,
/// 30-130x cheaper), simple models for large dirty/imbalanced data, and
/// calibration advice for low ratios. The F1 band interpolates the
/// reference heat map over (log-size, ratio, cleanliness).
Advice RecommendModel(const AdviceRequest& request,
                      const std::vector<HeatMapRow>& reference);

/// RecommendModel against the paper's reference heat map.
Advice RecommendModel(const AdviceRequest& request);

}  // namespace semtag::core

#endif  // SEMTAG_CORE_ADVISOR_H_
