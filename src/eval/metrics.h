#ifndef SEMTAG_EVAL_METRICS_H_
#define SEMTAG_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

namespace semtag::eval {

/// Binary confusion counts for the positive (tag-conveying) class.
struct Confusion {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t tn = 0;
  int64_t fn = 0;

  double Precision() const;
  double Recall() const;
  /// F1 of the positive class (the paper's primary metric). 0 when
  /// undefined (no predicted and no actual positives).
  double F1() const;
  double Accuracy() const;
};

/// Builds the confusion matrix from 0/1 labels and predictions.
Confusion ComputeConfusion(const std::vector<int>& labels,
                           const std::vector<int>& predictions);

/// F1 from labels and predictions (convenience).
double F1Score(const std::vector<int>& labels,
               const std::vector<int>& predictions);

/// Area under the ROC curve from labels and real-valued scores, computed
/// with the rank-statistic (Mann-Whitney) formulation; ties share ranks.
/// Returns 0.5 when a class is empty.
double Auc(const std::vector<int>& labels,
           const std::vector<double>& scores);

/// Thresholds scores at `threshold` (>=) into 0/1 predictions.
std::vector<int> ThresholdScores(const std::vector<double>& scores,
                                 double threshold);

/// Macro average: unweighted mean.
double MacroAverage(const std::vector<double>& values);

/// Micro average per the paper's Section 5.1: sum of values weighted by
/// each dataset's record count over the total record count.
double MicroAverage(const std::vector<double>& values,
                    const std::vector<int64_t>& weights);

}  // namespace semtag::eval

#endif  // SEMTAG_EVAL_METRICS_H_
