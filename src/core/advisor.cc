#include "core/advisor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/string_util.h"
#include "core/taxonomy.h"

namespace semtag::core {

std::vector<HeatMapRow> BuildHeatMap(ExperimentRunner* runner) {
  const auto specs = data::AllDatasetSpecs();
  std::vector<HeatMapRow> rows;
  std::map<std::string, size_t> row_of;  // spec name -> index in rows
  for (const auto& spec : specs) {
    row_of[spec.name] = rows.size();
    HeatMapRow row;
    row.dataset = spec.name;
    row.paper_records = spec.paper_records;
    row.ratio = spec.paper_positive;
    row.clean = !spec.dirty;
    rows.push_back(std::move(row));
  }
  // All 42 cells share one RunMany so the pool's threads spread them; each
  // result goes to its cell's row and model column, whatever order
  // EnumerateGrid runs them in.
  const auto cells = EnumerateGrid(
      specs, {models::ModelKind::kSvm, models::ModelKind::kBert});
  const RunReport report = runner->RunMany(cells);
  for (size_t i = 0; i < cells.size(); ++i) {
    HeatMapRow& row = rows[row_of.at(cells[i].spec.name)];
    (cells[i].kind == models::ModelKind::kSvm ? row.svm_f1 : row.bert_f1) =
        report.results[i].f1;
  }
  return rows;
}

std::vector<HeatMapRow> PaperHeatMap() {
  std::vector<HeatMapRow> rows;
  for (const auto& spec : data::AllDatasetSpecs()) {
    rows.push_back(HeatMapRow{spec.name, spec.paper_records,
                              spec.paper_positive, !spec.dirty,
                              spec.paper_f1_bert, spec.paper_f1_svm});
  }
  return rows;
}

namespace {

/// ANSI color bucket for an F1 cell: the paper colors < 0.53 blue
/// (deeper = lower) and >= 0.53 red (deeper = higher).
const char* CellColor(double f1) {
  if (f1 < 0.20) return "\x1b[48;5;21m";   // deep blue
  if (f1 < 0.40) return "\x1b[48;5;33m";   // blue
  if (f1 < 0.53) return "\x1b[48;5;75m";   // light blue
  if (f1 < 0.70) return "\x1b[48;5;210m";  // light red
  if (f1 < 0.85) return "\x1b[48;5;203m";  // red
  return "\x1b[48;5;160m";                 // deep red
}

std::string Cell(double f1, bool color) {
  const std::string text = StrFormat(" %.2f ", f1);
  if (!color) return text;
  return std::string(CellColor(f1)) + "\x1b[30m" + text + "\x1b[0m";
}

std::string HumanCount(int64_t n) {
  if (n >= 1000000) return StrFormat("%.0fM", n / 1e6);
  if (n >= 1000) return StrFormat("%.0fK", n / 1e3);
  return std::to_string(n);
}

/// Reference rows scored by distance to a profile in characteristic space
/// (log-size, scaled ratio, cleanliness penalty), nearest first.
struct ScoredRow {
  double distance;
  const HeatMapRow* row;
};

std::vector<ScoredRow> NearestRows(const DatasetProfile& p,
                                   const std::vector<HeatMapRow>& reference) {
  std::vector<ScoredRow> scored;
  scored.reserve(reference.size());
  for (const auto& row : reference) {
    const double dsize = std::log10(std::max<int64_t>(p.num_records, 1)) -
                         std::log10(std::max<int64_t>(row.paper_records, 1));
    const double dratio = (p.positive_ratio - row.ratio) * 4.0;
    const double dclean = (p.labels_clean == row.clean) ? 0.0 : 1.5;
    scored.push_back(
        {std::sqrt(dsize * dsize + dratio * dratio) + dclean, &row});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredRow& a, const ScoredRow& b) {
              return a.distance < b.distance;
            });
  return scored;
}

}  // namespace

HeatMapPoint InterpolateHeatMap(const DatasetProfile& profile,
                                const std::vector<HeatMapRow>& reference,
                                int k) {
  HeatMapPoint point;
  const std::vector<ScoredRow> scored = NearestRows(profile, reference);
  const size_t n = std::min<size_t>(std::max(k, 1), scored.size());
  double weight_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const HeatMapRow& row = *scored[i].row;
    const double w = 1.0 / (scored[i].distance + 1e-6);
    point.bert_f1 += w * row.bert_f1;
    point.svm_f1 += w * row.svm_f1;
    weight_sum += w;
    point.neighbors.push_back(row.dataset);
  }
  if (weight_sum > 0.0) {
    point.bert_f1 /= weight_sum;
    point.svm_f1 /= weight_sum;
  }
  return point;
}

std::string RenderHeatMap(const std::vector<HeatMapRow>& rows, bool color) {
  std::string out;
  out += StrFormat("%-9s %6s %6s %8s %7s %7s\n", "Dataset", "Size",
                   "Ratio", "Quality", "BERT", "SVM");
  for (const auto& r : rows) {
    out += StrFormat("%-9s %6s %6.2f %8s %s %s\n", r.dataset.c_str(),
                     HumanCount(r.paper_records).c_str(), r.ratio,
                     r.clean ? "clean" : "dirty",
                     Cell(r.bert_f1, color).c_str(),
                     Cell(r.svm_f1, color).c_str());
  }
  return out;
}

Advice RecommendModel(const AdviceRequest& request,
                      const std::vector<HeatMapRow>& reference) {
  const DatasetProfile& p = request.profile;
  const DatasetCategory category =
      Categorize(p.num_records, p.positive_ratio);

  Advice advice;
  // Section 6.3's decision procedure.
  const bool large = category == DatasetCategory::kLargeL ||
                     category == DatasetCategory::kLargeH;
  if (!large) {
    advice.recommended = models::ModelKind::kBert;
    advice.alternative = models::ModelKind::kSvm;
    advice.rationale =
        "Small dataset: the study finds DEEP (BERT) beats SIMPLE by "
        "+0.16/+0.08 average F1 on Small-L/Small-H while training in "
        "minutes even on CPU-scale budgets.";
    if (request.need_fast_training) {
      advice.rationale +=
          " If even that is too slow, SVM with pretrained embeddings "
          "recovers much of the gap (Table 6).";
    }
  } else if (!p.labels_clean ||
             category == DatasetCategory::kLargeL) {
    advice.recommended = models::ModelKind::kSvm;
    advice.alternative = models::ModelKind::kLr;
    advice.rationale =
        "Large dataset with dirty and/or imbalanced labels: simple models "
        "match or beat BERT here (Large-L: SIMPLE +0.03 average F1) at a "
        "fraction of the cost; calibrate the decision threshold "
        "(Figure 7) and consider cleaning labels before buying GPU time.";
  } else if (request.need_fast_training) {
    advice.recommended = models::ModelKind::kSvm;
    advice.alternative = models::ModelKind::kBert;
    advice.rationale =
        "Large clean dataset with a training-cost constraint: SIMPLE is "
        "within 0.02 average F1 of DEEP on Large-H while training 30-130x "
        "faster.";
  } else {
    advice.recommended = models::ModelKind::kBert;
    advice.alternative = models::ModelKind::kSvm;
    advice.rationale =
        "Large clean balanced dataset: BERT has a slight edge (+0.02 "
        "average F1 on Large-H), but expect days of training; SVM gets "
        "within a few points in minutes.";
  }
  if (p.positive_ratio < 0.25) {
    advice.rationale +=
        " Low positive ratio (<25%): expect depressed F1 for every model; "
        "raising the ratio (more positive labels, undersampling) helps "
        "more than switching models (Figure 10).";
  }

  // Expected F1 band: 3 nearest reference datasets in characteristic space.
  const std::vector<ScoredRow> scored = NearestRows(p, reference);
  const size_t k = std::min<size_t>(3, scored.size());
  advice.expected_f1_low = 1.0;
  advice.expected_f1_high = 0.0;
  const bool recommend_deep = models::IsDeep(advice.recommended);
  for (size_t i = 0; i < k; ++i) {
    const HeatMapRow& row = *scored[i].row;
    const double f1 = recommend_deep ? row.bert_f1 : row.svm_f1;
    advice.expected_f1_low = std::min(advice.expected_f1_low, f1);
    advice.expected_f1_high = std::max(advice.expected_f1_high, f1);
    advice.neighbors.push_back(row.dataset);
  }
  if (k == 0) {
    advice.expected_f1_low = 0.0;
    advice.expected_f1_high = 0.0;
  }
  return advice;
}

Advice RecommendModel(const AdviceRequest& request) {
  return RecommendModel(request, PaperHeatMap());
}

}  // namespace semtag::core
