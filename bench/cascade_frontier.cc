// Cascade inference frontier (DESIGN.md "Cascade inference"): trains the
// confidence-gated cascade and an always-deep baseline on large synthetic
// cells, then measures ScoreAll wall time, test F1, and the escalation
// fraction side by side. Emits BENCH_cascade.json with the full
// cost/accuracy frontier swept during calibration.
//
//   cascade_frontier [--smoke] [--out <path>] [--budget <F1 pts>]
//                    [--metrics <path>] [--trace <path>]
//
// --smoke runs the single large-clean cell (AMAZON) with a 2x speedup gate
// (the CI configuration); the full run covers three cells and gates on the
// acceptance bar: >= 3x ScoreAll speedup at <= 0.5 F1 pt cost on at least
// two cells. Exit status 1 when the gate fails, so CI catches regressions.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/cascade.h"
#include "data/specs.h"
#include "eval/metrics.h"
#include "models/factory.h"
#include "obs/metrics.h"

namespace semtag {
namespace {

struct CellResult {
  std::string dataset;
  std::string pair;
  bool simple_only = false;
  double threshold = -1.0;
  double holdout_escalation = 0.0;
  double f1_cascade = 0.0;
  double f1_deep = 0.0;
  double escalation_fraction = 0.0;  // on the test split
  double wall_s_deep = 0.0;
  double wall_s_cascade = 0.0;
  double simple_us_per_text = 0.0;
  double deep_us_per_text = 0.0;
  std::vector<core::FrontierPoint> frontier;

  double speedup() const {
    return wall_s_cascade > 0.0 ? wall_s_deep / wall_s_cascade : 0.0;
  }
  /// F1 points given up versus always-deep (negative = cascade wins).
  double f1_delta_pts() const { return (f1_deep - f1_cascade) * 100.0; }
};

double MedianOfReps(int reps, const std::function<void()>& fn) {
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    walls.push_back(timer.ElapsedSeconds());
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

CellResult RunCell(const data::DatasetSpec& spec, double budget_pts,
                   int reps) {
  CellResult cell;
  cell.dataset = spec.name;

  data::Dataset dataset = data::BuildDataset(spec);
  Rng shuffle_rng(spec.generator.seed);
  dataset.Shuffle(&shuffle_rng);
  auto [train, test] = dataset.Split(spec.train_fraction);
  train.set_name(spec.name);

  core::CascadeOptions options;
  options.budget_pts = budget_pts;
  core::Cascade cascade(options);
  Status st = cascade.Train(train);
  SEMTAG_CHECK(st.ok());
  const core::CascadePlan& plan = cascade.plan();
  cell.pair = std::string(models::ModelKindName(plan.simple)) +
              (plan.simple_only
                   ? ""
                   : std::string("->") + models::ModelKindName(plan.deep));
  cell.simple_only = plan.simple_only;
  cell.threshold = cascade.threshold();
  cell.holdout_escalation = cascade.calibration().escalation_fraction;
  cell.frontier = cascade.calibration().frontier;

  // Always-deep baseline: the same deep family trained on the full train
  // split (the pipeline the cascade's accuracy budget is pinned against).
  auto deep = models::CreateModelSeeded(plan.deep, 0);
  SEMTAG_CHECK(deep != nullptr);
  st = deep->Train(train);
  SEMTAG_CHECK(st.ok());

  const auto texts = test.Texts();
  const auto labels = test.Labels();

  const auto f1_of = [&](const std::vector<double>& scores,
                         double boundary) {
    return eval::ComputeConfusion(labels,
                                  eval::ThresholdScores(scores, boundary))
        .F1();
  };
  cell.f1_cascade = f1_of(cascade.ScoreAll(texts),
                          cascade.DecisionThreshold());
  cell.f1_deep = f1_of(deep->ScoreAll(texts), deep->DecisionThreshold());
  const auto mask = cascade.EscalationMask(texts);
  size_t escalated = 0;
  for (uint8_t m : mask) escalated += m;
  cell.escalation_fraction =
      texts.empty() ? 0.0 : static_cast<double>(escalated) / texts.size();

  // Per-tier mean latency comes from the obs histograms the cascade
  // populates; deltas across the timed region attribute them to this cell.
  auto& simple_hist = obs::GetHistogram("cascade/simple_pass_us",
                                        obs::LatencyBucketsUs());
  auto& deep_hist =
      obs::GetHistogram("cascade/deep_pass_us", obs::LatencyBucketsUs());
  const double simple_sum0 = simple_hist.Sum();
  const uint64_t simple_n0 = simple_hist.TotalCount();
  const double deep_sum0 = deep_hist.Sum();
  const uint64_t deep_n0 = deep_hist.TotalCount();

  cell.wall_s_deep =
      MedianOfReps(reps, [&] { (void)deep->ScoreAll(texts); });
  cell.wall_s_cascade =
      MedianOfReps(reps, [&] { (void)cascade.ScoreAll(texts); });

  const uint64_t simple_n = simple_hist.TotalCount() - simple_n0;
  const uint64_t deep_n = deep_hist.TotalCount() - deep_n0;
  if (simple_n > 0 && !texts.empty()) {
    cell.simple_us_per_text = (simple_hist.Sum() - simple_sum0) /
                              (static_cast<double>(simple_n) * texts.size());
  }
  if (deep_n > 0 && escalated > 0) {
    cell.deep_us_per_text = (deep_hist.Sum() - deep_sum0) /
                            (static_cast<double>(deep_n) * escalated);
  }
  return cell;
}

std::string CellJson(const CellResult& c) {
  std::string json = StrFormat(
      "    {\"dataset\": \"%s\", \"pair\": \"%s\", \"simple_only\": %s,\n"
      "     \"threshold\": %.17g, \"holdout_escalation\": %.4f,\n"
      "     \"f1_cascade\": %.4f, \"f1_deep\": %.4f, "
      "\"f1_delta_pts\": %.2f,\n"
      "     \"escalation_fraction\": %.4f, \"wall_s_deep\": %.4f, "
      "\"wall_s_cascade\": %.4f, \"speedup\": %.2f,\n"
      "     \"simple_us_per_text\": %.2f, \"deep_us_per_text\": %.2f,\n"
      "     \"frontier\": [",
      c.dataset.c_str(), c.pair.c_str(), c.simple_only ? "true" : "false",
      c.threshold, c.holdout_escalation, c.f1_cascade, c.f1_deep,
      c.f1_delta_pts(), c.escalation_fraction, c.wall_s_deep,
      c.wall_s_cascade, c.speedup(), c.simple_us_per_text,
      c.deep_us_per_text);
  for (size_t i = 0; i < c.frontier.size(); ++i) {
    json += StrFormat("%s{\"threshold\": %.17g, \"escalation\": %.4f, "
                      "\"f1\": %.4f}",
                      i == 0 ? "" : ", ", c.frontier[i].threshold,
                      c.frontier[i].escalation_fraction, c.frontier[i].f1);
  }
  json += "]}";
  return json;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_cascade.json";
  double budget_pts = 0.5;
  Flags flags("cascade_frontier");
  flags.Bool("smoke", &smoke, "CI gate: >= 2x on the large-clean cell only");
  flags.String("out", &out, "where to write the frontier JSON");
  flags.Number("budget", &budget_pts, 0.0, 100.0,
               "cascade accuracy budget in F1 points");
  bench::BenchSetup(
      "Cascade inference frontier",
      "DESIGN.md 'Cascade inference' (Section 6.3 decision procedure "
      "turned into a serving-path optimisation)",
      argc, argv, &flags);
  // The per-tier latency attribution needs the histograms recording even
  // without an explicit --metrics flag.
  obs::SetMetricsEnabled(true);

  const std::vector<std::string> names =
      smoke ? std::vector<std::string>{"AMAZON"}
            : std::vector<std::string>{"AMAZON", "YELP", "FUNNY*"};
  const double required_speedup = smoke ? 2.0 : 3.0;
  const int required_cells = smoke ? 1 : 2;
  const int reps = smoke ? 2 : 3;

  std::vector<CellResult> cells;
  for (const auto& name : names) {
    auto spec = data::FindSpec(name);
    SEMTAG_CHECK(spec.ok());
    cells.push_back(RunCell(*spec, budget_pts, reps));
  }

  bench::Table table({"dataset", "pair", "threshold", "escalated",
                      "F1 cascade", "F1 deep", "delta pts", "speedup"});
  int meeting = 0;
  for (const auto& c : cells) {
    const bool meets =
        c.speedup() >= required_speedup && c.f1_delta_pts() <= budget_pts;
    meeting += meets;
    table.AddRow({c.dataset, c.pair,
                  c.threshold < 0 ? "never" : bench::Fmt(c.threshold, 4),
                  bench::Fmt(100 * c.escalation_fraction, 1) + "%",
                  bench::Fmt(c.f1_cascade, 3), bench::Fmt(c.f1_deep, 3),
                  bench::Fmt(c.f1_delta_pts(), 2),
                  bench::Fmt(c.speedup(), 2) + "x"});
  }
  table.Print();
  const bool pass = meeting >= required_cells;
  std::printf("gate: >= %.1fx at <= %.2f F1 pts on >= %d cell(s): %s "
              "(%d met)\n",
              required_speedup, budget_pts, required_cells,
              pass ? "PASS" : "FAIL", meeting);

  std::string json = "{\n  \"bench\": \"cascade_frontier\",\n";
  json += bench::JsonContextFields() + "\n";
  json += StrFormat("  \"smoke\": %s,\n  \"budget_pts\": %.2f,\n"
                    "  \"cells\": [\n",
                    smoke ? "true" : "false", budget_pts);
  for (size_t i = 0; i < cells.size(); ++i) {
    json += CellJson(cells[i]) + (i + 1 < cells.size() ? ",\n" : "\n");
  }
  json += StrFormat("  ],\n  \"gate\": {\"required_speedup\": %.1f, "
                    "\"required_cells\": %d, \"cells_meeting\": %d, "
                    "\"pass\": %s}\n}\n",
                    required_speedup, required_cells, meeting,
                    pass ? "true" : "false");
  const Status st = WriteFileAtomic(out, json);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("-> %s\n", out.c_str());
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
