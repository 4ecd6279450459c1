// semtag command-line tool: train, evaluate, and run persistent taggers on
// CSV data without writing any C++.
//
//   semtag profile  --data reviews.csv
//   semtag train    --data reviews.csv --model SVM --out tagger.model
//   semtag evaluate --saved tagger.model --data heldout.csv
//   semtag predict  --saved tagger.model --data new.csv [--explain]
//   semtag grid     --models LR,SVM --report grid.csv
//
// CSVs need a header with `text` and (except predict) `label` columns.
// Persistence covers the simple models (LR, SVM) — exactly the models the
// study recommends for production-scale retraining loops.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/advisor.h"
#include "core/cascade.h"
#include "core/characteristics.h"
#include "core/experiment.h"
#include "data/io.h"
#include "data/specs.h"
#include "eval/calibration.h"
#include "eval/metrics.h"
#include "models/simple/linear_svm.h"
#include "models/simple/logistic_regression.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag {
namespace {

/// The --data CSV. A missing flag exits 2, a file that does not load 1.
data::Dataset LoadData(const Flags& flags, const std::string& path) {
  if (path.empty()) flags.Fail("data", "a CSV file is required");
  auto dataset = data::LoadDatasetFromCsv(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(dataset).ValueOrDie();
}

int Profile(int argc, char** argv) {
  std::string csv;
  Flags flags("semtag profile");
  flags.String("data", &csv, "CSV with text and label columns");
  flags.ParseOrExit(argc, argv, 2);
  const data::Dataset dataset = LoadData(flags, csv);
  const auto stats = dataset.ComputeStats();
  std::printf("records:     %lld\n",
              static_cast<long long>(stats.num_records));
  std::printf("positive:    %.1f%%\n", 100 * stats.positive_ratio);
  std::printf("vocabulary:  %lld distinct words\n",
              static_cast<long long>(stats.vocab_size));
  std::printf("avg length:  %.1f tokens\n", stats.avg_tokens_per_record);
  core::AdviceRequest request;
  request.profile = core::ProfileDataset(dataset);
  const core::Advice advice = core::RecommendModel(request);
  std::printf("\nstudy recommendation: %s (expected F1 %.2f-%.2f)\n",
              models::ModelKindName(advice.recommended),
              advice.expected_f1_low, advice.expected_f1_high);
  std::printf("%s\n", advice.rationale.c_str());
  const auto tokens = core::TopInformativeTokens(dataset, 5);
  if (!tokens.empty()) {
    std::printf("\ntop informative tokens (P-N):\n");
    for (const auto& t : tokens) {
      std::printf("  %-20s P=%.2f N=%.2f\n", t.token.c_str(), t.p, t.n);
    }
  }
  return 0;
}

int TrainCmd(int argc, char** argv) {
  std::string csv, out, model_name = "SVM";
  Flags flags("semtag train");
  flags.String("data", &csv, "CSV with text and label columns");
  flags.String("model", &model_name, "LR or SVM");
  flags.String("out", &out, "where to save the trained model");
  flags.ParseOrExit(argc, argv, 2);
  if (model_name != "LR" && model_name != "SVM") {
    flags.Fail("model", "must be LR or SVM (the persistable models); train "
                        "deep models through the library API");
  }
  if (out.empty()) flags.Fail("out", "a file to save the model in is required");
  const data::Dataset dataset = LoadData(flags, csv);

  Status save = Status::OK();
  double train_seconds = 0.0;
  if (model_name == "LR") {
    models::LogisticRegression model;
    const Status st = model.Train(dataset);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    train_seconds = model.train_seconds();
    save = model.Save(out);
  } else {
    models::LinearSvm model;
    const Status st = model.Train(dataset);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    train_seconds = model.train_seconds();
    save = model.Save(out);
  }
  if (!save.ok()) {
    std::fprintf(stderr, "%s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("trained %s on %zu records in %.2fs -> %s\n",
              model_name.c_str(), dataset.size(), train_seconds,
              out.c_str());
  return 0;
}

/// Loads whichever persistable model the file contains.
Result<std::unique_ptr<models::TaggingModel>> LoadSaved(
    const std::string& path) {
  if (auto lr = models::LogisticRegression::Load(path); lr.ok()) {
    return std::unique_ptr<models::TaggingModel>(
        new models::LogisticRegression(std::move(lr).ValueOrDie()));
  }
  if (auto svm = models::LinearSvm::Load(path); svm.ok()) {
    return std::unique_ptr<models::TaggingModel>(
        new models::LinearSvm(std::move(svm).ValueOrDie()));
  }
  return Status::InvalidArgument("cannot load model from " + path);
}

int Evaluate(int argc, char** argv) {
  std::string saved, csv;
  Flags flags("semtag evaluate");
  flags.String("saved", &saved, "a model saved by semtag train");
  flags.String("data", &csv, "CSV with text and label columns");
  flags.ParseOrExit(argc, argv, 2);
  if (saved.empty()) flags.Fail("saved", "a saved model file is required");
  auto model = LoadSaved(saved);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const data::Dataset dataset = LoadData(flags, csv);
  const auto labels = dataset.Labels();
  const auto scores = (*model)->ScoreAll(dataset.Texts());
  const auto preds =
      eval::ThresholdScores(scores, (*model)->DecisionThreshold());
  const auto confusion = eval::ComputeConfusion(labels, preds);
  std::printf("records    %zu\n", dataset.size());
  std::printf("precision  %.3f\n", confusion.Precision());
  std::printf("recall     %.3f\n", confusion.Recall());
  std::printf("F1         %.3f\n", confusion.F1());
  std::printf("accuracy   %.3f\n", confusion.Accuracy());
  std::printf("AUC        %.3f\n", eval::Auc(labels, scores));
  std::printf("max F1     %.3f (calibrated threshold)\n",
              eval::CalibrateMaxF1(labels, scores).best_f1);
  return 0;
}

int Predict(int argc, char** argv) {
  std::string saved, csv;
  bool explain = false;
  Flags flags("semtag predict");
  flags.String("saved", &saved, "a model saved by semtag train");
  flags.String("data", &csv, "CSV with a text column");
  flags.Bool("explain", &explain,
             "print the three features that drive each score");
  flags.ParseOrExit(argc, argv, 2);
  if (saved.empty()) flags.Fail("saved", "a saved model file is required");
  const data::Dataset dataset = LoadData(flags, csv);
  // Explain needs the concrete type; try LR then SVM.
  auto lr = models::LogisticRegression::Load(saved);
  auto svm = lr.ok() ? Result<models::LinearSvm>(
                           Status::NotFound("unused"))
                     : models::LinearSvm::Load(saved);
  if (!lr.ok() && !svm.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 svm.status().ToString().c_str());
    return 1;
  }
  std::printf("prediction,score,text\n");
  for (const auto& e : dataset.examples()) {
    const double score =
        lr.ok() ? lr->Score(e.text) : svm->Score(e.text);
    const double threshold = lr.ok() ? 0.5 : 0.0;
    std::printf("%d,%.4f,\"%s\"\n", score >= threshold ? 1 : 0, score,
                e.text.c_str());
    if (explain) {
      const auto contributions = lr.ok() ? lr->Explain(e.text, 3)
                                         : svm->Explain(e.text, 3);
      for (const auto& c : contributions) {
        std::printf("#   %-24s %+0.4f\n", c.feature.c_str(),
                    c.contribution);
      }
    }
  }
  return 0;
}

/// Trains the confidence-gated cascade on 80% of the CSV and reports the
/// calibrated threshold, the escalation rate, and held-out F1 against
/// always-deep. Flags override SEMTAG_CASCADE / SEMTAG_CASCADE_BUDGET.
int CascadeCmd(int argc, char** argv) {
  std::string csv, pair;
  core::CascadeOptions options = core::CascadeOptionsFromConfig();
  Flags flags("semtag cascade");
  flags.String("data", &csv, "CSV with text and label columns");
  flags.Number("budget", &options.budget_pts, 0.0, 100.0,
               "accuracy budget in F1 points");
  flags.String("pair", &pair, "<simple>+<deep> (e.g. SVM+BERT) or simple");
  flags.ParseOrExit(argc, argv, 2);
  if (!pair.empty() && !core::ApplyCascadePolicy(pair, &options).ok()) {
    flags.Fail("pair", "must be <simple>+<deep> (e.g. SVM+BERT) or simple");
  }
  data::Dataset data = LoadData(flags, csv);
  core::EnsureCascadeRegistered();
  Rng rng(13);
  data.Shuffle(&rng);
  auto [train, test] = data.Split(0.8);
  core::Cascade model(options);
  if (const Status st = model.Train(train); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const core::CascadePlan& plan = model.plan();
  const core::CascadeCalibration& cal = model.calibration();
  std::printf("plan        %s", models::ModelKindName(plan.simple));
  if (!plan.simple_only) {
    std::printf(" -> %s", models::ModelKindName(plan.deep));
  }
  std::printf("%s\n", plan.simple_only ? " (simple only)" : "");
  std::printf("rationale   %s\n", plan.rationale.c_str());
  std::printf("trained in  %.2fs on %zu records\n", model.train_seconds(),
              train.size());
  if (!plan.simple_only) {
    std::printf("threshold   %.4f (budget %.2f F1 pts)\n", cal.threshold,
                options.budget_pts);
    std::printf("holdout     F1 %.3f cascade vs %.3f deep vs %.3f simple, "
                "%.1f%% escalated\n",
                cal.cascade_f1, cal.deep_f1, cal.simple_f1,
                100 * cal.escalation_fraction);
  }

  const auto texts = test.Texts();
  const auto labels = test.Labels();
  const auto scores = model.ScoreAll(texts);
  const auto preds = eval::ThresholdScores(scores, model.DecisionThreshold());
  const auto confusion = eval::ComputeConfusion(labels, preds);
  const auto mask = model.EscalationMask(texts);
  size_t escalated = 0;
  for (uint8_t m : mask) escalated += m;
  std::printf("test        F1 %.3f on %zu records, %.1f%% escalated\n",
              confusion.F1(), test.size(),
              test.empty() ? 0.0 : 100.0 * escalated / test.size());
  return 0;
}

/// Runs the study's dataset x model grid in this process (default: all 21
/// specs x the 5 representative models) and optionally writes the
/// canonical report CSV. Completed cells land in the result cache as they
/// finish, so rerunning after a crash recomputes only the missing cells.
/// Exits 1 if any cell failed or timed out, 2 on an unknown or repeated
/// dataset or model name.
int GridCmd(int argc, char** argv) {
  std::string datasets, model_names, report_path;
  bool no_cache = false;
  Flags flags("semtag grid");
  flags.String("datasets", &datasets,
               "comma-separated dataset specs; default all 21");
  flags.String("models", &model_names,
               "comma-separated models; default LR,SVM,CNN,LSTM,BERT");
  flags.String("report", &report_path, "write the canonical report CSV here");
  flags.Bool("no-cache", &no_cache,
             "recompute every cell instead of replaying the result cache");
  flags.ParseOrExit(argc, argv, 2);
  std::set<std::string> seen;  // names given so far, e.g. "model LR"
  std::vector<data::DatasetSpec> specs = data::AllDatasetSpecs();
  if (!datasets.empty()) {
    specs.clear();
    for (const auto& name : Split(datasets, ',')) {
      auto spec = data::FindSpec(name);
      if (!spec.ok()) flags.Fail("datasets", "unknown dataset " + name);
      if (!seen.insert("dataset " + name).second) {
        flags.Fail("datasets", "dataset " + name + " given twice");
      }
      specs.push_back(std::move(spec).ValueOrDie());
    }
  }
  std::vector<models::ModelKind> kinds = models::RepresentativeModels();
  if (!model_names.empty()) {
    kinds.clear();
    for (const auto& name : Split(model_names, ',')) {
      auto kind = models::ModelKindFromName(name);
      if (!kind.ok()) flags.Fail("models", "unknown model " + name);
      if (!seen.insert("model " + name).second) {
        flags.Fail("models", "model " + name + " given twice");
      }
      kinds.push_back(kind.ValueOrDie());
    }
  }

  const auto cells = core::EnumerateGrid(specs, kinds);
  core::ExperimentRunner runner(/*use_cache=*/!no_cache);
  WallTimer timer;
  const core::RunReport report = runner.RunMany(cells);
  std::printf("grid: %zu cells in %.2fs on %d threads\n", cells.size(),
              timer.ElapsedSeconds(), std::max(GlobalPool().threads(), 1));
  std::printf("outcomes: ok=%d cached=%d retried=%d timed_out=%d "
              "failed=%d\n",
              report.ok, report.cached, report.retried, report.timed_out,
              report.failed);
  if (!report_path.empty()) {
    const Status st = WriteFileAtomic(
        report_path, core::CanonicalReportCsv(cells, report));
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("canonical report -> %s\n", report_path.c_str());
  }
  return report.all_ok() ? 0 : 1;
}

struct Command {
  const char* name;
  const char* summary;
  int (*run)(int argc, char** argv);  // parses argv from index 2
};

constexpr Command kCommands[] = {
    {"profile", "dataset statistics and the study's model recommendation",
     Profile},
    {"train", "train LR or SVM on a CSV and save it", TrainCmd},
    {"evaluate", "score a saved model on a labelled CSV", Evaluate},
    {"predict", "tag a CSV with a saved model", Predict},
    {"cascade", "train and test the simple->deep cascade on a CSV",
     CascadeCmd},
    {"grid", "run the study's dataset x model grid", GridCmd},
};

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::string command = argc < 2 ? "" : argv[1];
  for (const Command& c : kCommands) {
    if (command != c.name) continue;
    // One top-level span per invocation; with SEMTAG_TRACE/SEMTAG_METRICS
    // set, a CLI run exports the same artifacts as the bench binaries.
    obs::TraceSpan command_span("cli/command", c.name);
    SEMTAG_OBS_COUNT(std::string("cli/commands/") + c.name, 1);
    return c.run(argc, argv);
  }
  const bool help = command == "--help";
  std::FILE* out = help ? stdout : stderr;
  if (!help && !command.empty()) {
    std::fprintf(out, "semtag: unknown command '%s'\n", command.c_str());
  }
  std::fprintf(out, "usage: semtag <command> [flags]\n");
  for (const Command& c : kCommands) {
    std::fprintf(out, "  %-9s %s\n", c.name, c.summary);
  }
  std::fprintf(out, "semtag <command> --help lists a command's flags.\n");
  return help ? 0 : 2;
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
