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
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/file_io.h"
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

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  semtag profile  --data <csv>\n"
      "  semtag train    --data <csv> --model LR|SVM --out <file>\n"
      "  semtag evaluate --saved <file> --data <csv>\n"
      "  semtag predict  --saved <file> --data <csv> [--explain]\n"
      "  semtag cascade  --data <csv> [--budget <F1 pts>] "
      "[--pair <S>+<D>|simple]\n"
      "  semtag grid     [--datasets A,B] [--models M1,M2] [--report <csv>] "
      "[--no-cache]\n");
  return 2;
}

/// Parses --key value pairs and bare flags after the subcommand.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const std::string key = arg + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "true";
    }
  }
  return flags;
}

Result<data::Dataset> LoadData(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("data");
  if (it == flags.end()) {
    return Status::InvalidArgument("--data <csv> is required");
  }
  return data::LoadDatasetFromCsv(it->second);
}

int Profile(const std::map<std::string, std::string>& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const auto stats = dataset->ComputeStats();
  std::printf("records:     %lld\n",
              static_cast<long long>(stats.num_records));
  std::printf("positive:    %.1f%%\n", 100 * stats.positive_ratio);
  std::printf("vocabulary:  %lld distinct words\n",
              static_cast<long long>(stats.vocab_size));
  std::printf("avg length:  %.1f tokens\n", stats.avg_tokens_per_record);
  core::AdviceRequest request;
  request.profile = core::ProfileDataset(*dataset);
  const core::Advice advice = core::RecommendModel(request);
  std::printf("\nstudy recommendation: %s (expected F1 %.2f-%.2f)\n",
              models::ModelKindName(advice.recommended),
              advice.expected_f1_low, advice.expected_f1_high);
  std::printf("%s\n", advice.rationale.c_str());
  const auto tokens = core::TopInformativeTokens(*dataset, 5);
  if (!tokens.empty()) {
    std::printf("\ntop informative tokens (P-N):\n");
    for (const auto& t : tokens) {
      std::printf("  %-20s P=%.2f N=%.2f\n", t.token.c_str(), t.p, t.n);
    }
  }
  return 0;
}

int TrainCmd(const std::map<std::string, std::string>& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const auto out = flags.find("out");
  if (out == flags.end()) {
    std::fprintf(stderr, "--out <file> is required\n");
    return 2;
  }
  const auto model_it = flags.find("model");
  const std::string model_name =
      model_it == flags.end() ? "SVM" : model_it->second;

  Status save = Status::OK();
  double train_seconds = 0.0;
  if (model_name == "LR") {
    models::LogisticRegression model;
    const Status st = model.Train(*dataset);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    train_seconds = model.train_seconds();
    save = model.Save(out->second);
  } else if (model_name == "SVM") {
    models::LinearSvm model;
    const Status st = model.Train(*dataset);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    train_seconds = model.train_seconds();
    save = model.Save(out->second);
  } else {
    std::fprintf(stderr,
                 "--model must be LR or SVM (persistable models); for deep "
                 "models use the library API\n");
    return 2;
  }
  if (!save.ok()) {
    std::fprintf(stderr, "%s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("trained %s on %zu records in %.2fs -> %s\n",
              model_name.c_str(), dataset->size(), train_seconds,
              out->second.c_str());
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

int Evaluate(const std::map<std::string, std::string>& flags) {
  const auto saved = flags.find("saved");
  if (saved == flags.end()) {
    std::fprintf(stderr, "--saved <file> is required\n");
    return 2;
  }
  auto model = LoadSaved(saved->second);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  auto dataset = LoadData(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const auto labels = dataset->Labels();
  const auto scores = (*model)->ScoreAll(dataset->Texts());
  const auto preds =
      eval::ThresholdScores(scores, (*model)->DecisionThreshold());
  const auto confusion = eval::ComputeConfusion(labels, preds);
  std::printf("records    %zu\n", dataset->size());
  std::printf("precision  %.3f\n", confusion.Precision());
  std::printf("recall     %.3f\n", confusion.Recall());
  std::printf("F1         %.3f\n", confusion.F1());
  std::printf("accuracy   %.3f\n", confusion.Accuracy());
  std::printf("AUC        %.3f\n", eval::Auc(labels, scores));
  std::printf("max F1     %.3f (calibrated threshold)\n",
              eval::CalibrateMaxF1(labels, scores).best_f1);
  return 0;
}

int Predict(const std::map<std::string, std::string>& flags) {
  const auto saved = flags.find("saved");
  if (saved == flags.end()) {
    std::fprintf(stderr, "--saved <file> is required\n");
    return 2;
  }
  const bool explain = flags.count("explain") > 0;
  auto dataset = LoadData(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  // Explain needs the concrete type; try LR then SVM.
  auto lr = models::LogisticRegression::Load(saved->second);
  auto svm = lr.ok() ? Result<models::LinearSvm>(
                           Status::NotFound("unused"))
                     : models::LinearSvm::Load(saved->second);
  if (!lr.ok() && !svm.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 svm.status().ToString().c_str());
    return 1;
  }
  std::printf("prediction,score,text\n");
  for (const auto& e : dataset->examples()) {
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
int CascadeCmd(const std::map<std::string, std::string>& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::EnsureCascadeRegistered();
  core::CascadeOptions options = core::CascadeOptionsFromConfig();
  if (const auto it = flags.find("budget"); it != flags.end()) {
    double pts = 0.0;
    if (!ParseDouble(it->second, &pts) || pts < 0.0 || pts > 100.0) {
      std::fprintf(stderr, "--budget must be an F1-point value in [0, 100]\n");
      return 2;
    }
    options.budget_pts = pts;
  }
  if (const auto it = flags.find("pair"); it != flags.end()) {
    if (!core::ApplyCascadePolicy(it->second, &options).ok()) {
      std::fprintf(stderr,
                   "--pair must be <simple>+<deep> (e.g. SVM+BERT) or "
                   "simple\n");
      return 2;
    }
  }

  data::Dataset data = std::move(dataset).ValueOrDie();
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
int GridCmd(const std::map<std::string, std::string>& flags) {
  std::set<std::string> seen;  // names given so far, e.g. "model LR"
  std::vector<data::DatasetSpec> specs;
  if (const auto it = flags.find("datasets"); it != flags.end()) {
    for (const auto& name : Split(it->second, ',')) {
      auto spec = data::FindSpec(name);
      if (!spec.ok()) {
        std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
        return 2;
      }
      if (!seen.insert("dataset " + name).second) {
        std::fprintf(stderr, "dataset %s given twice\n", name.c_str());
        return 2;
      }
      specs.push_back(std::move(spec).ValueOrDie());
    }
  } else {
    specs = data::AllDatasetSpecs();
  }
  std::vector<models::ModelKind> kinds;
  if (const auto it = flags.find("models"); it != flags.end()) {
    for (const auto& name : Split(it->second, ',')) {
      auto kind = models::ModelKindFromName(name);
      if (!kind.ok()) {
        std::fprintf(stderr, "unknown model %s\n", name.c_str());
        return 2;
      }
      if (!seen.insert("model " + name).second) {
        std::fprintf(stderr, "model %s given twice\n", name.c_str());
        return 2;
      }
      kinds.push_back(kind.ValueOrDie());
    }
  } else {
    kinds = models::RepresentativeModels();
  }
  if (specs.empty() || kinds.empty()) {
    std::fprintf(stderr, "empty grid\n");
    return 2;
  }

  const auto cells = core::EnumerateGrid(specs, kinds);
  core::ExperimentRunner runner(/*use_cache=*/flags.count("no-cache") == 0);
  WallTimer timer;
  const core::RunReport report = runner.RunMany(cells);
  std::printf("grid: %zu cells in %.2fs on %d threads\n", cells.size(),
              timer.ElapsedSeconds(), std::max(GlobalPool().threads(), 1));
  std::printf("outcomes: ok=%d cached=%d retried=%d timed_out=%d "
              "failed=%d\n",
              report.ok, report.cached, report.retried, report.timed_out,
              report.failed);
  if (const auto it = flags.find("report"); it != flags.end()) {
    const Status st = WriteFileAtomic(
        it->second, core::CanonicalReportCsv(cells, report));
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", it->second.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("canonical report -> %s\n", it->second.c_str());
  }
  return report.all_ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  // One top-level span per invocation; with SEMTAG_TRACE/SEMTAG_METRICS
  // set, a CLI run exports the same artifacts as the bench binaries.
  obs::TraceSpan command_span("cli/command", command.c_str());
  SEMTAG_OBS_COUNT(std::string("cli/commands/") + command, 1);
  if (command == "profile") return Profile(flags);
  if (command == "train") return TrainCmd(flags);
  if (command == "evaluate") return Evaluate(flags);
  if (command == "predict") return Predict(flags);
  if (command == "cascade" || command == "--cascade") return CascadeCmd(flags);
  if (command == "grid") return GridCmd(flags);
  return Usage();
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
