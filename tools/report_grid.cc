// Developer utility: prints the full dataset x model F1 grid from the
// persistent result cache (no training; cells missing from the cache show
// "-"). Handy for eyeballing the state of the experiment grid without
// re-running any bench.
//
//   report_grid                      # F1 grid from the result cache
//   report_grid --metrics <file>     # summarize a semtag-metrics-v1
//                                    #   snapshot (SEMTAG_METRICS output)
//   report_grid --cascade <file>     # cost/accuracy frontier tables from
//                                    #   a BENCH_cascade.json

#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "data/specs.h"
#include "models/deep/bert_cache.h"
#include "obs/validate.h"

namespace semtag {
namespace {

/// Renders a registry snapshot file: every counter and gauge one per line,
/// histograms as count/mean/min/max. Validates the schema first, so a
/// truncated or hand-edited file fails loudly instead of printing garbage.
int SummarizeMetrics(const char* path) {
  const obs::ValidationResult check = obs::ValidateMetricsFile(path);
  if (!check.ok) {
    std::fprintf(stderr, "%s: %s\n", path, check.error.c_str());
    return 1;
  }
  auto content = ReadFileToString(path);
  if (!content.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  obs::JsonValue root;
  std::string err;
  if (!obs::ParseJson(*content, &root, &err)) {
    std::fprintf(stderr, "%s: %s\n", path, err.c_str());
    return 1;
  }
  const auto print_section = [&root](const char* section) {
    const obs::JsonValue* obj = root.Find(section);
    if (obj == nullptr || !obj->is_object()) return;
    std::printf("%s:\n", section);
    for (const auto& [name, v] : obj->object) {
      if (v.is_number()) {
        std::printf("  %-40s %.6g\n", name.c_str(), v.number);
      } else if (v.is_object()) {
        const obs::JsonValue* count = v.Find("count");
        const obs::JsonValue* sum = v.Find("sum");
        const obs::JsonValue* min = v.Find("min");
        const obs::JsonValue* max = v.Find("max");
        if (count == nullptr || sum == nullptr) continue;
        const double n = count->number;
        std::printf("  %-40s count=%.0f mean=%.6g min=%.6g max=%.6g\n",
                    name.c_str(), n, n > 0 ? sum->number / n : 0.0,
                    min != nullptr ? min->number : 0.0,
                    max != nullptr ? max->number : 0.0);
      }
    }
  };
  print_section("counters");
  print_section("gauges");
  print_section("histograms");
  return 0;
}

/// Renders a cascade_frontier JSON: one summary line per cell, then each
/// cell's calibration frontier as a threshold / escalation % / F1-delta /
/// estimated-speedup table. The speedup estimate at a frontier point uses
/// the measured per-tier costs: deep_us / (simple_us + e * deep_us) — the
/// chosen threshold's row should match the cell's measured speedup.
int SummarizeCascade(const char* path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  obs::JsonValue root;
  std::string err;
  if (!obs::ParseJson(*content, &root, &err)) {
    std::fprintf(stderr, "%s: %s\n", path, err.c_str());
    return 1;
  }
  const obs::JsonValue* cells = root.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    std::fprintf(stderr, "%s: no \"cells\" array (not a BENCH_cascade "
                 "file?)\n", path);
    return 1;
  }
  const auto num = [](const obs::JsonValue& v, const char* key) {
    const obs::JsonValue* f = v.Find(key);
    return f != nullptr && f->is_number() ? f->number : 0.0;
  };
  const auto str = [](const obs::JsonValue& v, const char* key) {
    const obs::JsonValue* f = v.Find(key);
    return f != nullptr && f->is_string() ? f->string_value
                                          : std::string("?");
  };
  std::printf("cascade frontier (%s, budget %.2f F1 pts)\n\n", path,
              num(root, "budget_pts"));
  std::printf("%-9s %-10s %10s %10s %8s %8s %8s\n", "Dataset", "pair",
              "threshold", "escalated", "dF1 pts", "speedup", "deep F1");
  for (const auto& cell : cells->array) {
    const double threshold = num(cell, "threshold");
    std::printf("%-9s %-10s %10s %9.1f%% %8.2f %7.2fx %8.3f\n",
                str(cell, "dataset").c_str(), str(cell, "pair").c_str(),
                threshold < 0 ? "never"
                              : StrFormat("%.4f", threshold).c_str(),
                100 * num(cell, "escalation_fraction"),
                num(cell, "f1_delta_pts"), num(cell, "speedup"),
                num(cell, "f1_deep"));
  }
  for (const auto& cell : cells->array) {
    const obs::JsonValue* frontier = cell.Find("frontier");
    if (frontier == nullptr || !frontier->is_array() ||
        frontier->array.empty()) {
      continue;
    }
    const double f1_deep = num(cell, "f1_deep");
    const double simple_us = num(cell, "simple_us_per_text");
    const double deep_us = num(cell, "deep_us_per_text");
    std::printf("\n%s frontier (holdout):\n", str(cell, "dataset").c_str());
    std::printf("  %10s %10s %8s %10s\n", "threshold", "escalated",
                "dF1 pts", "est spd");
    for (const auto& p : frontier->array) {
      const double e = num(p, "escalation");
      const double threshold = num(p, "threshold");
      const std::string speedup =
          simple_us > 0 && deep_us > 0
              ? StrFormat("%9.2fx", deep_us / (simple_us + e * deep_us))
              : std::string("         -");
      std::printf("  %10s %9.1f%% %8.2f %s\n",
                  threshold < 0 ? "never"
                                : StrFormat("%.4f", threshold).c_str(),
                  100 * e, (f1_deep - num(p, "f1")) * 100, speedup.c_str());
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc >= 3 && std::strcmp(argv[1], "--metrics") == 0) {
    return SummarizeMetrics(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--cascade") == 0) {
    return SummarizeCascade(argv[2]);
  }
  const std::string path = models::CacheDir() + "/results.csv";
  auto content = ReadFileToString(path);
  if (!content.ok()) {
    std::fprintf(stderr, "no result cache at %s\n", path.c_str());
    return 1;
  }
  auto rows = ParseCsv(*content);
  if (!rows.ok()) {
    std::fprintf(stderr, "corrupt cache: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }
  // key -> (dataset, model, f1); keep only canonical per-spec runs (their
  // keys contain no '|' prefix beyond name|model|seed0|hash).
  std::map<std::string, std::map<std::string, double>> grid;
  std::set<std::string> models;
  size_t data_rows = 0;
  for (const auto& row : *rows) {
    // Skip comment rows (the "#crc32,<hex>" integrity footer); accept both
    // the 12-column legacy layout and the 13-column (outcome) layout.
    if (!row.empty() && !row[0].empty() && row[0][0] == '#') continue;
    if (row.size() != 12 && row.size() != 13) continue;
    const std::string& key = row[0];
    if (key.find("|s0|") == std::string::npos) continue;  // seed-0 only
    if (StartsWith(key, "fig")) continue;  // skip sweep entries
    double f1 = 0.0;
    if (!ParseDouble(row[3], &f1)) continue;
    ++data_rows;
    grid[row[1]][row[2]] = f1;
    models.insert(row[2]);
  }
  std::string header = StrFormat("%-9s", "Dataset");
  for (const auto& m : models) header += StrFormat(" %8s", m.c_str());
  std::printf("%s\n", header.c_str());
  for (const auto& spec : data::AllDatasetSpecs()) {
    std::string line = StrFormat("%-9s", spec.name.c_str());
    auto it = grid.find(spec.name);
    for (const auto& m : models) {
      if (it != grid.end() && it->second.count(m)) {
        line += StrFormat(" %8.2f", it->second.at(m));
      } else {
        line += StrFormat(" %8s", "-");
      }
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("\n(%zu cached results in %s)\n", data_rows, path.c_str());
  return 0;
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
