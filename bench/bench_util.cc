#include "bench_util.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace semtag::bench {
namespace {

/// Parses argv[0, argc) with `flags` (a fresh set named after the binary
/// when null) plus the obs export flags, then arms what they name.
void ParseWithObsFlags(int argc, const char* const* argv, Flags* flags) {
  const std::string_view program = argv[0];
  Flags own(std::string(program.substr(program.rfind('/') + 1)));
  if (flags == nullptr) flags = &own;
  std::string metrics, trace;
  flags->String("metrics", &metrics,
                "arm the metrics registry; export its snapshot to this file");
  flags->String("trace", &trace, "arm tracing; export spans to this file");
  flags->ParseOrExit(argc, argv);
  obs::ArmExports(metrics, trace);
}

/// Build type of this binary: "release" when compiled with NDEBUG, "debug"
/// otherwise. Distinct from google-benchmark's own library_build_type
/// context field, which describes only the benchmark library. Every
/// BENCH_*.json carries it, and the host's hardware thread count, so its
/// numbers are interpretable relative to the build and machine.
const char* LibraryBuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

int HostCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Refuses to let debug numbers land silently: timings of a debug build
/// mean nothing.
void WarnIfDebugBuild() {
#ifndef NDEBUG
  std::printf("*** WARNING: this is a DEBUG build — timings below are not\n"
              "*** meaningful and must not be recorded in BENCH_*.json.\n"
              "*** Reconfigure with -DCMAKE_BUILD_TYPE=Release first.\n\n");
  SEMTAG_LOG(kWarning, "bench running in a debug build; do not record "
                       "timings");
#endif
}

}  // namespace

std::string JsonContextFields() {
  return StrFormat("  \"build\": \"%s\",\n  \"host_cores\": %d,",
                   LibraryBuildType(), HostCores());
}

void BenchSetup(const std::string& title, const std::string& paper_ref,
                int argc, char** argv, Flags* flags) {
  ParseWithObsFlags(argc, argv, flags);
  SetLogLevel(LogLevel::kWarning);
  std::printf("== %s ==\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("(synthetic stand-in datasets, scaled per DESIGN.md; compare "
              "shapes, not absolute values)\n");
  std::printf("build: %s\n\n", LibraryBuildType());
  WarnIfDebugBuild();
  std::fflush(stdout);
}

std::vector<char*> ParseBenchmarkArgs(int argc, char** argv, Flags* flags) {
  std::vector<char*> benchmark_args = {argv[0]};
  std::vector<const char*> own = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (StartsWith(argv[i], "--benchmark_")) {
      benchmark_args.push_back(argv[i]);
    } else {
      own.push_back(argv[i]);
    }
  }
  ParseWithObsFlags(static_cast<int>(own.size()), own.data(), flags);
  return benchmark_args;
}

int RunBenchmarks(std::vector<char*> args, const std::string& suite,
                  const std::string& tracked_json) {
  bool filtered = false, redirected = false;
  for (const char* arg : args) {
    filtered = filtered || StartsWith(arg, "--benchmark_filter");
    redirected = redirected || StartsWith(arg, "--benchmark_out");
  }
  std::string filter = "--benchmark_filter=" + suite;
  std::string out = "--benchmark_out=" + tracked_json;
  std::string format = "--benchmark_out_format=json";
  if (!filtered && !suite.empty()) args.push_back(filter.data());
  if (!filtered && !redirected && !tracked_json.empty()) {
    args.push_back(out.data());
    args.push_back(format.data());
  }
  benchmark::AddCustomContext("semtag_build_type", LibraryBuildType());
  benchmark::AddCustomContext("host_cores", std::to_string(HostCores()));
  WarnIfDebugBuild();
  int argc = static_cast<int>(args.size());
  benchmark::Initialize(&argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc, args.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

Table::Table(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void Table::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void Table::Print() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      std::string cell = rows_[r][c];
      cell.resize(widths[c], ' ');
      line += cell;
      if (c + 1 < rows_[r].size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule;
      for (size_t c = 0; c < widths.size(); ++c) {
        rule += std::string(widths[c], '-');
        if (c + 1 < widths.size()) rule += "  ";
      }
      std::printf("%s\n", rule.c_str());
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double value, int decimals) {
  return StrFormat("%.*f", decimals, value);
}

std::string VsPaper(double measured, double paper) {
  return StrFormat("%.2f (paper %.2f)", measured, paper);
}

std::vector<data::DatasetSpec> SpecsInCategory(
    core::DatasetCategory category) {
  std::vector<data::DatasetSpec> out;
  for (const auto& spec : data::AllDatasetSpecs()) {
    if (core::CategorizeSpec(spec) == category) out.push_back(spec);
  }
  return out;
}

std::vector<data::DatasetSpec> HighRatioSpecs() {
  std::vector<data::DatasetSpec> out;
  for (const auto& spec : data::AllDatasetSpecs()) {
    if (data::IsHighRatio(spec)) out.push_back(spec);
  }
  return out;
}

std::vector<data::DatasetSpec> LowRatioSpecs() {
  std::vector<data::DatasetSpec> out;
  for (const auto& spec : data::AllDatasetSpecs()) {
    if (!data::IsHighRatio(spec)) out.push_back(spec);
  }
  return out;
}

}  // namespace semtag::bench
