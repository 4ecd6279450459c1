#ifndef SEMTAG_BENCH_BENCH_UTIL_H_
#define SEMTAG_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/flags.h"
#include "core/experiment.h"
#include "core/taxonomy.h"

namespace semtag::bench {

/// The standard context fields every hand-rolled BENCH_*.json carries
/// (RunBenchmarks stamps the same two into google-benchmark's context):
///   "build": "<release|debug>",\n  "host_cores": <n>,
/// (two indented lines, trailing comma, no surrounding braces).
std::string JsonContextFields();

/// Standard bench preamble. Parses the command line: the bench's own
/// `flags` (none when null) together with --metrics PATH / --trace PATH,
/// which arm the observability layer like SEMTAG_METRICS / SEMTAG_TRACE
/// (artifacts flush at exit); --help prints the flags and exits 0, a bad
/// command line exits 2. Then quiets INFO logging (keeps tables clean),
/// prints the header naming the experiment being reproduced, and warns
/// loudly when the binary is a debug build (timings meaningless).
void BenchSetup(const std::string& title, const std::string& paper_ref,
                int argc, char** argv, Flags* flags = nullptr);

/// The command line of a google-benchmark binary: returns argv[0] and the
/// `--benchmark_*` arguments, for RunBenchmarks; every other argument is
/// parsed by the binary's own `flags` plus --metrics / --trace, as in
/// BenchSetup.
std::vector<char*> ParseBenchmarkArgs(int argc, char** argv, Flags* flags);

/// Runs the registered google-benchmarks with `args` and returns main's
/// exit code: 2 when google-benchmark leaves an argument unrecognised.
/// Without a --benchmark_filter in `args`, `suite` is the filter ("" runs
/// every benchmark) and the results go to the tracked `tracked_json`
/// ("" for none) unless a --benchmark_out redirects them; a filtered run
/// never overwrites the tracked file.
int RunBenchmarks(std::vector<char*> args, const std::string& suite,
                  const std::string& tracked_json);

/// Fixed-width table printer. Add a header row then data rows; Print emits
/// an aligned plain-text table to stdout.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// "0.83" style fixed formatting for metric cells.
std::string Fmt(double value, int decimals = 2);

/// "measured (paper X)" cell used throughout EXPERIMENTS.md-facing output.
std::string VsPaper(double measured, double paper);

/// Specs grouped per category in Table 5 row order.
std::vector<data::DatasetSpec> SpecsInCategory(
    core::DatasetCategory category);

/// Specs partitioned by ratio as Figures 1/2 do: high (>= 25%) first.
std::vector<data::DatasetSpec> HighRatioSpecs();
std::vector<data::DatasetSpec> LowRatioSpecs();

}  // namespace semtag::bench

#endif  // SEMTAG_BENCH_BENCH_UTIL_H_
