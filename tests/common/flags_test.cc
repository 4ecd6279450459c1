#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag {
namespace {

/// Parses `args` (argv[0] is added) with `flags`.
Status Parse(Flags* flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags->Parse(static_cast<int>(args.size()), args.data());
}

/// A flag of every kind, bound to the fields of one struct.
struct Values {
  std::string name = "none";
  int count = 3;
  int64_t big = 0;
  double ratio = 0.5;
  bool verbose = false;
  Flags flags{"prog"};

  Values() {
    flags.String("name", &name, "a name");
    flags.Number("count", &count, 1, 10, "how many");
    flags.Number("big", &big, 0, INT64_MAX, "a large count");
    flags.Number("ratio", &ratio, 0.0, 1.0, "a fraction");
    flags.Bool("verbose", &verbose, "say more");
  }
};

TEST(FlagsTest, AcceptsBothValueForms) {
  Values v;
  ASSERT_TRUE(Parse(&v.flags, {"--name", "a=b", "--count=7", "--big",
                               "4750000", "--ratio=0.25", "--verbose"})
                  .ok());
  EXPECT_EQ(v.name, "a=b");
  EXPECT_EQ(v.count, 7);
  EXPECT_EQ(v.big, 4750000);
  EXPECT_EQ(v.ratio, 0.25);
  EXPECT_TRUE(v.verbose);
  Values empty;
  ASSERT_TRUE(Parse(&empty.flags, {"--name="}).ok());
  EXPECT_EQ(empty.name, "");
}

TEST(FlagsTest, RangeLimitsAreInclusive) {
  for (const char* ok : {"1", "10"}) {
    Values v;
    EXPECT_TRUE(Parse(&v.flags, {"--count", ok}).ok()) << ok;
  }
  for (const char* bad : {"0", "11", "abc", "2.5", ""}) {
    Values v;
    const Status st = Parse(&v.flags, {"--count", bad});
    EXPECT_EQ(st.message(), std::string("--count: bad value '") + bad +
                                "'; want an integer, 1 to 10");
    EXPECT_EQ(v.count, 3);  // a rejected value leaves the default
  }
  Values ratio;
  EXPECT_TRUE(Parse(&ratio.flags, {"--ratio=1"}).ok());
  Values over;
  EXPECT_EQ(Parse(&over.flags, {"--ratio=1.01"}).message(),
            "--ratio: bad value '1.01'; want a number, 0 to 1");
  Values negative;
  EXPECT_EQ(Parse(&negative.flags, {"--big=-1"}).message(),
            "--big: bad value '-1'; want an integer, >= 0");
}

TEST(FlagsTest, BoolTakesNoArgument) {
  Values v;
  // The argument after a bool is never its value.
  EXPECT_EQ(Parse(&v.flags, {"--verbose", "yes"}).message(),
            "unexpected argument 'yes'");
  Values next;
  ASSERT_TRUE(Parse(&next.flags, {"--verbose", "--count", "2"}).ok());
  EXPECT_TRUE(next.verbose);
  EXPECT_EQ(next.count, 2);
  Values inline_value;
  EXPECT_EQ(Parse(&inline_value.flags, {"--verbose=1"}).message(),
            "--verbose takes no value");
}

TEST(FlagsTest, ErrorsNameTheFlag) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases =
      {{{"--modle", "LR"}, "unknown flag --modle"},
       {{"--name"}, "--name needs a value"},
       {{"--name", "--count", "2"}, "--name needs a value"},
       {{"--count", "2", "--count=3"}, "--count given twice"},
       {{"positional"}, "unexpected argument 'positional'"},
       {{"-count", "2"}, "unexpected argument '-count'"}};
  for (const auto& [args, message] : cases) {
    Values v;
    EXPECT_EQ(Parse(&v.flags, args).message(), message);
  }
}

TEST(FlagsTest, HelpStopsParsing) {
  Values v;
  EXPECT_FALSE(v.flags.help());
  ASSERT_TRUE(Parse(&v.flags, {"--help", "--no-such-flag"}).ok());
  EXPECT_TRUE(v.flags.help());
}

TEST(FlagsTest, UsageIsGeneratedFromTheDeclarations) {
  Values v;
  EXPECT_EQ(v.flags.Usage(),
            "usage: prog [flags]\n"
            "  --name TEXT  a name (default none)\n"
            "  --count INT  how many (1 to 10; default 3)\n"
            "  --big INT    a large count (>= 0; default 0)\n"
            "  --ratio NUM  a fraction (0 to 1; default 0.5)\n"
            "  --verbose    say more\n");
}

// The --metrics / --trace flags of the daemon and the benches are string
// flags whose paths obs::ArmExports arms.
TEST(FlagsTest, ObsFlagsArmMetricsAndTrace) {
  const std::string saved_metrics = obs::MetricsExportPath();
  const std::string saved_trace = obs::TraceExportPath();
  const bool metrics_on = obs::MetricsEnabled();
  const bool trace_on = obs::TraceEnabled();
  std::string metrics, trace;
  Flags flags("prog");
  flags.String("metrics", &metrics, "metrics export");
  flags.String("trace", &trace, "trace export");
  EXPECT_EQ(Parse(&flags, {"--metricsx=/tmp/m.json"}).message(),
            "unknown flag --metricsx");
  ASSERT_TRUE(Parse(&flags, {"--metrics=/tmp/m.json", "--trace",
                             "/tmp/t.json"}).ok());
  obs::ArmExports(metrics, trace);
  EXPECT_EQ(obs::MetricsExportPath(), "/tmp/m.json");
  EXPECT_TRUE(obs::MetricsEnabled());
  EXPECT_EQ(obs::TraceExportPath(), "/tmp/t.json");
  EXPECT_TRUE(obs::TraceEnabled());
  // An empty path leaves the layer as it was.
  obs::ArmExports("", "");
  EXPECT_EQ(obs::MetricsExportPath(), "/tmp/m.json");
  obs::SetMetricsExportPath(saved_metrics);
  obs::SetTraceExportPath(saved_trace);
  obs::SetMetricsEnabled(metrics_on);
  obs::SetTraceEnabled(trace_on);
}

}  // namespace
}  // namespace semtag
