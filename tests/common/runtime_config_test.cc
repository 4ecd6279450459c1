#include "config/runtime_config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace semtag {
namespace {

RuntimeConfig Parse(KnobMap env, std::vector<std::string>* warnings) {
  env["HOME"] = "/home/u";
  return ParseRuntimeConfig(env, warnings);
}

RuntimeConfig Defaults() { return Parse({}, nullptr); }

/// Every knob: its default and a valid value, each as the text the config
/// renders back, and an invalid value (nullptr: every text is valid).
struct KnobCase {
  const char* name;
  const char* fallback;
  const char* valid;
  const char* invalid;
};

const KnobCase kKnobCases[] = {
    {"SEMTAG_NUM_THREADS", "0", "3", "-2"},
    {"SEMTAG_SIMD", "", "scalar", "sse2"},
    {"SEMTAG_QUANT", "0", "1", "yes"},
    {"SEMTAG_FAULT", "", "read_corrupt:match=ckpt", nullptr},
    {"SEMTAG_CELL_DEADLINE_MS", "0", "25000", "not-a-number"},
    {"SEMTAG_CACHE_DIR", "/home/u/.cache/semtag", "/tmp/cache", nullptr},
    {"SEMTAG_METRICS", "", "m.json", nullptr},
    {"SEMTAG_TRACE", "", "t.json", nullptr},
    {"SEMTAG_CASCADE", "auto", "LR+eb+CNN", "+CNN"},
    {"SEMTAG_CASCADE_BUDGET", "0.5", "1.25", "150"},
    {"SEMTAG_REPLAN_EPOCH", "256", "64", "-1"},
    {"SEMTAG_REPLAN_WINDOW", "8", "4", "0"},
    {"SEMTAG_REPLAN_HYSTERESIS", "3,0.25", "5,1.5", "nonsense"},
    {"SEMTAG_REPLAN_DIRTY", "0.25,0.10000000000000001", "0.5,0.125", "x,y"},
    {"SEMTAG_REPLAN_PROFILE", "0,0", "4750000,0.25", "lots"},
    {"SEMTAG_REPLAN_PAIR", "", "LR+CNN", "not-a-pair"},
    {"SEMTAG_REPLAN_DIR", ".", "/tmp/replan", nullptr},
};

TEST(RuntimeConfigTest, EveryKnobParsesItsValueDefaultAndInvalidValue) {
  std::set<std::string> covered;
  for (const KnobCase& knob : kKnobCases) {
    SCOPED_TRACE(knob.name);
    covered.insert(knob.name);
    std::vector<std::string> warnings;
    EXPECT_EQ(RenderKnob(Defaults(), knob.name), knob.fallback);
    EXPECT_EQ(Parse({{knob.name, ""}}, &warnings), Defaults());
    const RuntimeConfig valid = Parse({{knob.name, knob.valid}}, &warnings);
    EXPECT_NE(valid, Defaults());
    EXPECT_EQ(RenderKnob(valid, knob.name), knob.valid);
    EXPECT_TRUE(warnings.empty());
    if (knob.invalid != nullptr) {
      EXPECT_EQ(Parse({{knob.name, knob.invalid}}, &warnings), Defaults());
      ASSERT_EQ(warnings.size(), 1u);
      const std::string expected = std::string(knob.name) + "='" +
                                   knob.invalid +
                                   "' is invalid; using the default '";
      EXPECT_EQ(warnings[0].rfind(expected, 0), 0u) << warnings[0];
    }
  }
  const std::vector<std::string> names = RuntimeKnobNames();
  EXPECT_EQ(covered, std::set<std::string>(names.begin(), names.end()));
  EXPECT_EQ(names.size(), 17u);
}

TEST(RuntimeConfigTest, EdgeValuesKeepTheirSyntax) {
  EXPECT_EQ(Parse({{"SEMTAG_NUM_THREADS", "999"}}, nullptr).num_threads, 256);
  // A pair with one part replaces that part only.
  const RuntimeConfig dwell =
      Parse({{"SEMTAG_REPLAN_HYSTERESIS", "7"}}, nullptr);
  EXPECT_EQ(dwell.replan_dwell, 7);
  EXPECT_EQ(dwell.replan_margin_pts, 0.25);
  const RuntimeConfig band = Parse({{"SEMTAG_REPLAN_DIRTY", ",0.2"}}, nullptr);
  EXPECT_EQ(band.replan_dirty_threshold, 0.25);
  EXPECT_EQ(band.replan_dirty_band, 0.2);
  EXPECT_EQ(Parse({{"SEMTAG_CASCADE_BUDGET", "100"}}, nullptr).cascade_budget,
            100.0);
  EXPECT_EQ(Parse({{"SEMTAG_CASCADE", "simple"}}, nullptr).cascade, "simple");
  EXPECT_EQ(ParseRuntimeConfig({}).cache_dir, "semtag_cache");  // no HOME
}

TEST(RuntimeConfigTest, ScopedOverridesNestAndRestore) {
  const RuntimeConfig before = GetRuntimeConfig();
  {
    const ScopedRuntimeOverride outer(
        {{"SEMTAG_QUANT", "1"}, {"SEMTAG_CASCADE", "SVM+CNN"}});
    EXPECT_TRUE(GetRuntimeConfig().quant);
    {
      const ScopedRuntimeOverride inner({{"SEMTAG_CASCADE", ""}});
      EXPECT_TRUE(GetRuntimeConfig().quant);
      EXPECT_EQ(GetRuntimeConfig().cascade, "auto");  // "" = the default
    }
    EXPECT_EQ(GetRuntimeConfig().cascade, "SVM+CNN");
    EXPECT_EQ(GetRuntimeConfig().cache_dir, before.cache_dir);
  }
  EXPECT_EQ(GetRuntimeConfig(), before);
}

TEST(RuntimeConfigTest, ChildEnvironmentSetsTheGivenKnobs) {
  int quant = 0;
  for (const std::string& entry : ChildEnvironment({{"SEMTAG_QUANT", "1"}})) {
    if (entry.rfind("SEMTAG_QUANT=", 0) == 0) {
      ++quant;
      EXPECT_EQ(entry, "SEMTAG_QUANT=1");
    }
  }
  EXPECT_EQ(quant, 1);
}

TEST(RuntimeConfigTest, ReadmeEnvTableListsExactlyTheKnobs) {
  std::ifstream readme(std::string(SEMTAG_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.good());
  std::set<std::string> documented;
  const std::regex knob("SEMTAG_[A-Z0-9_]+");
  for (std::string line; std::getline(readme, line);) {
    const size_t env = line.find("(env)");
    if (line.rfind("| `SEMTAG_", 0) != 0 || env == std::string::npos) continue;
    const std::string head = line.substr(0, env);
    for (std::sregex_iterator it(head.begin(), head.end(), knob), end;
         it != end; ++it) {
      documented.insert(it->str());
    }
  }
  const std::vector<std::string> names = RuntimeKnobNames();
  EXPECT_EQ(documented, std::set<std::string>(names.begin(), names.end()));
}

}  // namespace
}  // namespace semtag
