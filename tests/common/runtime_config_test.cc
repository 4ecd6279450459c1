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

/// Every knob: a valid value and the field it sets, and an invalid value
/// (nullptr: every text is valid).
struct KnobCase {
  const char* name;
  const char* valid;
  void (*expect)(RuntimeConfig*);
  const char* invalid;
};

const KnobCase kKnobCases[] = {
    {"SEMTAG_NUM_THREADS", "3", [](RuntimeConfig* c) { c->num_threads = 3; },
     "-2"},
    {"SEMTAG_SIMD", "scalar", [](RuntimeConfig* c) { c->simd = "scalar"; },
     "sse2"},
    {"SEMTAG_FAULT", "read_corrupt:match=ckpt",
     [](RuntimeConfig* c) { c->fault = "read_corrupt:match=ckpt"; }, nullptr},
    {"SEMTAG_CELL_DEADLINE_MS", "25000",
     [](RuntimeConfig* c) { c->cell_deadline_ms = 25000; }, "not-a-number"},
    {"SEMTAG_CACHE_DIR", "/tmp/cache",
     [](RuntimeConfig* c) { c->cache_dir = "/tmp/cache"; }, nullptr},
    {"SEMTAG_METRICS", "m.json",
     [](RuntimeConfig* c) { c->metrics_path = "m.json"; }, nullptr},
    {"SEMTAG_TRACE", "t.json",
     [](RuntimeConfig* c) { c->trace_path = "t.json"; }, nullptr},
};

TEST(RuntimeConfigTest, EveryKnobParsesItsValueDefaultAndInvalidValue) {
  RuntimeConfig defaults;
  defaults.home = "/home/u";
  defaults.cache_dir = "/home/u/.cache/semtag";
  EXPECT_EQ(Defaults(), defaults);
  std::set<std::string> covered;
  for (const KnobCase& knob : kKnobCases) {
    SCOPED_TRACE(knob.name);
    covered.insert(knob.name);
    std::vector<std::string> warnings;
    EXPECT_EQ(Parse({{knob.name, ""}}, &warnings), Defaults());
    RuntimeConfig want = defaults;
    knob.expect(&want);
    EXPECT_NE(want, defaults);
    EXPECT_EQ(Parse({{knob.name, knob.valid}}, &warnings), want);
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
  EXPECT_EQ(names.size(), 7u);
}

TEST(RuntimeConfigTest, EdgeValuesKeepTheirSyntax) {
  EXPECT_EQ(Parse({{"SEMTAG_NUM_THREADS", "999"}}, nullptr).num_threads, 256);
  EXPECT_EQ(ParseRuntimeConfig({}).cache_dir, "semtag_cache");  // no HOME
}

TEST(RuntimeConfigTest, ScopedOverridesNestAndRestore) {
  const RuntimeConfig before = GetRuntimeConfig();
  {
    const ScopedRuntimeOverride outer(
        {{"SEMTAG_CELL_DEADLINE_MS", "2"}, {"SEMTAG_SIMD", "scalar"}});
    EXPECT_EQ(GetRuntimeConfig().cell_deadline_ms, 2);
    {
      const ScopedRuntimeOverride inner({{"SEMTAG_SIMD", ""}});
      EXPECT_EQ(GetRuntimeConfig().cell_deadline_ms, 2);
      EXPECT_EQ(GetRuntimeConfig().simd, "");  // "" = the default
    }
    EXPECT_EQ(GetRuntimeConfig().simd, "scalar");
    EXPECT_EQ(GetRuntimeConfig().cache_dir, before.cache_dir);
  }
  EXPECT_EQ(GetRuntimeConfig(), before);
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
