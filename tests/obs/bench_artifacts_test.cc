// Committed benchmark artifacts: every BENCH_*.json in the source root must
// parse as JSON, so a bench that writes a malformed record fails CI instead
// of shipping an unreadable baseline.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/validate.h"

namespace semtag::obs {
namespace {

TEST(BenchArtifactsTest, EveryCommittedBenchFileParses) {
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SEMTAG_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream content;
    content << in.rdbuf();
    JsonValue value;
    std::string error;
    EXPECT_TRUE(ParseJson(content.str(), &value, &error))
        << name << ": " << error;
    EXPECT_TRUE(value.is_object()) << name << ": top level is not an object";
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no BENCH_*.json in " << SEMTAG_SOURCE_DIR;
}

}  // namespace
}  // namespace semtag::obs
