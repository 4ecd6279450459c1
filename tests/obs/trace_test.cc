#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/validate.h"

namespace semtag::obs {
namespace {

/// Runs every test against empty rings with tracing on, restoring the
/// process-level enabled state afterwards (a CI run exporting
/// $SEMTAG_TRACE still gets its atexit flush).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = TraceEnabled();
    SetTraceEnabled(true);
    ResetTraceForTest();
  }
  void TearDown() override {
    ResetTraceForTest();
    SetTraceEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

/// (ph, name) pairs of traceEvents in export order, plus the parsed root.
struct ParsedTrace {
  JsonValue root;
  std::vector<std::pair<char, std::string>> events;
};

ParsedTrace Parse(const std::string& json) {
  ParsedTrace out;
  std::string err;
  EXPECT_TRUE(ParseJson(json, &out.root, &err)) << err;
  const JsonValue* events = out.root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    ADD_FAILURE() << "no traceEvents array";
    return out;
  }
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    const JsonValue* name = e.Find("name");
    if (ph == nullptr || name == nullptr) {
      ADD_FAILURE() << "event missing ph/name";
      continue;
    }
    out.events.emplace_back(ph->string_value.empty() ? '?'
                                                     : ph->string_value[0],
                            name->string_value);
  }
  return out;
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  SetTraceEnabled(false);
  {
    TraceSpan span("should_not_appear");
    TraceSpan tagged("also_not", "tag");
  }
  SetTraceEnabled(true);
  const TraceStats stats = GetTraceStats();
  EXPECT_EQ(stats.recorded, 0u);
  // An empty export is still a valid chrome-trace file.
  const ValidationResult check = ValidateTraceJson(TraceToJson());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 0);
}

TEST_F(TraceTest, SpanStartedWhileDisabledStaysInert) {
  SetTraceEnabled(false);
  {
    TraceSpan span("born_disabled");
    // Enabling mid-span must not produce a record with no begin stamp.
    SetTraceEnabled(true);
    span.SetTag("late");
  }
  EXPECT_EQ(GetTraceStats().recorded, 0u);
}

TEST_F(TraceTest, NestingIsReproducedInExportOrder) {
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
    {
      TraceSpan sibling("sibling");
    }
  }
  const ParsedTrace parsed = Parse(TraceToJson());
  const std::vector<std::pair<char, std::string>> expected = {
      {'B', "outer"},   {'B', "inner"},   {'E', "inner"},
      {'B', "sibling"}, {'E', "sibling"}, {'E', "outer"},
  };
  EXPECT_EQ(parsed.events, expected);
  const ValidationResult check = ValidateTraceJson(TraceToJson());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 6);
}

TEST_F(TraceTest, GoldenExportFieldsParseBack) {
  {
    TraceSpan outer("golden/outer");
    TraceSpan inner("golden/inner", "cell-ok");
  }
  const ParsedTrace parsed = Parse(TraceToJson());
  ASSERT_EQ(parsed.events.size(), 4u);
  const JsonValue* unit = parsed.root.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string_value, "ms");

  const JsonValue* events = parsed.root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  double prev_ts = -1.0;
  for (const JsonValue& e : events->array) {
    EXPECT_EQ(e.Find("cat")->string_value, "semtag");
    EXPECT_DOUBLE_EQ(e.Find("pid")->number, 1.0);
    ASSERT_TRUE(e.Find("ts")->is_number());
    EXPECT_GE(e.Find("ts")->number, prev_ts);
    prev_ts = e.Find("ts")->number;
    EXPECT_TRUE(e.Find("tid")->is_number());
  }
  // The tag rides on the end event of the tagged span only.
  const JsonValue& inner_end = events->array[2];
  ASSERT_EQ(inner_end.Find("name")->string_value, "golden/inner");
  const JsonValue* args = inner_end.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("tag")->string_value, "cell-ok");
  EXPECT_EQ(events->array[3].Find("args"), nullptr);
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  auto worker = [](const char* name) {
    TraceSpan span(name);
  };
  std::thread a(worker, "thread_a");
  std::thread b(worker, "thread_b");
  a.join();
  b.join();
  const ParsedTrace parsed = Parse(TraceToJson());
  ASSERT_EQ(parsed.events.size(), 4u);
  const JsonValue* events = parsed.root.Find("traceEvents");
  int tid_a = -1;
  int tid_b = -1;
  for (const JsonValue& e : events->array) {
    const int tid = static_cast<int>(e.Find("tid")->number);
    if (e.Find("name")->string_value == "thread_a") tid_a = tid;
    if (e.Find("name")->string_value == "thread_b") tid_b = tid;
  }
  EXPECT_GT(tid_a, 0);
  EXPECT_GT(tid_b, 0);
  EXPECT_NE(tid_a, tid_b);
  const ValidationResult check = ValidateTraceJson(TraceToJson());
  EXPECT_TRUE(check.ok) << check.error;
}

TEST_F(TraceTest, LongNamesAndTagsAreTruncatedNotCorrupted) {
  const std::string long_name(200, 'n');
  const std::string long_tag(200, 't');
  {
    TraceSpan span(long_name.c_str(), long_tag.c_str());
  }
  const ParsedTrace parsed = Parse(TraceToJson());
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].second,
            std::string(TraceSpan::kNameChars - 1, 'n'));
  const JsonValue* args = parsed.root.Find("traceEvents")->array[1].Find(
      "args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("tag")->string_value,
            std::string(TraceSpan::kTagChars - 1, 't'));
}

TEST_F(TraceTest, RingOverflowDropsOldestButStaysBalanced) {
  // The ring holds 8192 spans per thread; spin until wrap-around is
  // observed.
  TraceStats stats;
  for (int i = 0; i < (1 << 20) + 256 && stats.dropped == 0; ++i) {
    TraceSpan span("overflow");
    if ((i & 1023) == 1023) stats = GetTraceStats();
  }
  stats = GetTraceStats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.recorded, 0u);
  // Dropped records take their begin AND end with them, so the export is
  // still balanced and valid.
  const ValidationResult check = ValidateTraceJson(TraceToJson());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, static_cast<int>(stats.recorded) * 2);
}

TEST_F(TraceTest, ResetEmptiesRings) {
  {
    TraceSpan span("pre_reset");
  }
  EXPECT_EQ(GetTraceStats().recorded, 1u);
  ResetTraceForTest();
  const TraceStats stats = GetTraceStats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(ValidateTraceJson(TraceToJson()).events, 0);
}

}  // namespace
}  // namespace semtag::obs
