#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/timer.h"
#include "config/runtime_config.h"

namespace semtag {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearFaults(); }
};

TEST_F(FaultTest, UnarmedProbeNeverTriggers) {
  ClearFaults();
  EXPECT_FALSE(FaultInjected(FaultPoint::kWriteFail, "anything"));
  EXPECT_EQ(FaultTriggerCount(FaultPoint::kWriteFail), 0);
}

TEST_F(FaultTest, ParseFullSpec) {
  auto r = ParseFaultSpec("nan_grad:match=LSTM:after=2:count=3:every=4:ms=7");
  ASSERT_TRUE(r.ok());
  const FaultSpec& s = *r;
  EXPECT_EQ(s.point, FaultPoint::kNonFiniteGrad);
  EXPECT_EQ(s.match, "LSTM");
  EXPECT_EQ(s.after, 2);
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.every, 4);
  EXPECT_EQ(s.ms, 7);
}

TEST_F(FaultTest, ParseDefaults) {
  auto r = ParseFaultSpec("write_fail");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->point, FaultPoint::kWriteFail);
  EXPECT_TRUE(r->match.empty());
  EXPECT_EQ(r->after, 0);
  EXPECT_EQ(r->count, -1);
  EXPECT_EQ(r->every, 1);
}

TEST_F(FaultTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseFaultSpec("").ok());
  EXPECT_FALSE(ParseFaultSpec("explode").ok());
  EXPECT_FALSE(ParseFaultSpec("write_fail:count").ok());
  EXPECT_FALSE(ParseFaultSpec("write_fail:count=x").ok());
  EXPECT_FALSE(ParseFaultSpec("write_fail:count=-1").ok());
  EXPECT_FALSE(ParseFaultSpec("write_fail:frequency=2").ok());
}

TEST_F(FaultTest, InvalidSpecArmsNothing) {
  EXPECT_FALSE(SetFaultsFromSpec("write_fail;explode").ok());
  EXPECT_FALSE(FaultInjected(FaultPoint::kWriteFail, "x"));
}

TEST_F(FaultTest, MatchFiltersByContextSubstring) {
  ASSERT_TRUE(SetFaultsFromSpec("write_fail:match=results").ok());
  EXPECT_FALSE(FaultInjected(FaultPoint::kWriteFail, "/tmp/ckpt.bin"));
  EXPECT_TRUE(FaultInjected(FaultPoint::kWriteFail, "/tmp/results.csv"));
  // A different point never fires from this spec.
  EXPECT_FALSE(FaultInjected(FaultPoint::kReadCorrupt, "/tmp/results.csv"));
}

TEST_F(FaultTest, AfterSkipsLeadingProbesAndCountCaps) {
  ASSERT_TRUE(SetFaultsFromSpec("nan_loss:after=2:count=2").ok());
  EXPECT_FALSE(FaultInjected(FaultPoint::kNonFiniteLoss, "s"));  // skip 1
  EXPECT_FALSE(FaultInjected(FaultPoint::kNonFiniteLoss, "s"));  // skip 2
  EXPECT_TRUE(FaultInjected(FaultPoint::kNonFiniteLoss, "s"));   // fire 1
  EXPECT_TRUE(FaultInjected(FaultPoint::kNonFiniteLoss, "s"));   // fire 2
  EXPECT_FALSE(FaultInjected(FaultPoint::kNonFiniteLoss, "s"));  // exhausted
  EXPECT_EQ(FaultTriggerCount(FaultPoint::kNonFiniteLoss), 2);
}

TEST_F(FaultTest, EveryFiresPeriodically) {
  ASSERT_TRUE(SetFaultsFromSpec("nan_grad:every=3").ok());
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (FaultInjected(FaultPoint::kNonFiniteGrad, "ctx")) ++fired;
  }
  EXPECT_EQ(fired, 3);  // probes 0, 3, 6
}

TEST_F(FaultTest, MultipleEntriesArmIndependently) {
  ASSERT_TRUE(
      SetFaultsFromSpec("write_fail:match=a; nan_loss:match=b").ok());
  EXPECT_TRUE(FaultInjected(FaultPoint::kWriteFail, "a"));
  EXPECT_FALSE(FaultInjected(FaultPoint::kWriteFail, "b"));
  EXPECT_TRUE(FaultInjected(FaultPoint::kNonFiniteLoss, "b"));
}

TEST_F(FaultTest, StallSleepsForMs) {
  ASSERT_TRUE(SetFaultsFromSpec("stall:ms=50:count=1").ok());
  WallTimer timer;
  EXPECT_TRUE(FaultInjected(FaultPoint::kStall, "cell"));
  EXPECT_GE(timer.ElapsedSeconds(), 0.045);
}

// The registry arms itself from the config's SEMTAG_FAULT text; arming
// from that text again follows the knob, and an empty knob disarms.
TEST_F(FaultTest, ReloadFaultsFromEnv) {
  {
    const ScopedRuntimeOverride armed(
        {{"SEMTAG_FAULT", "read_corrupt:match=ckpt"}});
    ASSERT_TRUE(SetFaultsFromSpec(GetRuntimeConfig().fault).ok());
    EXPECT_TRUE(FaultInjected(FaultPoint::kReadCorrupt, "my_ckpt.bin"));
  }
  const ScopedRuntimeOverride unset({{"SEMTAG_FAULT", ""}});
  ASSERT_TRUE(SetFaultsFromSpec(GetRuntimeConfig().fault).ok());
  EXPECT_FALSE(FaultInjected(FaultPoint::kReadCorrupt, "my_ckpt.bin"));
}

TEST_F(FaultTest, ClearFaultsResetsCounters) {
  ASSERT_TRUE(SetFaultsFromSpec("write_fail").ok());
  EXPECT_TRUE(FaultInjected(FaultPoint::kWriteFail, "x"));
  ClearFaults();
  EXPECT_FALSE(FaultInjected(FaultPoint::kWriteFail, "x"));
  EXPECT_EQ(FaultTriggerCount(FaultPoint::kWriteFail), 0);
}

}  // namespace
}  // namespace semtag
