#include <gtest/gtest.h>

#include "nn/schedule.h"

namespace semtag::nn {
namespace {

TEST(InverseTimeDecayTest, HalvesAtExpectedStep) {
  InverseTimeDecayLr schedule(0.5, 0.01);
  EXPECT_DOUBLE_EQ(schedule.At(0), 0.5);
  EXPECT_NEAR(schedule.At(100), 0.25, 1e-12);  // 1 + 0.01*100 = 2
  EXPECT_GT(schedule.At(10), schedule.At(20));
}

TEST(ScheduleTest, NextAdvancesState) {
  InverseTimeDecayLr schedule(1.0, 1.0);
  EXPECT_DOUBLE_EQ(schedule.Next(), 1.0);    // step 0
  EXPECT_DOUBLE_EQ(schedule.Next(), 0.5);    // step 1
  EXPECT_DOUBLE_EQ(schedule.Next(), 1.0 / 3);  // step 2
}

}  // namespace
}  // namespace semtag::nn
