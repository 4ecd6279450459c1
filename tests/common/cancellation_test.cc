#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "config/runtime_config.h"

namespace semtag {
namespace {

TEST(CancellationTokenTest, NullTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  // Cancel on a null token is a harmless no-op.
  token.Cancel();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, ManualCancelIsSticky) {
  CancellationToken token = CancellationToken::Manual();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  // Still cancelled on every later probe.
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token = CancellationToken::Manual();
  CancellationToken copy = token;
  copy.Cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, DeadlineExpires) {
  CancellationToken token = CancellationToken::WithDeadline(1);
  ASSERT_TRUE(token.valid());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, GenerousDeadlineStaysOpen) {
  CancellationToken token = CancellationToken::WithDeadline(60'000);
  ASSERT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationTokenTest, NonPositiveDeadlineMeansNoBudget) {
  EXPECT_FALSE(CancellationToken::WithDeadline(0).valid());
  EXPECT_FALSE(CancellationToken::WithDeadline(-5).valid());
}

TEST(CancellationTokenTest, ExplicitCancelWinsOverDeadlineCode) {
  CancellationToken token = CancellationToken::WithDeadline(60'000);
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

// MakeCellToken reads SEMTAG_CELL_DEADLINE_MS from the current config on
// every call, so an override takes effect on the next cell.
TEST(CellDeadlineTest, ReadsEnvOnEveryCall) {
  {
    const ScopedRuntimeOverride unset({{"SEMTAG_CELL_DEADLINE_MS", ""}});
    EXPECT_FALSE(MakeCellToken().valid());
  }
  {
    const ScopedRuntimeOverride set({{"SEMTAG_CELL_DEADLINE_MS", "25000"}});
    EXPECT_TRUE(MakeCellToken().valid());
    EXPECT_FALSE(MakeCellToken().cancelled());
  }
  const ScopedRuntimeOverride bad(
      {{"SEMTAG_CELL_DEADLINE_MS", "not-a-number"}});
  EXPECT_FALSE(MakeCellToken().valid());
}

}  // namespace
}  // namespace semtag
