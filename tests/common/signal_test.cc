// Self-pipe shutdown helper (common/signal.h): idempotent install, both
// consumption styles (polled count(), epoll-able fd()), and the
// second-signal escalation counter. Raising SIGTERM here is safe — the
// helper's handler intercepts it for the whole process lifetime.

#include <csignal>

#include <gtest/gtest.h>

#include <poll.h>

#include "common/signal.h"

namespace semtag {
namespace {

bool PipeReadable(int fd, int timeout_ms = 1000) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN) != 0;
}

TEST(ShutdownSignalTest, InstallIsIdempotentSingleton) {
  ShutdownSignal& first = ShutdownSignal::Install();
  ShutdownSignal& second = ShutdownSignal::Install();
  EXPECT_EQ(&first, &second);
  EXPECT_GE(first.fd(), 0);
  EXPECT_EQ(first.fd(), second.fd());
}

TEST(ShutdownSignalTest, SigtermSetsStateAndWakesPipe) {
  ShutdownSignal& signal = ShutdownSignal::Install();
  signal.ResetForTest();
  ASSERT_EQ(signal.count(), 0);
  EXPECT_EQ(signal.signal(), 0);

  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_GT(signal.count(), 0);
  EXPECT_EQ(signal.signal(), SIGTERM);
  EXPECT_EQ(signal.count(), 1);
  // The self-pipe is the epoll wake-up: readable once the signal lands.
  EXPECT_TRUE(PipeReadable(signal.fd()));

  // Drain re-arms edge-triggered pollers but keeps the fired state.
  signal.Drain();
  EXPECT_FALSE(PipeReadable(signal.fd(), /*timeout_ms=*/20));
  EXPECT_GT(signal.count(), 0);

  signal.ResetForTest();
}

TEST(ShutdownSignalTest, SecondSignalEscalates) {
  ShutdownSignal& signal = ShutdownSignal::Install();
  signal.ResetForTest();

  ASSERT_EQ(::raise(SIGTERM), 0);
  ASSERT_EQ(::raise(SIGINT), 0);
  EXPECT_EQ(signal.count(), 2);
  EXPECT_EQ(signal.signal(), SIGINT) << "signal() reports the latest";
  EXPECT_GT(signal.count(), 0);

  signal.ResetForTest();
  EXPECT_EQ(signal.count(), 0);
  EXPECT_EQ(signal.count(), 0);
}

}  // namespace
}  // namespace semtag
