#include "common/signal.h"

#include <atomic>
#include <cstring>
#include <mutex>

#include "common/logging.h"

#ifdef __unix__
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

namespace semtag {
namespace {

// Handler state lives in plain atomics (not in the singleton) so the
// async-signal context touches nothing that could allocate or lock.
std::atomic<int> g_last_signal{0};
std::atomic<int> g_signal_count{0};
std::atomic<int> g_write_fd{-1};

#ifdef __unix__
void OnShutdownSignal(int signum) {
  g_last_signal.store(signum, std::memory_order_relaxed);
  g_signal_count.fetch_add(1, std::memory_order_relaxed);
  const int fd = g_write_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // The pipe is non-blocking; a full pipe just means the reader already
    // has plenty of wakeup bytes pending.
    (void)!::write(fd, &byte, 1);
  }
}
#endif

}  // namespace

ShutdownSignal& ShutdownSignal::Install() {
  static ShutdownSignal* instance = new ShutdownSignal();
  static std::once_flag once;
  std::call_once(once, [] {
#ifdef __unix__
    int fds[2] = {-1, -1};
    if (::pipe(fds) == 0) {
      for (int fd : fds) {
        (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
      }
      instance->read_fd_ = fds[0];
      g_write_fd.store(fds[1], std::memory_order_relaxed);
    } else {
      SEMTAG_LOG(kWarning,
                 "ShutdownSignal: pipe() failed; fd() unavailable, "
                 "count() still works");
    }
    struct sigaction action;
    ::memset(&action, 0, sizeof(action));
    action.sa_handler = OnShutdownSignal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    (void)::sigaction(SIGINT, &action, nullptr);
    (void)::sigaction(SIGTERM, &action, nullptr);
#endif
  });
  return *instance;
}

int ShutdownSignal::signal() const {
  return g_last_signal.load(std::memory_order_relaxed);
}

int ShutdownSignal::count() const {
  return g_signal_count.load(std::memory_order_relaxed);
}

void ShutdownSignal::Drain() const {
#ifdef __unix__
  if (read_fd_ < 0) return;
  char buf[64];
  while (::read(read_fd_, buf, sizeof(buf)) > 0) {
  }
#endif
}

void ShutdownSignal::ResetForTest() {
  Drain();
  g_last_signal.store(0, std::memory_order_relaxed);
  g_signal_count.store(0, std::memory_order_relaxed);
}

}  // namespace semtag
