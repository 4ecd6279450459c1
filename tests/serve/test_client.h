// Helpers shared by the serving tests: a blocking wire-protocol client
// that connects to a loopback Server, writes frames and reads framed
// responses back, and a scoped guard for fault injection.

#ifndef SEMTAG_TESTS_SERVE_TEST_CLIENT_H_
#define SEMTAG_TESTS_SERVE_TEST_CLIENT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "serve/protocol.h"

namespace semtag::serve {

/// Arms `spec` (common/fault.h) for one scope and clears every fault on
/// exit, whatever the test asserted.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) {
    EXPECT_TRUE(SetFaultsFromSpec(spec).ok());
  }
  ~ScopedFaults() { ClearFaults(); }
};

class TestClient {
 public:
  TestClient() = default;
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;
  ~TestClient() {
    if (fd_ >= 0) (void)::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(uint8_t tag, std::string_view payload) {
    std::string frame;
    AppendFrame(tag, payload, &frame);
    return Write(frame);
  }

  /// Writes pre-framed bytes in one write(): frames sent together arrive
  /// in one server read.
  bool Write(std::string_view wire) {
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(fd_, wire.data() + off, wire.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking read of the next frame (10s timeout).
  bool ReadFrame(uint8_t* tag, std::string* payload) {
    for (int spins = 0; spins < 1000; ++spins) {
      if (reader_.Next(tag, payload)) return true;
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 10) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      if (!reader_.Feed(buf, static_cast<size_t>(n))) return false;
    }
    return false;
  }

  /// Sends `payload` as `op` and reads the one response frame; an empty
  /// string with tag 0 if none arrives.
  std::string Call(Opcode op, std::string_view payload, uint8_t* tag) {
    std::string response;
    *tag = 0;
    if (!Send(static_cast<uint8_t>(op), payload) ||
        !ReadFrame(tag, &response)) {
      return "";
    }
    return response;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace semtag::serve

#endif  // SEMTAG_TESTS_SERVE_TEST_CLIENT_H_
