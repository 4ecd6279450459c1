#ifndef SEMTAG_COMMON_SIGNAL_H_
#define SEMTAG_COMMON_SIGNAL_H_

namespace semtag {

/// Process-wide self-pipe shutdown signal (the `semtag_serve` daemon's
/// drain trigger).
///
/// Install() arms SIGINT + SIGTERM with an async-signal-safe handler that
/// records the signal number and writes one byte to a non-blocking
/// self-pipe. Two consumption styles:
///  - polling loops probe requested() — a single relaxed atomic load —
///    between iterations;
///  - event loops (the serve daemon) register fd() with epoll/poll and
///    wake the instant the signal lands, with no polling latency.
///
/// The helper is a process singleton: handlers are installed once
/// (idempotent, thread-safe) and stay installed for the process lifetime.
/// fork+exec children start from default handlers again (exec resets
/// them). A second signal after the first is recorded too (signal()
/// reports the latest), letting daemons escalate "drain" to "abort now".
class ShutdownSignal {
 public:
  /// Installs the SIGINT/SIGTERM handlers (first call only) and returns
  /// the singleton. Safe to call from multiple threads.
  static ShutdownSignal& Install();

  /// Read end of the self-pipe: non-blocking, close-on-exec, readable once
  /// a signal has fired. Register with epoll/poll; never close it.
  int fd() const { return read_fd_; }

  /// True once any armed signal has been received.
  bool requested() const;

  /// The most recent signal received, or 0 when none has fired.
  int signal() const;

  /// Number of armed signals received so far (a second SIGTERM while
  /// draining means "stop waiting, exit now").
  int count() const;

  /// Consumes pending self-pipe bytes so edge-triggered pollers can
  /// re-arm. requested() stays true.
  void Drain() const;

  /// Clears the fired state (not the handlers). Tests only — real
  /// shutdowns are one-way.
  void ResetForTest();

 private:
  ShutdownSignal() = default;
  ShutdownSignal(const ShutdownSignal&) = delete;
  ShutdownSignal& operator=(const ShutdownSignal&) = delete;

  int read_fd_ = -1;
};

}  // namespace semtag

#endif  // SEMTAG_COMMON_SIGNAL_H_
