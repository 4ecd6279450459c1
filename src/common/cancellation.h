#ifndef SEMTAG_COMMON_CANCELLATION_H_
#define SEMTAG_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace semtag {

/// Cooperative cancellation handle checked inside training loops. Copying
/// shares the underlying state; a default-constructed token is "null" and
/// never cancels (a probe on it is a single null check, so models can probe
/// every step at no cost when no deadline is set).
///
/// Two triggers: an explicit Cancel() from a watchdog, or a wall-clock
/// deadline baked in at creation (the per-grid-cell budget). Once either
/// fires, cancelled() stays true.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// A manually cancellable token with no deadline.
  static CancellationToken Manual();

  /// A token that auto-cancels `deadline_ms` after creation.
  /// `deadline_ms <= 0` returns a null token (no budget).
  static CancellationToken WithDeadline(int64_t deadline_ms);

  bool valid() const { return state_ != nullptr; }

  /// Requests cancellation (sticky).
  void Cancel();

  /// True once cancelled or past the deadline.
  bool cancelled() const;

  /// OK while running; DeadlineExceeded once the deadline passed;
  /// Cancelled after an explicit Cancel().
  Status status() const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Token for one grid cell: a deadline of the runtime config's
/// SEMTAG_CELL_DEADLINE_MS (0 = unlimited).
CancellationToken MakeCellToken();

}  // namespace semtag

#endif  // SEMTAG_COMMON_CANCELLATION_H_
