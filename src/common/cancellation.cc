#include "common/cancellation.h"

#include "config/runtime_config.h"

namespace semtag {

CancellationToken CancellationToken::Manual() {
  return CancellationToken(std::make_shared<State>());
}

CancellationToken CancellationToken::WithDeadline(int64_t deadline_ms) {
  if (deadline_ms <= 0) return CancellationToken();
  auto state = std::make_shared<State>();
  state->has_deadline = true;
  state->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline_ms);
  return CancellationToken(std::move(state));
}

void CancellationToken::Cancel() {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_release);
  }
}

bool CancellationToken::cancelled() const {
  if (state_ == nullptr) return false;
  if (state_->cancelled.load(std::memory_order_acquire)) return true;
  if (state_->has_deadline &&
      std::chrono::steady_clock::now() >= state_->deadline) {
    return true;
  }
  return false;
}

Status CancellationToken::status() const {
  if (state_ == nullptr) return Status::OK();
  if (state_->has_deadline &&
      std::chrono::steady_clock::now() >= state_->deadline) {
    return Status::DeadlineExceeded("cell wall-clock budget exhausted");
  }
  if (state_->cancelled.load(std::memory_order_acquire)) {
    return Status::Cancelled("cancelled by watchdog");
  }
  return Status::OK();
}

CancellationToken MakeCellToken() {
  return CancellationToken::WithDeadline(GetRuntimeConfig().cell_deadline_ms);
}

}  // namespace semtag
