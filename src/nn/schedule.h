#ifndef SEMTAG_NN_SCHEDULE_H_
#define SEMTAG_NN_SCHEDULE_H_

#include <cstdint>

namespace semtag::nn {

/// Inverse-time learning-rate decay, lr0 / (1 + rate * step) (the classic
/// SGD schedule). Call Next() once per optimizer step and feed the
/// returned rate to the update.
class InverseTimeDecayLr {
 public:
  InverseTimeDecayLr(double lr0, double decay_rate)
      : lr0_(lr0), decay_rate_(decay_rate) {}

  /// The learning rate for the next step (advances internal state).
  double Next() { return At(step_++); }

  /// The learning rate at a given step (pure).
  double At(int64_t step) const {
    return lr0_ / (1.0 + decay_rate_ * static_cast<double>(step));
  }

 private:
  double lr0_;
  double decay_rate_;
  int64_t step_ = 0;
};

}  // namespace semtag::nn

#endif  // SEMTAG_NN_SCHEDULE_H_
