#ifndef SEMTAG_NN_OPTIMIZER_H_
#define SEMTAG_NN_OPTIMIZER_H_

#include <vector>

#include "nn/variable.h"

namespace semtag::nn {

/// Base optimizer over a fixed parameter list. Step() applies the update
/// using each parameter's accumulated .grad, then the caller (or Step
/// itself via zero_grad_after_step) clears gradients.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Variable> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update and zeroes gradients.
  virtual void Step() = 0;

  /// Learning rate, adjustable mid-training (TrainGuard halves it when
  /// recovering from a diverged step).
  virtual float lr() const = 0;
  virtual void set_lr(float lr) = 0;

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  const std::vector<Variable>& params() const { return params_; }

 protected:
  std::vector<Variable> params_;
};

/// Adam (Kingma & Ba) with bias correction and decoupled weight decay
/// (AdamW-style), the optimizer used by the deep models.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  void Step() override;
  void set_lr(float lr) override { lr_ = lr; }
  float lr() const override { return lr_; }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<la::Matrix> m_;
  std::vector<la::Matrix> v_;
};

}  // namespace semtag::nn

#endif  // SEMTAG_NN_OPTIMIZER_H_
