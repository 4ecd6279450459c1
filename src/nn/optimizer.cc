#include "nn/optimizer.h"

#include <cmath>

#include "la/kernels.h"

namespace semtag::nn {

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto node = params_[i].node();
    if (!node->grad.SameShape(node->value)) continue;
    la::Matrix& w = node->value;
    la::Matrix& g = node->grad;
    la::Matrix& m = m_[i];
    la::Matrix& v = v_[i];
    if (weight_decay_ > 0.0f) w.Scale(1.0f - lr_ * weight_decay_);
    la::Kernels().adam_update(w.data(), g.data(), m.data(), v.data(),
                              w.size(), lr_, beta1_, beta2_, eps_, bc1, bc2);
    g.Fill(0.0f);
  }
}

}  // namespace semtag::nn
