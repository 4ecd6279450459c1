#include "la/sparse.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"

namespace semtag::la {

void SparseVector::SortAndMerge() {
  std::sort(entries_.begin(), entries_.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.index < b.index;
            });
  size_t out = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].index == entries_[i].index) {
      entries_[out - 1].value += entries_[i].value;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);
}

float SparseVector::Norm() const {
  double acc = 0.0;
  for (const auto& e : entries_) acc += static_cast<double>(e.value) * e.value;
  return static_cast<float>(std::sqrt(acc));
}

void SparseVector::Scale(float s) {
  for (auto& e : entries_) e.value *= s;
}

void SparseVector::L2Normalize() {
  const float norm = Norm();
  if (norm > 0.0f) Scale(1.0f / norm);
}

float SparseVector::Dot(const float* dense) const {
  return Kernels().sparse_dot(entries_.data(), entries_.size(), dense);
}

void SparseVector::AxpyInto(float s, float* dense) const {
  Kernels().sparse_axpy(entries_.data(), entries_.size(), s, dense);
}

}  // namespace semtag::la
