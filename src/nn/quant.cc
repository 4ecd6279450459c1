#include "nn/quant.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace semtag::nn {

namespace {

/// Wraps a finished matrix as a constant leaf: no parents, no backward.
Variable ConstNode(la::Matrix value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

const la::QuantizedMatrix& View(const Variable& w) {
  SEMTAG_CHECK(w.node()->quant_view != nullptr);
  return *w.node()->quant_view;
}

}  // namespace

bool QuantRoutable(const Variable& w) {
  return la::QuantInferenceEnabled() && w.defined() &&
         w.node()->quant_view != nullptr && !w.node()->quant_view->empty();
}

void PrepareQuantWeight(const Variable& w) {
  w.node()->quant_view = std::make_shared<const la::QuantizedMatrix>(
      la::QuantizedMatrix::FromColumns(w.value()));
}

void PrepareQuantWeightRows(const Variable& w) {
  w.node()->quant_view = std::make_shared<const la::QuantizedMatrix>(
      la::QuantizedMatrix::FromRows(w.value()));
}

void DropQuantWeight(const Variable& w) {
  if (w.defined()) w.node()->quant_view = nullptr;
}

Variable QuantAffine(const Variable& x, const Variable& w,
                     const Variable* bias, la::QuantAct act) {
  la::Matrix out;
  la::QuantMatMul(x.value(), View(w),
                  bias != nullptr ? &bias->value() : nullptr, act, &out);
  return ConstNode(std::move(out));
}

Variable QuantEmbeddingLookup(const Variable& table,
                              const std::vector<int32_t>& ids) {
  la::Matrix out;
  la::DequantGatherRows(View(table), ids.data(), ids.size(), &out);
  return ConstNode(std::move(out));
}

Variable QuantConvRelu(const Variable& x, const Variable& w,
                       const Variable& b, int width, size_t blocks) {
  SEMTAG_CHECK(blocks >= 1 && x.rows() % blocks == 0);
  const size_t L = x.rows() / blocks;
  const size_t d = x.cols();
  SEMTAG_CHECK(width >= 1 && L >= static_cast<size_t>(width));
  SEMTAG_CHECK(w.rows() == static_cast<size_t>(width) * d);
  SEMTAG_CHECK(b.rows() == 1 && b.cols() == w.cols());
  const size_t out_len = L - static_cast<size_t>(width) + 1;
  // Identical im2col to nn::Conv1d; the GEMM it feeds is the only part
  // that changes tier.
  la::Matrix cols = la::Matrix::Uninitialized(
      blocks * out_len, static_cast<size_t>(width) * d);
  for (size_t blk = 0; blk < blocks; ++blk) {
    const size_t x0 = blk * L;
    for (size_t t = 0; t < out_len; ++t) {
      float* dst = cols.Row(blk * out_len + t);
      for (int k = 0; k < width; ++k) {
        std::copy(x.value().Row(x0 + t + static_cast<size_t>(k)),
                  x.value().Row(x0 + t + static_cast<size_t>(k)) + d,
                  dst + static_cast<size_t>(k) * d);
      }
    }
  }
  la::Matrix out;
  la::QuantMatMul(cols, View(w), &b.value(), la::QuantAct::kRelu, &out);
  return ConstNode(std::move(out));
}

}  // namespace semtag::nn
