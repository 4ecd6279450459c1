#include "la/quant.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "config/runtime_config.h"
#include "la/buffer_pool.h"
#include "la/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::la {

namespace {

/// Same threshold as the fp32 GEMMs (matrix.cc): below m*n*k multiply-adds
/// of this, pool dispatch costs more than it saves.
constexpr size_t kParallelMinWork = size_t{64} * 64 * 64;

/// Int8 GEMM accounting: the "calls_int8" twin of matrix.cc's per-SIMD-tier
/// NoteGemm, sharing la/gemm/flops so the total FLOP estimate spans tiers.
void NoteQuantGemm(size_t m, size_t n, size_t k) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& calls = obs::GetCounter("la/gemm/calls_int8");
  static obs::Counter& flops = obs::GetCounter("la/gemm/flops");
  calls.Add(1);
  flops.Add(static_cast<uint64_t>(2) * m * n * k);
}

/// One-time announcement that the int8 tier actually executed: trace
/// metadata (chrome-trace "otherData") plus a debug log, mirroring the
/// SIMD dispatch announcement in kernels.cc.
void NoteQuantTierActive() {
  static const bool announced = [] {
    obs::SetTraceMetadata("la/quant_tier", "int8");
    SEMTAG_LOG(kDebug, "quant inference tier: int8 (SEMTAG_QUANT=1)");
    return true;
  }();
  (void)announced;
}

/// Activation rows reusing one resident quad of weight rows before moving
/// on. Without this blocking the whole weight matrix streams through
/// cache once per activation row (2.25 MB per row for a BERT-base ffn1),
/// which memory-bounds the int8 GEMM well below its compute rate; with
/// it, each weight quad is loaded once per kQuantBlockM rows. 32 balances
/// weight traffic (/32) against the int32 accumulator tile footprint
/// (kQuantBlockM x n: 384 KB at n=3072) and dTLB reach across the tile's
/// row strides.
constexpr size_t kQuantBlockM = 32;

/// Rows [lo, hi) of the quantized product: for each block of activation
/// rows, dot4_i8 tiles over groups of four weight rows into an int32
/// scratch tile, then one fused dequant+bias(+relu) pass per row, then an
/// optional GELU sweep. wq stores reduction-side vectors as rows
/// (mirroring MatMulTransBRows), so every access is unit stride. Results
/// are identical to the unblocked order — int32 accumulation is exact, so
/// loop order cannot change a single bit.
void QuantRows(const int8_t* xq, const float* x_scales, size_t k,
               const QuantizedMatrix& wq, const float* bias, QuantAct act,
               Matrix* out, size_t lo, size_t hi) {
  const size_t n = wq.rows();
  const KernelTable& kt = Kernels();
  int32_t* acc = BufferPool::AcquireI32(kQuantBlockM * n);
  for (size_t i0 = lo; i0 < hi; i0 += kQuantBlockM) {
    const size_t block = std::min(kQuantBlockM, hi - i0);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const int8_t* w0 = wq.Row(j);
      const int8_t* w1 = wq.Row(j + 1);
      const int8_t* w2 = wq.Row(j + 2);
      const int8_t* w3 = wq.Row(j + 3);
      for (size_t t = 0; t < block; ++t) {
        kt.dot4_i8(xq + (i0 + t) * k, w0, w1, w2, w3, k, acc + t * n + j);
      }
    }
    for (; j < n; ++j) {
      const int8_t* wrow = wq.Row(j);
      for (size_t t = 0; t < block; ++t) {
        acc[t * n + j] = kt.dot_i8(xq + (i0 + t) * k, wrow, k);
      }
    }
    for (size_t t = 0; t < block; ++t) {
      kt.dequant_affine_row(out->Row(i0 + t), acc + t * n, x_scales[i0 + t],
                            wq.scales(), bias, n, act == QuantAct::kRelu);
    }
  }
  if (act == QuantAct::kGelu && hi > lo) {
    kt.vgelu(out->Row(lo), (hi - lo) * n);
  }
  BufferPool::ReleaseI32(acc, kQuantBlockM * n);
}

}  // namespace

bool QuantInferenceEnabled() { return GetRuntimeConfig().quant; }

QuantizedMatrix::QuantizedMatrix(QuantizedMatrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_),
      scales_(std::move(other.scales_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
  other.scales_.clear();
}

QuantizedMatrix& QuantizedMatrix::operator=(
    QuantizedMatrix&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) BufferPool::ReleaseI8(data_, rows_ * cols_);
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    scales_ = std::move(other.scales_);
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_ = nullptr;
    other.scales_.clear();
  }
  return *this;
}

QuantizedMatrix::~QuantizedMatrix() {
  if (data_ != nullptr) BufferPool::ReleaseI8(data_, rows_ * cols_);
}

QuantizedMatrix QuantizedMatrix::FromRows(const Matrix& m) {
  QuantizedMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.data_ = BufferPool::AcquireI8(q.rows_ * q.cols_);
  q.scales_.resize(q.rows_);
  const KernelTable& kt = Kernels();
  for (size_t r = 0; r < q.rows_; ++r) {
    q.scales_[r] = kt.quantize_row_i8(m.Row(r), q.cols_,
                                      q.data_ + r * q.cols_);
  }
  return q;
}

QuantizedMatrix QuantizedMatrix::FromColumns(const Matrix& m) {
  return FromRows(m.Transposed());
}

QuantizedActivations::QuantizedActivations(
    QuantizedActivations&& other) noexcept
    : rows(other.rows), cols(other.cols), data(other.data),
      scales(std::move(other.scales)) {
  other.rows = 0;
  other.cols = 0;
  other.data = nullptr;
  other.scales.clear();
}

QuantizedActivations& QuantizedActivations::operator=(
    QuantizedActivations&& other) noexcept {
  if (this != &other) {
    if (data != nullptr) BufferPool::ReleaseI8(data, rows * cols);
    rows = other.rows;
    cols = other.cols;
    data = other.data;
    scales = std::move(other.scales);
    other.rows = 0;
    other.cols = 0;
    other.data = nullptr;
    other.scales.clear();
  }
  return *this;
}

QuantizedActivations::~QuantizedActivations() {
  if (data != nullptr) BufferPool::ReleaseI8(data, rows * cols);
}

QuantizedActivations QuantizeActivations(const Matrix& x) {
  QuantizedActivations q;
  q.rows = x.rows();
  q.cols = x.cols();
  q.data = BufferPool::AcquireI8(q.rows * q.cols);
  q.scales.resize(q.rows);
  const KernelTable& kt = Kernels();
  for (size_t r = 0; r < q.rows; ++r) {
    q.scales[r] = kt.quantize_row_i8(x.Row(r), q.cols, q.data + r * q.cols);
  }
  return q;
}

void QuantMatMulPre(const QuantizedActivations& xq, const QuantizedMatrix& wq,
                    const Matrix* bias, QuantAct act, Matrix* out) {
  SEMTAG_CHECK(xq.cols == wq.cols());
  const size_t m = xq.rows, k = xq.cols, n = wq.rows();
  SEMTAG_CHECK(bias == nullptr ||
               (bias->rows() == 1 && bias->cols() == n));
  NoteQuantGemm(m, n, k);
  NoteQuantTierActive();
  // Every element is written by the dequant pass; skip the zero fill.
  *out = Matrix::Uninitialized(m, n);
  const float* brow = bias != nullptr ? bias->Row(0) : nullptr;
  if (m * n * k >= kParallelMinWork) {
    ParallelFor(0, m, PerThreadGrain(m, 1), [&](size_t lo, size_t hi) {
      QuantRows(xq.data, xq.scales.data(), k, wq, brow, act, out, lo, hi);
    });
  } else {
    QuantRows(xq.data, xq.scales.data(), k, wq, brow, act, out, 0, m);
  }
}

void QuantMatMul(const Matrix& x, const QuantizedMatrix& wq,
                 const Matrix* bias, QuantAct act, Matrix* out) {
  SEMTAG_CHECK(x.cols() == wq.cols());
  const QuantizedActivations xq = QuantizeActivations(x);
  QuantMatMulPre(xq, wq, bias, act, out);
}

void DequantGatherRows(const QuantizedMatrix& table, const int32_t* ids,
                       size_t n, Matrix* out) {
  const size_t d = table.cols();
  *out = Matrix::Uninitialized(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = static_cast<size_t>(ids[i]);
    SEMTAG_CHECK(ids[i] >= 0 && r < table.rows());
    const int8_t* src = table.Row(r);
    const float scale = table.scale(r);
    float* dst = out->Row(i);
    for (size_t c = 0; c < d; ++c) {
      dst[c] = static_cast<float>(src[c]) * scale;
    }
  }
}

}  // namespace semtag::la
