#ifndef SEMTAG_LA_QUANT_H_
#define SEMTAG_LA_QUANT_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace semtag::la {

/// Int8 inference tier (DESIGN.md "Int8 inference tier").
///
/// Weights are quantized once, when a model freezes, into a
/// QuantizedMatrix: int8 payload plus one float scale per row (symmetric
/// per-row absmax, so a row reconstructs as q[i] * scale). Activations are
/// quantized per row on the fly at each GEMM. The int8 x int8 -> int32
/// accumulation is exact, and the float edges (quantize, dequantize) round
/// identically at every SIMD tier, so quantized results are bit-identical
/// under SEMTAG_SIMD=scalar|avx2 — only SEMTAG_QUANT=0 vs =1 changes
/// numerics.

/// True when SEMTAG_QUANT=1 in the runtime config: frozen models route
/// inference GEMMs through the int8 kernels. Reads the current config
/// snapshot (one atomic load), so a ScopedRuntimeOverride toggles it
/// in-process without retraining.
bool QuantInferenceEnabled();

/// Activation fused into the dequantize pass of a quantized GEMM.
enum class QuantAct {
  kNone = 0,
  kRelu = 1,  ///< fused into dequant_affine_row
  kGelu = 2,  ///< dequant + bias, then one vgelu sweep per output row
};

/// Frozen int8 operand: row-major int8 payload with a per-row dequant
/// scale. Rows are the reduction-side vectors of the GEMM they serve —
/// QuantizeColumns stores the weight's columns as rows so the quantized
/// product walks unit-stride memory, mirroring MatMulTransB.
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;
  QuantizedMatrix(const QuantizedMatrix&) = delete;
  QuantizedMatrix& operator=(const QuantizedMatrix&) = delete;
  QuantizedMatrix(QuantizedMatrix&& other) noexcept;
  QuantizedMatrix& operator=(QuantizedMatrix&& other) noexcept;
  ~QuantizedMatrix();

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  const int8_t* Row(size_t r) const { return data_ + r * cols_; }
  float scale(size_t r) const { return scales_[r]; }
  const float* scales() const { return scales_.data(); }

  /// Quantizes each row of `m` (embedding tables: one scale per vocab row).
  static QuantizedMatrix FromRows(const Matrix& m);
  /// Quantizes each column of `m`, stored transposed (row r of the result
  /// is column r of `m`): the layout for a weight W in out = x * W, with
  /// one scale per output channel.
  static QuantizedMatrix FromColumns(const Matrix& m);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  int8_t* data_ = nullptr;  // pool-backed, rows_*cols_ elements
  std::vector<float> scales_;
};

/// out = act(x * Wq^T + bias), where Wq came from FromColumns(W) (so the
/// logical product is x * W). x's rows are quantized on the fly; bias may
/// be null; out is resized. Equivalent fp32 shape contract as
/// AddRowBroadcast(MatMul(x, W), bias).
void QuantMatMul(const Matrix& x, const QuantizedMatrix& wq,
                 const Matrix* bias, QuantAct act, Matrix* out);

/// QuantMatMul against activations already quantized with
/// QuantizeActivations (QuantMatMul is quantize-then-this).
struct QuantizedActivations {
  size_t rows = 0;
  size_t cols = 0;
  int8_t* data = nullptr;       // pool-backed
  std::vector<float> scales;    // one per row

  QuantizedActivations() = default;
  QuantizedActivations(const QuantizedActivations&) = delete;
  QuantizedActivations& operator=(const QuantizedActivations&) = delete;
  QuantizedActivations(QuantizedActivations&& other) noexcept;
  QuantizedActivations& operator=(QuantizedActivations&& other) noexcept;
  ~QuantizedActivations();
};

QuantizedActivations QuantizeActivations(const Matrix& x);

void QuantMatMulPre(const QuantizedActivations& xq, const QuantizedMatrix& wq,
                    const Matrix* bias, QuantAct act, Matrix* out);

/// Dequantized row gather from a FromRows table: out row i = table row
/// ids[i] reconstructed to float (the quantized EmbeddingLookup).
void DequantGatherRows(const QuantizedMatrix& table, const int32_t* ids,
                       size_t n, Matrix* out);

}  // namespace semtag::la

#endif  // SEMTAG_LA_QUANT_H_
