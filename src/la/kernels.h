#ifndef SEMTAG_LA_KERNELS_H_
#define SEMTAG_LA_KERNELS_H_

#include <cstddef>

#include "la/sparse.h"

namespace semtag::la {

/// Instruction-set tier of a kernel table. The values are the
/// `la/simd_tier` gauge; 1 is retired (a former SSE2 tier).
enum class SimdLevel {
  kScalar = 0,  ///< portable C++; bit-identical to the pre-kernel seed code
  kAvx2 = 2,    ///< 256-bit vectors + FMA
};

/// "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// One (sequence, head) tile of scaled dot-product attention: the first
/// `rows` of the tile's t query rows attend over its t key rows with head
/// width hd. q/k/v point at the tile's first row inside a fused Q|K|V
/// matrix (row stride ld); the kernels never touch columns outside [0, hd)
/// of each row. A query row's output and probabilities do not depend on
/// `rows`, and a tile with rows == 1 also has the gradients of the full
/// tile whose other output rows get zero gradient, bit for bit at every
/// tier (the backward sums dK and dV over the `rows` query rows).
struct AttentionTile {
  size_t t = 0;
  /// Query rows, 1 <= rows <= t: the kernels abort on any other value, so
  /// a tile left at the default cannot run as an empty no-op.
  size_t rows = 0;
  size_t hd = 0;
  size_t ld = 0;
  float scale = 1.0f;
  const float* q = nullptr;
  const float* k = nullptr;
  const float* v = nullptr;
  /// rows x t additive mask (row stride t): 0 for visible keys, -1e9 for
  /// padded ones. Every row must leave at least one key visible.
  const float* mask = nullptr;
  /// rows x t softmax probabilities (row stride t): written by the forward,
  /// read by the backward.
  float* probs = nullptr;
  /// Scratch of AttentionWorkFloats(t, hd) floats; contents are undefined
  /// on entry and on return.
  float* work = nullptr;
};

/// Scratch size, in floats, that every tier's attention kernels need.
inline size_t AttentionWorkFloats(size_t t, size_t hd) {
  const size_t tp = (t + 7) / 8 * 8;
  return t * tp + 3 * hd * tp + 2 * tp;
}

/// The hot-kernel function-pointer table. One table per SIMD tier; the
/// process selects a single table at first use (see Kernels()).
///
/// Numerical contract:
///  - The scalar table reproduces the seed loops operation-for-operation:
///    results are bit-identical to the pre-kernel-layer code.
///  - SIMD tables may reassociate reductions and use polynomial
///    approximations for exp/tanh (bounded relative error, see
///    DESIGN.md "Kernel layer and dispatch"); elementwise kernels with no
///    reduction (scale/add/sub/hadamard/relu/fill/adam) are elementwise-
///    exact at every tier.
struct KernelTable {
  SimdLevel level;

  // ---- GEMM micro-kernels ------------------------------------------------
  /// out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], j in [0, n).
  /// The 4-row k-panel update at the core of every MatMul variant.
  void (*gemm_update4)(float* out, const float* b0, const float* b1,
                       const float* b2, const float* b3, float a0, float a1,
                       float a2, float a3, size_t n);
  /// Two-output-row variant: outR[j] += sum_r aR[r]*br[j] for R in {0,1}.
  /// Each B row loaded once feeds both output rows, halving the dominant
  /// B-panel memory traffic of the blocked GEMM. Per-element arithmetic is
  /// identical to two gemm_update4 calls (rows are independent).
  void (*gemm_update4x2)(float* out0, float* out1, const float* b0,
                         const float* b1, const float* b2, const float* b3,
                         const float a0[4], const float a1[4], size_t n);
  /// y[i] += a * x[i] (also the GEMM k-remainder update).
  void (*axpy)(float* y, const float* x, float a, size_t n);
  /// Four dot products sharing one left operand (MatMulTransB tile):
  /// out[r] = sum_i a[i] * br[i].
  void (*dot4)(const float* a, const float* b0, const float* b1,
               const float* b2, const float* b3, size_t n, float out[4]);
  float (*dot)(const float* a, const float* b, size_t n);

  // ---- elementwise -------------------------------------------------------
  void (*scale)(float* x, float s, size_t n);
  void (*vadd)(float* y, const float* x, size_t n);   // y += x
  void (*vsub)(float* y, const float* x, size_t n);   // y -= x
  void (*hadamard)(float* y, const float* x, size_t n);  // y *= x
  void (*vfill)(float* x, float v, size_t n);

  // ---- reductions (double accumulation, matching the seed) ---------------
  double (*sum)(const float* x, size_t n);
  double (*sumsq)(const float* x, size_t n);

  // ---- fused row kernels -------------------------------------------------
  /// In-place numerically-stable softmax over one row.
  void (*softmax_row)(float* row, size_t n);
  /// normalized[i] = (row[i] - mean) * inv_std; returns inv_std
  /// (inv_std = 1/sqrt(var + eps), biased variance).
  float (*layernorm_row)(float* normalized, const float* row, size_t n,
                         float eps);

  // ---- vector transcendentals (in-place) ---------------------------------
  void (*vexp)(float* x, size_t n);
  void (*vtanh)(float* x, size_t n);
  void (*vsigmoid)(float* x, size_t n);  // 1 / (1 + exp(-x))
  void (*vrelu)(float* x, size_t n);     // max(x, 0)
  void (*vgelu)(float* x, size_t n);     // tanh-approximation GELU

  // ---- sparse fast paths (BoW features for LR/SVM) -----------------------
  float (*sparse_dot)(const SparseEntry* e, size_t nnz, const float* dense);
  void (*sparse_axpy)(const SparseEntry* e, size_t nnz, float s,
                      float* dense);

  // ---- fused optimizer step ----------------------------------------------
  /// One Adam update over n elements:
  ///   m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2;
  ///   w -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
  void (*adam_update)(float* w, const float* g, float* m, float* v, size_t n,
                      float lr, float beta1, float beta2, float eps,
                      float bc1, float bc2);

  // ---- fused attention (DESIGN.md "Batched execution") -------------------
  /// probs = softmax(q k^T * scale + mask) row-wise, out = probs v, for the
  /// tile's `rows` query rows: out row i (hd floats, row stride ldo) is
  /// written, not accumulated.
  void (*attention_forward)(const AttentionTile& tile, float* out,
                            size_t ldo);
  /// Backward of attention_forward from its output gradient dout (`rows`
  /// rows, row stride ldo) and the stored probs: accumulates (+=) into the
  /// `rows` rows of dq and the t rows of dk and dv, which share the tile's
  /// row stride ld.
  void (*attention_backward)(const AttentionTile& tile, const float* dout,
                             size_t ldo, float* dq, float* dk, float* dv);
};

/// Tanh-approximation GELU backward, composed from table entries:
/// dx[i] += g[i] * gelu'(x[i]). The n inner polynomials are written to
/// `scratch` and go through one kt.vtanh sweep; on the scalar table that is
/// std::tanh per element, bit-identical to a per-element loop.
void GeluBackward(const KernelTable& kt, const float* x, const float* g,
                  size_t n, float* scratch, float* dx);

/// The dispatched table. Selected exactly once, at first call:
/// the highest tier this binary was compiled with AND this CPU supports,
/// overridable with SEMTAG_SIMD=avx2|scalar (an unsupported request logs a
/// warning and falls back to scalar).
const KernelTable& Kernels();

/// Tier of the dispatched table.
SimdLevel ActiveSimdLevel();

/// Highest tier this binary + CPU can run (independent of SEMTAG_SIMD).
SimdLevel BestSupportedSimdLevel();

/// True when `level`'s table is compiled in and runnable on this CPU.
bool SimdLevelAvailable(SimdLevel level);

/// Explicit per-tier table for parity tests and benches. CHECK-fails if
/// !SimdLevelAvailable(level).
const KernelTable& KernelTableFor(SimdLevel level);

}  // namespace semtag::la

#endif  // SEMTAG_LA_KERNELS_H_
