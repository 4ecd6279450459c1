#ifndef SEMTAG_LA_KERNELS_INTERNAL_H_
#define SEMTAG_LA_KERNELS_INTERNAL_H_

#include <cstddef>

#include "la/kernels.h"

/// Cross-TU declarations for the kernel layer. The scalar kernels are the
/// reference implementations; the AVX2 table reuses them for entries it
/// does not vectorize. Table factories live one per translation unit so
/// each is compiled with exactly its own -m flags.

namespace semtag::la::kernel_detail {

// Scalar reference kernels (kernels_scalar.cc). Loop structure is copied
// verbatim from the seed code paths they replaced — bit-identity with the
// seed is a hard contract, pinned by tests/la/kernels_test.cc.
void ScalarGemmUpdate4(float* out, const float* b0, const float* b1,
                       const float* b2, const float* b3, float a0, float a1,
                       float a2, float a3, size_t n);
void ScalarGemmUpdate4x2(float* out0, float* out1, const float* b0,
                         const float* b1, const float* b2, const float* b3,
                         const float a0[4], const float a1[4], size_t n);
void ScalarAxpy(float* y, const float* x, float a, size_t n);
void ScalarDot4(const float* a, const float* b0, const float* b1,
                const float* b2, const float* b3, size_t n, float out[4]);
float ScalarDot(const float* a, const float* b, size_t n);
void ScalarScale(float* x, float s, size_t n);
void ScalarAdd(float* y, const float* x, size_t n);
void ScalarSub(float* y, const float* x, size_t n);
void ScalarHadamard(float* y, const float* x, size_t n);
void ScalarFill(float* x, float v, size_t n);
double ScalarSum(const float* x, size_t n);
double ScalarSumSq(const float* x, size_t n);
void ScalarSoftmaxRow(float* row, size_t n);
float ScalarLayerNormRow(float* normalized, const float* row, size_t n,
                         float eps);
void ScalarExp(float* x, size_t n);
void ScalarTanh(float* x, size_t n);
void ScalarSigmoid(float* x, size_t n);
void ScalarRelu(float* x, size_t n);
void ScalarGelu(float* x, size_t n);
float ScalarSparseDot(const SparseEntry* e, size_t nnz, const float* dense);
void ScalarSparseAxpy(const SparseEntry* e, size_t nnz, float s,
                      float* dense);
void ScalarAdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                      float lr, float beta1, float beta2, float eps,
                      float bc1, float bc2);
// Fused attention tile. The reference runs the exact operation chain of the
// per-head op graph it replaced: MatMulTransB's dot4/dot split for the
// scores, scale, mask add, softmax_row, and MatMul's 4-wide k-panel updates
// for probs x V (and the matching transposed products in the backward).
void ScalarAttentionForward(const AttentionTile& tile, float* out,
                            size_t ldo);
void ScalarAttentionBackward(const AttentionTile& tile, const float* dout,
                             size_t ldo, float* dq, float* dk, float* dv);

/// Fully-scalar table (kernels_scalar.cc).
const KernelTable& ScalarTable();

#if defined(SEMTAG_LA_HAVE_AVX2)
/// AVX2+FMA table (kernels_avx2.cc): vectorizes everything, including the
/// polynomial exp/tanh approximations.
const KernelTable& Avx2Table();
#endif

}  // namespace semtag::la::kernel_detail

#endif  // SEMTAG_LA_KERNELS_INTERNAL_H_
