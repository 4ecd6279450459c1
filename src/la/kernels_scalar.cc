// Scalar reference kernels. Every loop here is the seed implementation it
// replaced, moved behind a function pointer — same operations, same order,
// same types, so `SEMTAG_SIMD=scalar` produces bit-identical results to
// the pre-kernel-layer tree. Do not "optimize" these: they are the
// numerical reference the SIMD tiers are tested against.

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "la/kernels_internal.h"

namespace semtag::la::kernel_detail {

void ScalarGemmUpdate4(float* out, const float* b0, const float* b1,
                       const float* b2, const float* b3, float a0, float a1,
                       float a2, float a3, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

void ScalarGemmUpdate4x2(float* out0, float* out1, const float* b0,
                         const float* b1, const float* b2, const float* b3,
                         const float a0[4], const float a1[4], size_t n) {
  for (size_t j = 0; j < n; ++j) {
    out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
  }
  for (size_t j = 0; j < n; ++j) {
    out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
  }
}

void ScalarAxpy(float* y, const float* x, float a, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ScalarDot4(const float* a, const float* b0, const float* b1,
                const float* b2, const float* b3, size_t n, float out[4]) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float av = a[i];
    acc0 += av * b0[i];
    acc1 += av * b1[i];
    acc2 += av * b2[i];
    acc3 += av * b3[i];
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

float ScalarDot(const float* a, const float* b, size_t n) {
  // Four independent accumulators break the loop-carried add dependency
  // (fp add latency would otherwise serialize every iteration).
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void ScalarScale(float* x, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= s;
}

void ScalarAdd(float* y, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void ScalarSub(float* y, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void ScalarHadamard(float* y, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void ScalarFill(float* x, float v, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = v;
}

double ScalarSum(const float* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double ScalarSumSq(const float* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * x[i];
  }
  return acc;
}

void ScalarSoftmaxRow(float* row, size_t n) {
  float mx = row[0];
  for (size_t c = 1; c < n; ++c) mx = std::max(mx, row[c]);
  float sum = 0.0f;
  for (size_t c = 0; c < n; ++c) {
    row[c] = std::exp(row[c] - mx);
    sum += row[c];
  }
  const float inv = 1.0f / sum;
  for (size_t c = 0; c < n; ++c) row[c] *= inv;
}

float ScalarLayerNormRow(float* normalized, const float* row, size_t n,
                         float eps) {
  float mean = 0.0f;
  for (size_t c = 0; c < n; ++c) mean += row[c];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (size_t c = 0; c < n; ++c) {
    const float dxc = row[c] - mean;
    var += dxc * dxc;
  }
  var /= static_cast<float>(n);
  const float istd = 1.0f / std::sqrt(var + eps);
  for (size_t c = 0; c < n; ++c) normalized[c] = (row[c] - mean) * istd;
  return istd;
}

void ScalarExp(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

void ScalarTanh(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void ScalarSigmoid(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void ScalarRelu(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void ScalarGelu(float* x, size_t n) {
  // 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    x[i] = 0.5f * v * (1.0f + std::tanh(kC * (v + kA * v * v * v)));
  }
}

float ScalarSparseDot(const SparseEntry* e, size_t nnz, const float* dense) {
  float acc = 0.0f;
  for (size_t i = 0; i < nnz; ++i) acc += e[i].value * dense[e[i].index];
  return acc;
}

void ScalarSparseAxpy(const SparseEntry* e, size_t nnz, float s,
                      float* dense) {
  for (size_t i = 0; i < nnz; ++i) dense[e[i].index] += s * e[i].value;
}

void ScalarAdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                      float lr, float beta1, float beta2, float eps,
                      float bc1, float bc2) {
  for (size_t j = 0; j < n; ++j) {
    const float gj = g[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
    v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

namespace {

/// out[0, n) += sum_j a[j * a_stride] * rows[j][0, n) over j in [0, m), in
/// MatMul's k-panel order: 4-wide gemm_update4 groups, then axpy for the
/// remainder. `rows` are `m` rows at row stride ld.
void AccumulateRows(float* out, const float* a, size_t a_stride,
                    const float* rows, size_t ld, size_t m, size_t n) {
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    ScalarGemmUpdate4(out, rows + j * ld, rows + (j + 1) * ld,
                      rows + (j + 2) * ld, rows + (j + 3) * ld,
                      a[j * a_stride], a[(j + 1) * a_stride],
                      a[(j + 2) * a_stride], a[(j + 3) * a_stride], n);
  }
  for (; j < m; ++j) ScalarAxpy(out, rows + j * ld, a[j * a_stride], n);
}

/// out[j] = dot(x, rows[j]) for j in [0, m): MatMulTransB's dot4/dot split.
void DotRows(const float* x, const float* rows, size_t ld, size_t m,
             size_t n, float* out) {
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    ScalarDot4(x, rows + j * ld, rows + (j + 1) * ld, rows + (j + 2) * ld,
               rows + (j + 3) * ld, n, out + j);
  }
  for (; j < m; ++j) out[j] = ScalarDot(x, rows + j * ld, n);
}

}  // namespace

void ScalarAttentionForward(const AttentionTile& tile, float* out,
                            size_t ldo) {
  SEMTAG_CHECK(tile.rows >= 1 && tile.rows <= tile.t);
  const size_t t = tile.t, hd = tile.hd, ld = tile.ld;
  for (size_t i = 0; i < tile.rows; ++i) {
    float* p = tile.probs + i * t;
    DotRows(tile.q + i * ld, tile.k, ld, t, hd, p);
    ScalarScale(p, tile.scale, t);
    ScalarAdd(p, tile.mask + i * t, t);
    ScalarSoftmaxRow(p, t);
    float* o = out + i * ldo;
    ScalarFill(o, 0.0f, hd);
    AccumulateRows(o, p, 1, tile.v, ld, t, hd);
  }
}

void ScalarAttentionBackward(const AttentionTile& tile, const float* dout,
                             size_t ldo, float* dq, float* dk, float* dv) {
  SEMTAG_CHECK(tile.rows >= 1 && tile.rows <= tile.t);
  const size_t t = tile.t, rows = tile.rows, hd = tile.hd, ld = tile.ld;
  const float* probs = tile.probs;
  // dV = P^T dout, one key row at a time down column j of P.
  for (size_t j = 0; j < t; ++j) {
    AccumulateRows(dv + j * ld, probs + j, t, dout, ldo, rows, hd);
  }
  // dS = scale * softmax'(dP), dP = dout V^T, kept whole in `work` because
  // dK reads it column-wise.
  float* ds = tile.work;
  for (size_t i = 0; i < rows; ++i) {
    float* g = ds + i * t;
    const float* y = probs + i * t;
    DotRows(dout + i * ldo, tile.v, ld, t, hd, g);
    float dot = 0.0f;
    for (size_t c = 0; c < t; ++c) dot += y[c] * g[c];
    for (size_t c = 0; c < t; ++c) g[c] = y[c] * (g[c] - dot);
    ScalarScale(g, tile.scale, t);
  }
  for (size_t i = 0; i < rows; ++i) {
    AccumulateRows(dq + i * ld, ds + i * t, 1, tile.k, ld, t, hd);
  }
  for (size_t j = 0; j < t; ++j) {
    AccumulateRows(dk + j * ld, ds + j, t, tile.q, ld, rows, hd);
  }
}

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      SimdLevel::kScalar,
      &ScalarGemmUpdate4,
      &ScalarGemmUpdate4x2,
      &ScalarAxpy,
      &ScalarDot4,
      &ScalarDot,
      &ScalarScale,
      &ScalarAdd,
      &ScalarSub,
      &ScalarHadamard,
      &ScalarFill,
      &ScalarSum,
      &ScalarSumSq,
      &ScalarSoftmaxRow,
      &ScalarLayerNormRow,
      &ScalarExp,
      &ScalarTanh,
      &ScalarSigmoid,
      &ScalarRelu,
      &ScalarGelu,
      &ScalarSparseDot,
      &ScalarSparseAxpy,
      &ScalarAdamUpdate,
      &ScalarAttentionForward,
      &ScalarAttentionBackward,
  };
  return table;
}

}  // namespace semtag::la::kernel_detail
