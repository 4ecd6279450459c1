// SSE2 kernel tier: 128-bit vectors, no FMA. Vectorizes the
// bandwidth-bound kernels (GEMM updates, axpy, dot, elementwise, min/max);
// transcendentals, fused rows, reductions-in-double, sparse, and Adam stay
// on the scalar reference — on SSE2-only hardware those are not the
// bottleneck, and reusing the reference keeps this tier's numerics close
// to scalar (reductions reassociate; everything else is exact).
//
// Compiled with -msse2 (a no-op on x86-64, where SSE2 is baseline).

#if defined(SEMTAG_LA_HAVE_SSE2)

#include <emmintrin.h>

#include "la/kernels_internal.h"

namespace semtag::la::kernel_detail {

namespace {

inline float HSum4(__m128 v) {
  __m128 sh = _mm_movehl_ps(v, v);
  v = _mm_add_ps(v, sh);
  sh = _mm_shuffle_ps(v, v, 1);
  v = _mm_add_ss(v, sh);
  return _mm_cvtss_f32(v);
}

inline float HMax4(__m128 v) {
  v = _mm_max_ps(v, _mm_movehl_ps(v, v));
  v = _mm_max_ss(v, _mm_shuffle_ps(v, v, 1));
  return _mm_cvtss_f32(v);
}

inline float HMin4(__m128 v) {
  v = _mm_min_ps(v, _mm_movehl_ps(v, v));
  v = _mm_min_ss(v, _mm_shuffle_ps(v, v, 1));
  return _mm_cvtss_f32(v);
}

void Sse2GemmUpdate4(float* out, const float* b0, const float* b1,
                     const float* b2, const float* b3, float a0, float a1,
                     float a2, float a3, size_t n) {
  const __m128 va0 = _mm_set1_ps(a0);
  const __m128 va1 = _mm_set1_ps(a1);
  const __m128 va2 = _mm_set1_ps(a2);
  const __m128 va3 = _mm_set1_ps(a3);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 t0 = _mm_add_ps(_mm_mul_ps(va0, _mm_loadu_ps(b0 + j)),
                                 _mm_mul_ps(va1, _mm_loadu_ps(b1 + j)));
    const __m128 t1 = _mm_add_ps(_mm_mul_ps(va2, _mm_loadu_ps(b2 + j)),
                                 _mm_mul_ps(va3, _mm_loadu_ps(b3 + j)));
    _mm_storeu_ps(out + j, _mm_add_ps(_mm_loadu_ps(out + j),
                                      _mm_add_ps(t0, t1)));
  }
  for (; j < n; ++j) {
    out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

void Sse2GemmUpdate4x2(float* out0, float* out1, const float* b0,
                       const float* b1, const float* b2, const float* b3,
                       const float a0[4], const float a1[4], size_t n) {
  const __m128 va00 = _mm_set1_ps(a0[0]), va01 = _mm_set1_ps(a0[1]);
  const __m128 va02 = _mm_set1_ps(a0[2]), va03 = _mm_set1_ps(a0[3]);
  const __m128 va10 = _mm_set1_ps(a1[0]), va11 = _mm_set1_ps(a1[1]);
  const __m128 va12 = _mm_set1_ps(a1[2]), va13 = _mm_set1_ps(a1[3]);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 vb0 = _mm_loadu_ps(b0 + j);
    const __m128 vb1 = _mm_loadu_ps(b1 + j);
    const __m128 vb2 = _mm_loadu_ps(b2 + j);
    const __m128 vb3 = _mm_loadu_ps(b3 + j);
    const __m128 t0 = _mm_add_ps(_mm_mul_ps(va00, vb0),
                                 _mm_mul_ps(va01, vb1));
    const __m128 t1 = _mm_add_ps(_mm_mul_ps(va02, vb2),
                                 _mm_mul_ps(va03, vb3));
    _mm_storeu_ps(out0 + j, _mm_add_ps(_mm_loadu_ps(out0 + j),
                                       _mm_add_ps(t0, t1)));
    const __m128 u0 = _mm_add_ps(_mm_mul_ps(va10, vb0),
                                 _mm_mul_ps(va11, vb1));
    const __m128 u1 = _mm_add_ps(_mm_mul_ps(va12, vb2),
                                 _mm_mul_ps(va13, vb3));
    _mm_storeu_ps(out1 + j, _mm_add_ps(_mm_loadu_ps(out1 + j),
                                       _mm_add_ps(u0, u1)));
  }
  for (; j < n; ++j) {
    out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
    out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
  }
}

void Sse2Axpy(float* y, const float* x, float a, size_t n) {
  const __m128 va = _mm_set1_ps(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void Sse2Dot4(const float* a, const float* b0, const float* b1,
              const float* b2, const float* b3, size_t n, float out[4]) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 av = _mm_loadu_ps(a + i);
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(av, _mm_loadu_ps(b0 + i)));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(av, _mm_loadu_ps(b1 + i)));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(av, _mm_loadu_ps(b2 + i)));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(av, _mm_loadu_ps(b3 + i)));
  }
  float t0 = HSum4(acc0), t1 = HSum4(acc1), t2 = HSum4(acc2),
        t3 = HSum4(acc3);
  for (; i < n; ++i) {
    const float av = a[i];
    t0 += av * b0[i];
    t1 += av * b1[i];
    t2 += av * b2[i];
    t3 += av * b3[i];
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

float Sse2Dot(const float* a, const float* b, size_t n) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm_add_ps(acc0,
                      _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    acc1 = _mm_add_ps(
        acc1, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_ps(acc0,
                      _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  float acc = HSum4(_mm_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void Sse2Scale(float* x, float s, size_t n) {
  const __m128 vs = _mm_set1_ps(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void Sse2Add(float* y, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i,
                  _mm_add_ps(_mm_loadu_ps(y + i), _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void Sse2Sub(float* y, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i,
                  _mm_sub_ps(_mm_loadu_ps(y + i), _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void Sse2Hadamard(float* y, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i,
                  _mm_mul_ps(_mm_loadu_ps(y + i), _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void Sse2Fill(float* x, float v, size_t n) {
  const __m128 vv = _mm_set1_ps(v);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm_storeu_ps(x + i, vv);
  for (; i < n; ++i) x[i] = v;
}

float Sse2Max(const float* x, size_t n) {
  size_t i = 0;
  float m = x[0];
  if (n >= 4) {
    __m128 vm = _mm_loadu_ps(x);
    for (i = 4; i + 4 <= n; i += 4) {
      vm = _mm_max_ps(vm, _mm_loadu_ps(x + i));
    }
    m = HMax4(vm);
  }
  for (; i < n; ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

float Sse2Min(const float* x, size_t n) {
  size_t i = 0;
  float m = x[0];
  if (n >= 4) {
    __m128 vm = _mm_loadu_ps(x);
    for (i = 4; i + 4 <= n; i += 4) {
      vm = _mm_min_ps(vm, _mm_loadu_ps(x + i));
    }
    m = HMin4(vm);
  }
  for (; i < n; ++i) {
    if (x[i] < m) m = x[i];
  }
  return m;
}

void Sse2Relu(float* x, size_t n) {
  const __m128 zero = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_max_ps(_mm_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

}  // namespace

const KernelTable& Sse2Table() {
  static const KernelTable table = {
      SimdLevel::kSse2,
      &Sse2GemmUpdate4,
      &Sse2GemmUpdate4x2,
      &Sse2Axpy,
      &Sse2Dot4,
      &Sse2Dot,
      &Sse2Scale,
      &Sse2Add,
      &Sse2Sub,
      &Sse2Hadamard,
      &Sse2Fill,
      &ScalarSum,
      &ScalarSumSq,
      &Sse2Max,
      &Sse2Min,
      &ScalarSoftmaxRow,
      &ScalarLayerNormRow,
      &ScalarExp,
      &ScalarTanh,
      &ScalarSigmoid,
      &Sse2Relu,
      &ScalarGelu,
      &ScalarSparseDot,
      &ScalarSparseAxpy,
      &ScalarAdamUpdate,
      &ScalarAttentionForward,
      &ScalarAttentionBackward,
      // Int8 tier: the scalar entries are already exact (integer
      // accumulation; nearest-even rounding; no FMA), so SSE2 reuses them
      // rather than maintaining a third bit-identical implementation.
      &ScalarQuantizeRowI8,
      &ScalarDotI8,
      &ScalarDot4I8,
      &ScalarDequantAffineRow,
  };
  return table;
}

}  // namespace semtag::la::kernel_detail

#endif  // SEMTAG_LA_HAVE_SSE2
