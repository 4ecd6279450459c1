// AVX2+FMA kernel tier. Compiled with -mavx2 -mfma (see la/CMakeLists.txt);
// only ever executed after runtime CPU-feature detection picks this table,
// so building it into a portable binary is safe.
//
// Numerical policy (DESIGN.md "Kernel layer and dispatch"): elementwise
// kernels are exact; reductions reassociate (vector lanes + tail) and are
// tested against the scalar reference within a relative tolerance; exp and
// tanh use Cephes-derived polynomials with ~2-3 ULP error over the clamped
// range, and everything built on them (sigmoid, gelu, softmax) inherits
// that bound.

#if defined(SEMTAG_LA_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "la/kernels_internal.h"

namespace semtag::la::kernel_detail {

namespace {

inline float HSum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 1);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

inline float HMax8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline double HSum4d(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(lo) + _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
}

// Cephes expf, vectorized. Max relative error ~2 ULP on the clamped
// domain [-87.34, 88.38]; inputs above clamp to the upper boundary.
// Inputs below the lower boundary flush to exact 0 like std::exp: the
// clamped value ~1.2e-38 would otherwise leak into attention softmax as
// a denormal probability for every -1e9-masked position, and the
// denormal-operand microcode penalty on the downstream matmuls (forward
// and backward) costs more than the whole rest of the training step.
inline __m256 ExpPs(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647950f);
  const __m256 kLo = _mm256_set1_ps(-87.3365447504019f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kHalf = _mm256_set1_ps(0.5f);
  const __m256 kOne = _mm256_set1_ps(1.0f);

  const __m256 underflow = _mm256_cmp_ps(x, kLo, _CMP_LT_OQ);
  x = _mm256_min_ps(_mm256_max_ps(x, kLo), kHi);
  __m256 z = _mm256_floor_ps(_mm256_fmadd_ps(x, kLog2e, kHalf));
  // x -= z*C1 + z*C2 (extended-precision ln2 split).
  x = _mm256_fnmadd_ps(z, kC1, x);
  x = _mm256_fnmadd_ps(z, kC2, x);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), _mm256_add_ps(x, kOne));

  // * 2^z via exponent-field construction (z in [-126, 127] after clamp).
  // Underflowed lanes are zeroed *before* the scale: at z = -126 the
  // product y * 2^z is denormal, and producing one costs a microcode
  // assist per vector — every masked or padded attention key would pay it.
  // 0 * 2^z is the same +0 the lane would have been masked to.
  const __m256i emm0 =
      _mm256_slli_epi32(_mm256_add_epi32(_mm256_cvttps_epi32(z),
                                         _mm256_set1_epi32(127)),
                        23);
  return _mm256_mul_ps(_mm256_andnot_ps(underflow, y),
                       _mm256_castsi256_ps(emm0));
}

// Cephes tanhf, vectorized: odd polynomial below |x| < 0.625, exp-based
// identity above, sign restored by blending. ~3 ULP.
inline __m256 TanhPs(__m256 x) {
  const __m256 kSignMask = _mm256_set1_ps(-0.0f);
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 kTwo = _mm256_set1_ps(2.0f);
  const __m256 z = _mm256_andnot_ps(kSignMask, x);  // |x|

  // Large branch: sign(x) * (1 - 2/(exp(2|x|) + 1)).
  const __m256 e = ExpPs(_mm256_mul_ps(kTwo, z));
  __m256 large =
      _mm256_sub_ps(kOne, _mm256_div_ps(kTwo, _mm256_add_ps(e, kOne)));
  large = _mm256_or_ps(large, _mm256_and_ps(x, kSignMask));

  // Small branch: x + x * z2 * P(z2).
  const __m256 z2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small =
      _mm256_fmadd_ps(_mm256_mul_ps(p, z2), x, x);

  const __m256 use_small =
      _mm256_cmp_ps(z, _mm256_set1_ps(0.625f), _CMP_LT_OQ);
  return _mm256_blendv_ps(large, small, use_small);
}

inline __m256 SigmoidPs(__m256 x) {
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 e = ExpPs(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(kOne, _mm256_add_ps(kOne, e));
}

inline __m256 GeluPs(__m256 x) {
  const __m256 kC = _mm256_set1_ps(0.7978845608f);  // sqrt(2/pi)
  const __m256 kA = _mm256_set1_ps(0.044715f);
  const __m256 kHalf = _mm256_set1_ps(0.5f);
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
  const __m256 inner = _mm256_mul_ps(kC, _mm256_fmadd_ps(kA, x3, x));
  const __m256 t = TanhPs(inner);
  return _mm256_mul_ps(_mm256_mul_ps(kHalf, x), _mm256_add_ps(kOne, t));
}

/// Applies an 8-lane map to an arbitrary-length array by padding the tail
/// through a stack buffer, so the whole array goes through one code path
/// (no libm-vs-polynomial mismatch inside a single call).
template <typename MapFn>
inline void MapInPlace(float* x, size_t n, float pad, MapFn map) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, map(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    alignas(32) float buf[8];
    for (size_t k = 0; k < 8; ++k) buf[k] = k < n - i ? x[i + k] : pad;
    _mm256_store_ps(buf, map(_mm256_load_ps(buf)));
    for (size_t k = 0; k < n - i; ++k) x[i + k] = buf[k];
  }
}

void Avx2GemmUpdate4(float* out, const float* b0, const float* b1,
                     const float* b2, const float* b3, float a0, float a1,
                     float a2, float a3, size_t n) {
  const __m256 va0 = _mm256_set1_ps(a0);
  const __m256 va1 = _mm256_set1_ps(a1);
  const __m256 va2 = _mm256_set1_ps(a2);
  const __m256 va3 = _mm256_set1_ps(a3);
  size_t j = 0;
  // Pure FMA chains: 4 fp uops per 8-lane group (vs 6 for a mul/add
  // split). Each group's chain is only 4 FMAs deep and groups are
  // independent, so out-of-order execution across iterations keeps both
  // FMA ports fed despite the serial accumulation.
  for (; j + 16 <= n; j += 16) {
    __m256 o0 = _mm256_loadu_ps(out + j);
    __m256 o1 = _mm256_loadu_ps(out + j + 8);
    o0 = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + j), o0);
    o1 = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + j + 8), o1);
    o0 = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + j), o0);
    o1 = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + j + 8), o1);
    o0 = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2 + j), o0);
    o1 = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2 + j + 8), o1);
    o0 = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3 + j), o0);
    o1 = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3 + j + 8), o1);
    _mm256_storeu_ps(out + j, o0);
    _mm256_storeu_ps(out + j + 8, o1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 o = _mm256_loadu_ps(out + j);
    o = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + j), o);
    o = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + j), o);
    o = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2 + j), o);
    o = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3 + j), o);
    _mm256_storeu_ps(out + j, o);
  }
  for (; j < n; ++j) {
    out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

void Avx2GemmUpdate4x2(float* out0, float* out1, const float* b0,
                       const float* b1, const float* b2, const float* b3,
                       const float a0[4], const float a1[4], size_t n) {
  const __m256 va00 = _mm256_set1_ps(a0[0]), va01 = _mm256_set1_ps(a0[1]);
  const __m256 va02 = _mm256_set1_ps(a0[2]), va03 = _mm256_set1_ps(a0[3]);
  const __m256 va10 = _mm256_set1_ps(a1[0]), va11 = _mm256_set1_ps(a1[1]);
  const __m256 va12 = _mm256_set1_ps(a1[2]), va13 = _mm256_set1_ps(a1[3]);
  size_t j = 0;
  // Each loaded B vector feeds both output rows: 8 FMAs per 4 B loads,
  // which halves the L2 B-panel traffic that bounds the one-row kernel.
  for (; j + 8 <= n; j += 8) {
    const __m256 vb0 = _mm256_loadu_ps(b0 + j);
    const __m256 vb1 = _mm256_loadu_ps(b1 + j);
    const __m256 vb2 = _mm256_loadu_ps(b2 + j);
    const __m256 vb3 = _mm256_loadu_ps(b3 + j);
    __m256 o0 = _mm256_loadu_ps(out0 + j);
    __m256 o1 = _mm256_loadu_ps(out1 + j);
    o0 = _mm256_fmadd_ps(va00, vb0, o0);
    o1 = _mm256_fmadd_ps(va10, vb0, o1);
    o0 = _mm256_fmadd_ps(va01, vb1, o0);
    o1 = _mm256_fmadd_ps(va11, vb1, o1);
    o0 = _mm256_fmadd_ps(va02, vb2, o0);
    o1 = _mm256_fmadd_ps(va12, vb2, o1);
    o0 = _mm256_fmadd_ps(va03, vb3, o0);
    o1 = _mm256_fmadd_ps(va13, vb3, o1);
    _mm256_storeu_ps(out0 + j, o0);
    _mm256_storeu_ps(out1 + j, o1);
  }
  for (; j < n; ++j) {
    out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
    out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
  }
}

void Avx2Axpy(float* y, const float* x, float a, size_t n) {
  // mul+add (not FMA): axpy feeds gradient accumulation, which is
  // elementwise — it must round exactly like the scalar reference so the
  // elementwise-exactness contract holds at every tier. Bandwidth-bound,
  // so the extra multiply op is free.
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
    _mm256_storeu_ps(
        y + i + 8,
        _mm256_add_ps(_mm256_loadu_ps(y + i + 8),
                      _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 8))));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void Avx2Dot4(const float* a, const float* b0, const float* b1,
              const float* b2, const float* b3, size_t n, float out[4]) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + i), acc0);
    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + i), acc1);
    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + i), acc2);
    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + i), acc3);
  }
  float t0 = HSum8(acc0), t1 = HSum8(acc1), t2 = HSum8(acc2),
        t3 = HSum8(acc3);
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

float Avx2Dot(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float acc = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void Avx2Scale(float* x, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void Avx2Add(float* y, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void Avx2Sub(float* y, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void Avx2Hadamard(float* y, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void Avx2Fill(float* x, float v, size_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(x + i, vv);
  for (; i < n; ++i) x[i] = v;
}

double Avx2Sum(const float* x, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double acc = HSum4d(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i];
  return acc;
}

double Avx2SumSq(const float* x, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double acc = HSum4d(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
  return acc;
}

float Avx2Max(const float* x, size_t n) {
  size_t i = 0;
  float m = x[0];
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
    }
    m = HMax8(vm);
  }
  for (; i < n; ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

void Avx2SoftmaxRow(float* row, size_t n) {
  const float mx = Avx2Max(row, n);
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = ExpPs(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx));
    _mm256_storeu_ps(row + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = HSum8(vsum);
  if (i < n) {
    // Tail goes through the same ExpPs path (pad with the clamp floor so
    // pad lanes contribute ~1e-38, far below float resolution of sum>=1).
    alignas(32) float buf[8];
    for (size_t k = 0; k < 8; ++k) {
      buf[k] = k < n - i ? row[i + k] - mx : -87.0f;
    }
    _mm256_store_ps(buf, ExpPs(_mm256_load_ps(buf)));
    for (size_t k = 0; k < n - i; ++k) {
      row[i + k] = buf[k];
      sum += buf[k];
    }
  }
  Avx2Scale(row, 1.0f / sum, n);
}

float Avx2LayerNormRow(float* normalized, const float* row, size_t n,
                       float eps) {
  __m256 vsum = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(row + i));
  }
  float mean = HSum8(vsum);
  for (; i < n; ++i) mean += row[i];
  mean /= static_cast<float>(n);

  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vvar = _mm256_setzero_ps();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(row + i), vmean);
    vvar = _mm256_fmadd_ps(d, d, vvar);
  }
  float var = HSum8(vvar);
  for (; i < n; ++i) {
    const float d = row[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);

  const float istd = 1.0f / std::sqrt(var + eps);
  const __m256 vistd = _mm256_set1_ps(istd);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        normalized + i,
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmean),
                      vistd));
  }
  for (; i < n; ++i) normalized[i] = (row[i] - mean) * istd;
  return istd;
}

void Avx2Exp(float* x, size_t n) {
  MapInPlace(x, n, 0.0f, [](__m256 v) { return ExpPs(v); });
}

void Avx2Tanh(float* x, size_t n) {
  MapInPlace(x, n, 0.0f, [](__m256 v) { return TanhPs(v); });
}

void Avx2Sigmoid(float* x, size_t n) {
  MapInPlace(x, n, 0.0f, [](__m256 v) { return SigmoidPs(v); });
}

void Avx2Relu(float* x, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void Avx2Gelu(float* x, size_t n) {
  MapInPlace(x, n, 0.0f, [](__m256 v) { return GeluPs(v); });
}

float Avx2SparseDot(const SparseEntry* e, size_t nnz, const float* dense) {
  // Entries are {uint32 index, float value} AoS; two 256-bit loads cover
  // eight entries, shuffle-deinterleaved into an index vector and a value
  // vector (lane order permuted consistently in both), then one gather
  // pulls the dense side.
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= nnz; i += 8) {
    const float* base = reinterpret_cast<const float*>(e + i);
    const __m256 lo = _mm256_loadu_ps(base);      // i0 v0 i1 v1 | i2 v2 i3 v3
    const __m256 hi = _mm256_loadu_ps(base + 8);  // i4 v4 i5 v5 | i6 v6 i7 v7
    const __m256 idx = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 val = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 gathered =
        _mm256_i32gather_ps(dense, _mm256_castps_si256(idx), 4);
    acc = _mm256_fmadd_ps(val, gathered, acc);
  }
  float total = HSum8(acc);
  for (; i < nnz; ++i) total += e[i].value * dense[e[i].index];
  return total;
}

void Avx2AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                    float lr, float beta1, float beta2, float eps, float bc1,
                    float bc2) {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vomb1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vomb2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 vbc1 = _mm256_set1_ps(bc1);
  const __m256 vbc2 = _mm256_set1_ps(bc2);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vlr = _mm256_set1_ps(lr);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    __m256 mv = _mm256_loadu_ps(m + j);
    __m256 vv = _mm256_loadu_ps(v + j);
    // mul+add (not FMA) so every lane rounds exactly like the scalar
    // reference: optimizer state stays bit-identical across SIMD tiers.
    mv = _mm256_add_ps(_mm256_mul_ps(vb1, mv), _mm256_mul_ps(vomb1, gv));
    // ((1-beta2)*g)*g, not (1-beta2)*(g*g): match the scalar reference's
    // left-to-right association so v rounds identically lane by lane.
    vv = _mm256_add_ps(_mm256_mul_ps(vb2, vv),
                       _mm256_mul_ps(_mm256_mul_ps(vomb2, gv), gv));
    const __m256 mhat = _mm256_div_ps(mv, vbc1);
    const __m256 vhat = _mm256_div_ps(vv, vbc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
    _mm256_storeu_ps(w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), step));
    _mm256_storeu_ps(m + j, mv);
    _mm256_storeu_ps(v + j, vv);
  }
  for (; j < n; ++j) {
    const float gj = g[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
    v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

inline size_t RoundUp8(size_t n) { return (n + 7) / 8 * 8; }

/// dst[c * tp + j] = rows[j * ld + c] for c < hd, j < t; lanes j in
/// [t, tp) are zeroed so padded columns contribute nothing downstream.
void TransposePadded(const float* rows, size_t ld, size_t t, size_t hd,
                     size_t tp, float* dst) {
  for (size_t c = 0; c < hd; ++c) {
    float* d = dst + c * tp;
    for (size_t j = 0; j < t; ++j) d[j] = rows[j * ld + c];
    for (size_t j = t; j < tp; ++j) d[j] = 0.0f;
  }
}

/// out[j] = sum_c x[c] * xt[c * tp + j] for j in [0, tp): t dot products
/// against a transposed operand, vectorized over j.
void DotTransposed(const float* x, const float* xt, size_t hd, size_t tp,
                   float* out) {
  for (size_t jb = 0; jb < tp; jb += 8) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    size_t c = 0;
    for (; c + 2 <= hd; c += 2) {
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(x[c]),
                             _mm256_loadu_ps(xt + c * tp + jb), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(x[c + 1]),
                             _mm256_loadu_ps(xt + (c + 1) * tp + jb), acc1);
    }
    if (c < hd) {
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(x[c]),
                             _mm256_loadu_ps(xt + c * tp + jb), acc0);
    }
    _mm256_storeu_ps(out + jb, _mm256_add_ps(acc0, acc1));
  }
}

/// acc[c * tp + j] += x[c] * y[j] for c < hd, j < tp (transposed rank-1).
void RankOneTransposed(float* acc, const float* x, const float* y,
                       size_t hd, size_t tp) {
  for (size_t c = 0; c < hd; ++c) {
    const __m256 vx = _mm256_set1_ps(x[c]);
    float* row = acc + c * tp;
    for (size_t jb = 0; jb < tp; jb += 8) {
      _mm256_storeu_ps(row + jb,
                       _mm256_fmadd_ps(vx, _mm256_loadu_ps(y + jb),
                                       _mm256_loadu_ps(row + jb)));
    }
  }
}

/// out[0, n) += sum_j a[j] * rows[j * ld + (0, n)] over j in [0, m).
/// Four accumulators rotate over j so the FMA chain is not latency-bound
/// at n = 8, where the whole row is one vector.
void AccumulateRows(float* out, const float* a, const float* rows, size_t ld,
                    size_t m, size_t n) {
  size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    __m256 acc0 = _mm256_loadu_ps(out + c);
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    const float* r = rows + c;
    size_t j = 0;
    for (; j + 4 <= m; j += 4, r += 4 * ld) {
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a[j]), _mm256_loadu_ps(r), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a[j + 1]),
                             _mm256_loadu_ps(r + ld), acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a[j + 2]),
                             _mm256_loadu_ps(r + 2 * ld), acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a[j + 3]),
                             _mm256_loadu_ps(r + 3 * ld), acc3);
    }
    for (; j < m; ++j, r += ld) {
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a[j]), _mm256_loadu_ps(r), acc0);
    }
    _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                            _mm256_add_ps(acc2, acc3)));
  }
  for (; c < n; ++c) {
    float acc = out[c];
    for (size_t j = 0; j < m; ++j) acc += a[j] * rows[j * ld + c];
    out[c] = acc;
  }
}

/// Score of a padded key lane: far below ExpPs's clamp floor, so it
/// softmaxes to exact 0 without the inf - inf hazard of -infinity.
constexpr float kPadScore = -1e30f;

void Avx2AttentionForward(const AttentionTile& tile, float* out,
                          size_t ldo) {
  SEMTAG_CHECK(tile.rows >= 1 && tile.rows <= tile.t);
  const size_t t = tile.t, hd = tile.hd, ld = tile.ld, tp = RoundUp8(t);
  float* kt = tile.work;      // [hd x tp] K^T
  float* s = kt + hd * tp;    // [tp] one score row
  TransposePadded(tile.k, ld, t, hd, tp, kt);
  const __m256 vscale = _mm256_set1_ps(tile.scale);
  for (size_t i = 0; i < tile.rows; ++i) {
    DotTransposed(tile.q + i * ld, kt, hd, tp, s);
    const float* mask = tile.mask + i * t;
    size_t j = 0;
    for (; j + 8 <= t; j += 8) {
      _mm256_storeu_ps(s + j,
                       _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(s + j),
                                                   vscale),
                                     _mm256_loadu_ps(mask + j)));
    }
    for (; j < t; ++j) s[j] = s[j] * tile.scale + mask[j];
    for (; j < tp; ++j) s[j] = kPadScore;
    __m256 vmax = _mm256_loadu_ps(s);
    for (size_t jb = 8; jb < tp; jb += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(s + jb));
    }
    const __m256 vmx = _mm256_set1_ps(HMax8(vmax));
    __m256 vsum = _mm256_setzero_ps();
    for (size_t jb = 0; jb < tp; jb += 8) {
      const __m256 e = ExpPs(_mm256_sub_ps(_mm256_loadu_ps(s + jb), vmx));
      _mm256_storeu_ps(s + jb, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    const __m256 vinv = _mm256_set1_ps(1.0f / HSum8(vsum));
    for (size_t jb = 0; jb < tp; jb += 8) {
      _mm256_storeu_ps(s + jb, _mm256_mul_ps(_mm256_loadu_ps(s + jb), vinv));
    }
    std::memcpy(tile.probs + i * t, s, t * sizeof(float));
    float* o = out + i * ldo;
    for (size_t c = 0; c < hd; ++c) o[c] = 0.0f;
    AccumulateRows(o, s, tile.v, ld, t, hd);
  }
}

void Avx2AttentionBackward(const AttentionTile& tile, const float* dout,
                           size_t ldo, float* dq, float* dk, float* dv) {
  SEMTAG_CHECK(tile.rows >= 1 && tile.rows <= tile.t);
  const size_t t = tile.t, hd = tile.hd, ld = tile.ld, tp = RoundUp8(t);
  // dK and dV accumulate transposed ([hd x tp]) so each query row's
  // contribution is one vectorized rank-1 update; they are scattered back
  // into the strided rows once at the end.
  float* vt = tile.work;
  float* dkt = vt + hd * tp;
  float* dvt = dkt + hd * tp;
  float* p = dvt + hd * tp;  // [tp] zero-padded probs row
  float* g = p + tp;         // [tp] dP, then dS
  TransposePadded(tile.v, ld, t, hd, tp, vt);
  std::memset(dkt, 0, 2 * hd * tp * sizeof(float));
  const __m256 vscale = _mm256_set1_ps(tile.scale);
  for (size_t i = 0; i < tile.rows; ++i) {
    std::memcpy(p, tile.probs + i * t, t * sizeof(float));
    for (size_t j = t; j < tp; ++j) p[j] = 0.0f;
    const float* go = dout + i * ldo;
    DotTransposed(go, vt, hd, tp, g);
    RankOneTransposed(dvt, go, p, hd, tp);
    __m256 vdot = _mm256_setzero_ps();
    for (size_t jb = 0; jb < tp; jb += 8) {
      vdot = _mm256_fmadd_ps(_mm256_loadu_ps(p + jb),
                             _mm256_loadu_ps(g + jb), vdot);
    }
    const __m256 vd = _mm256_set1_ps(HSum8(vdot));
    for (size_t jb = 0; jb < tp; jb += 8) {
      const __m256 ds = _mm256_mul_ps(
          _mm256_loadu_ps(p + jb),
          _mm256_sub_ps(_mm256_loadu_ps(g + jb), vd));
      _mm256_storeu_ps(g + jb, _mm256_mul_ps(ds, vscale));
    }
    AccumulateRows(dq + i * ld, g, tile.k, ld, t, hd);
    RankOneTransposed(dkt, tile.q + i * ld, g, hd, tp);
  }
  for (size_t j = 0; j < t; ++j) {
    for (size_t c = 0; c < hd; ++c) {
      dk[j * ld + c] += dkt[c * tp + j];
      dv[j * ld + c] += dvt[c * tp + j];
    }
  }
}

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      SimdLevel::kAvx2,
      &Avx2GemmUpdate4,
      &Avx2GemmUpdate4x2,
      &Avx2Axpy,
      &Avx2Dot4,
      &Avx2Dot,
      &Avx2Scale,
      &Avx2Add,
      &Avx2Sub,
      &Avx2Hadamard,
      &Avx2Fill,
      &Avx2Sum,
      &Avx2SumSq,
      &Avx2SoftmaxRow,
      &Avx2LayerNormRow,
      &Avx2Exp,
      &Avx2Tanh,
      &Avx2Sigmoid,
      &Avx2Relu,
      &Avx2Gelu,
      &Avx2SparseDot,
      &ScalarSparseAxpy,  // no scatter in AVX2; scalar loop stays
      &Avx2AdamUpdate,
      &Avx2AttentionForward,
      &Avx2AttentionBackward,
  };
  return table;
}

}  // namespace semtag::la::kernel_detail

#endif  // SEMTAG_LA_HAVE_AVX2
