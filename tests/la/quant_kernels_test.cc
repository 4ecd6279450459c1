// Int8 inference tier tests, in three groups:
//
//  1. Quantize/dequantize properties: per-row absmax scheme invariants
//     (scale = absmax/127, |q| <= 127, -128 never produced, nearest-even
//     rounding, reconstruction error <= scale/2 per element).
//  2. Int8 GEMM vs the fp32 reference within an analytic error bound
//     computed from the actual operands.
//  3. Cross-tier bit-equality: every compiled-in SIMD tier must agree with
//     the scalar quant kernels bit for bit — int8 codes, float scales,
//     int32 accumulators, and dequantized floats (the dequant pass uses no
//     FMA contraction on any tier, so the float edges round identically).

#include "la/quant.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "config/runtime_config.h"
#include "gtest/gtest.h"
#include "la/buffer_pool.h"
#include "la/kernels.h"
#include "la/matrix.h"

namespace semtag::la {
namespace {

std::vector<float> RandomVec(Rng* rng, size_t n, double lo = -2.0,
                             double hi = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->UniformDouble(lo, hi));
  return v;
}

Matrix RandomMatrix(Rng* rng, size_t r, size_t c, double lo = -1.5,
                    double hi = 1.5) {
  Matrix m(r, c);
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) {
      m(i, j) = static_cast<float>(rng->UniformDouble(lo, hi));
    }
  }
  return m;
}

const size_t kSizes[] = {1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 63, 64, 100,
                         255, 256, 1000};

std::vector<SimdLevel> AvailableSimdTiers() {
  std::vector<SimdLevel> tiers;
  if (SimdLevelAvailable(SimdLevel::kAvx2)) tiers.push_back(SimdLevel::kAvx2);
  return tiers;
}

// ---------------------------------------------------------------------------
// 1. Quantize/dequantize properties.
// ---------------------------------------------------------------------------

TEST(QuantizeRowI8, ScaleAndReconstruction) {
  Rng rng(101);
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  for (size_t n : kSizes) {
    const std::vector<float> x = RandomVec(&rng, n, -3.0, 3.0);
    std::vector<int8_t> q(n);
    const float scale = kt.quantize_row_i8(x.data(), n, q.data());
    float absmax = 0.0f;
    for (float v : x) absmax = std::max(absmax, std::fabs(v));
    EXPECT_FLOAT_EQ(scale, absmax / 127.0f);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(q[i], -127) << "codes must avoid -128 (maddubs sign trick)";
      EXPECT_LE(q[i], 127);
      // Nearest rounding: reconstruction error is at most half a step
      // (plus float slack for the inverse-scale multiply).
      EXPECT_NEAR(static_cast<float>(q[i]) * scale, x[i],
                  scale * 0.5f + 1e-6f);
    }
  }
}

TEST(QuantizeRowI8, ZeroRowHasZeroScale) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  std::vector<float> x(37, 0.0f);
  std::vector<int8_t> q(37, 55);
  EXPECT_EQ(kt.quantize_row_i8(x.data(), x.size(), q.data()), 0.0f);
  for (int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(QuantizeRowI8, NearestEvenRounding) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  // absmax = 127 => scale 1, inv = 1: codes are lrintf of the values.
  const std::vector<float> x = {127.0f, 2.5f, 3.5f, -2.5f, 0.49f, -127.0f};
  std::vector<int8_t> q(x.size());
  kt.quantize_row_i8(x.data(), x.size(), q.data());
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], 2);   // ties to even
  EXPECT_EQ(q[2], 4);   // ties to even
  EXPECT_EQ(q[3], -2);  // ties to even
  EXPECT_EQ(q[4], 0);
  EXPECT_EQ(q[5], -127);
}

TEST(QuantizedMatrixTest, FromRowsAndFromColumns) {
  Rng rng(77);
  const Matrix m = RandomMatrix(&rng, 9, 13);
  const QuantizedMatrix by_rows = QuantizedMatrix::FromRows(m);
  EXPECT_EQ(by_rows.rows(), 9u);
  EXPECT_EQ(by_rows.cols(), 13u);
  const QuantizedMatrix by_cols = QuantizedMatrix::FromColumns(m);
  EXPECT_EQ(by_cols.rows(), 13u);  // row r of the view is column r of m
  EXPECT_EQ(by_cols.cols(), 9u);
  for (size_t c = 0; c < m.cols(); ++c) {
    float absmax = 0.0f;
    for (size_t r = 0; r < m.rows(); ++r) {
      absmax = std::max(absmax, std::fabs(m(r, c)));
    }
    EXPECT_FLOAT_EQ(by_cols.scale(c), absmax / 127.0f);
  }
}

TEST(QuantizedMatrixTest, DequantGatherRowsReconstructs) {
  Rng rng(78);
  const Matrix table = RandomMatrix(&rng, 20, 16, -0.5, 0.5);
  const QuantizedMatrix q = QuantizedMatrix::FromRows(table);
  const std::vector<int32_t> ids = {3, 0, 19, 3, 7};
  Matrix out;
  DequantGatherRows(q, ids.data(), ids.size(), &out);
  ASSERT_EQ(out.rows(), ids.size());
  ASSERT_EQ(out.cols(), table.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t r = static_cast<size_t>(ids[i]);
    for (size_t c = 0; c < table.cols(); ++c) {
      EXPECT_NEAR(out(i, c), table(r, c), q.scale(r) * 0.5f + 1e-6f);
    }
  }
}


// QuantInferenceEnabled reads the current config on every call, so an
// override toggles the tier without retraining.
TEST(QuantEnvTest, QuantInferenceEnabledReReadsEnv) {
  {
    const ScopedRuntimeOverride unset({{"SEMTAG_QUANT", ""}});
    EXPECT_FALSE(QuantInferenceEnabled());
  }
  {
    const ScopedRuntimeOverride on({{"SEMTAG_QUANT", "1"}});
    EXPECT_TRUE(QuantInferenceEnabled());
    const ScopedRuntimeOverride off({{"SEMTAG_QUANT", "0"}});
    EXPECT_FALSE(QuantInferenceEnabled());
  }
  const ScopedRuntimeOverride yes({{"SEMTAG_QUANT", "yes"}});
  EXPECT_FALSE(QuantInferenceEnabled());  // exact "1" only
}

// ---------------------------------------------------------------------------
// 2. Int8 GEMM vs fp32 reference, analytic error bound.
// ---------------------------------------------------------------------------

TEST(QuantMatMulTest, MatchesFp32WithinQuantizationBound) {
  Rng rng(202);
  const struct {
    size_t m, k, n;
  } shapes[] = {{1, 8, 4}, {3, 20, 5}, {32, 32, 128}, {17, 100, 33}};
  for (const auto& s : shapes) {
    const Matrix x = RandomMatrix(&rng, s.m, s.k);
    const Matrix w = RandomMatrix(&rng, s.k, s.n);
    Matrix bias(1, s.n);
    for (size_t j = 0; j < s.n; ++j) {
      bias(0, j) = static_cast<float>(rng.UniformDouble(-0.5, 0.5));
    }
    Matrix ref;
    MatMul(x, w, &ref);
    AddRowBroadcast(&ref, bias);

    const QuantizedMatrix wq = QuantizedMatrix::FromColumns(w);
    Matrix out;
    QuantMatMul(x, wq, &bias, QuantAct::kNone, &out);
    ASSERT_EQ(out.rows(), s.m);
    ASSERT_EQ(out.cols(), s.n);

    for (size_t i = 0; i < s.m; ++i) {
      // Per-row analytic bound: |x_j - x̂_j| <= s_x/2 and
      // |w_jc - ŵ_jc| <= s_c/2, so the dot error is at most
      // s_x/2 * sum|w_col| + s_c/2 * (sum|x| + k * s_x/2).
      float x_absmax = 0.0f, x_abssum = 0.0f;
      for (size_t j = 0; j < s.k; ++j) {
        x_absmax = std::max(x_absmax, std::fabs(x(i, j)));
        x_abssum += std::fabs(x(i, j));
      }
      const float sx = x_absmax / 127.0f;
      for (size_t c = 0; c < s.n; ++c) {
        float w_abssum = 0.0f;
        for (size_t j = 0; j < s.k; ++j) w_abssum += std::fabs(w(j, c));
        const float sc = wq.scale(c);
        const float bound = 0.5f * sx * w_abssum +
                            0.5f * sc * (x_abssum + s.k * 0.5f * sx) + 1e-4f;
        EXPECT_NEAR(out(i, c), ref(i, c), bound)
            << "m=" << s.m << " k=" << s.k << " n=" << s.n << " at (" << i
            << "," << c << ")";
      }
    }
  }
}

TEST(QuantMatMulTest, FusedReluMatchesSeparateRelu) {
  Rng rng(203);
  const Matrix x = RandomMatrix(&rng, 5, 24);
  const Matrix w = RandomMatrix(&rng, 24, 7);
  Matrix bias(1, 7);
  for (size_t j = 0; j < 7; ++j) {
    bias(0, j) = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  }
  const QuantizedMatrix wq = QuantizedMatrix::FromColumns(w);
  Matrix plain, fused;
  QuantMatMul(x, wq, &bias, QuantAct::kNone, &plain);
  QuantMatMul(x, wq, &bias, QuantAct::kRelu, &fused);
  for (size_t i = 0; i < plain.rows(); ++i) {
    for (size_t j = 0; j < plain.cols(); ++j) {
      EXPECT_EQ(fused(i, j), std::max(plain(i, j), 0.0f));
    }
  }
}

TEST(QuantMatMulTest, PreQuantizedActivationsMatchOnTheFly) {
  Rng rng(204);
  const Matrix x = RandomMatrix(&rng, 6, 40);
  const Matrix w = RandomMatrix(&rng, 40, 9);
  const QuantizedMatrix wq = QuantizedMatrix::FromColumns(w);
  Matrix direct, pre;
  QuantMatMul(x, wq, nullptr, QuantAct::kNone, &direct);
  const QuantizedActivations xq = QuantizeActivations(x);
  QuantMatMulPre(xq, wq, nullptr, QuantAct::kNone, &pre);
  ASSERT_EQ(direct.rows(), pre.rows());
  ASSERT_EQ(direct.cols(), pre.cols());
  EXPECT_EQ(std::memcmp(direct.data(), pre.data(),
                        direct.size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// 3. Cross-tier bit-equality.
// ---------------------------------------------------------------------------

TEST(QuantCrossTier, QuantizeRowBitIdentical) {
  Rng rng(301);
  const KernelTable& ref = KernelTableFor(SimdLevel::kScalar);
  for (SimdLevel level : AvailableSimdTiers()) {
    const KernelTable& kt = KernelTableFor(level);
    for (size_t n : kSizes) {
      const std::vector<float> x = RandomVec(&rng, n, -4.0, 4.0);
      std::vector<int8_t> q_ref(n), q_simd(n);
      const float s_ref = ref.quantize_row_i8(x.data(), n, q_ref.data());
      const float s_simd = kt.quantize_row_i8(x.data(), n, q_simd.data());
      EXPECT_EQ(std::memcmp(&s_ref, &s_simd, sizeof(float)), 0)
          << SimdLevelName(level) << " n=" << n << " scale mismatch";
      EXPECT_EQ(std::memcmp(q_ref.data(), q_simd.data(), n), 0)
          << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(QuantCrossTier, DotI8BitIdentical) {
  Rng rng(302);
  const KernelTable& ref = KernelTableFor(SimdLevel::kScalar);
  for (SimdLevel level : AvailableSimdTiers()) {
    const KernelTable& kt = KernelTableFor(level);
    for (size_t n : kSizes) {
      std::vector<int8_t> a(n), b0(n), b1(n), b2(n), b3(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<int8_t>(rng.Uniform(255) - 127);
        b0[i] = static_cast<int8_t>(rng.Uniform(255) - 127);
        b1[i] = static_cast<int8_t>(rng.Uniform(255) - 127);
        b2[i] = static_cast<int8_t>(rng.Uniform(255) - 127);
        b3[i] = static_cast<int8_t>(rng.Uniform(255) - 127);
      }
      EXPECT_EQ(ref.dot_i8(a.data(), b0.data(), n),
                kt.dot_i8(a.data(), b0.data(), n))
          << SimdLevelName(level) << " n=" << n;
      int32_t acc_ref[4], acc_simd[4];
      ref.dot4_i8(a.data(), b0.data(), b1.data(), b2.data(), b3.data(), n,
                  acc_ref);
      kt.dot4_i8(a.data(), b0.data(), b1.data(), b2.data(), b3.data(), n,
                 acc_simd);
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(acc_ref[j], acc_simd[j])
            << SimdLevelName(level) << " n=" << n << " lane " << j;
      }
    }
  }
}

TEST(QuantCrossTier, DotI8SaturationSafeAtExtremes) {
  // 2 * 127 * 127 = 32258 < 32767: the maddubs int16 pair-sum cannot
  // saturate for codes in [-127, 127]. Exercise the worst case.
  const KernelTable& ref = KernelTableFor(SimdLevel::kScalar);
  for (size_t n : {size_t{32}, size_t{64}, size_t{100}}) {
    std::vector<int8_t> a(n, 127), b(n, -127);
    const int32_t expect = -127 * 127 * static_cast<int32_t>(n);
    EXPECT_EQ(ref.dot_i8(a.data(), b.data(), n), expect);
    for (SimdLevel level : AvailableSimdTiers()) {
      EXPECT_EQ(KernelTableFor(level).dot_i8(a.data(), b.data(), n), expect)
          << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(QuantCrossTier, DequantAffineRowBitIdentical) {
  Rng rng(303);
  const KernelTable& ref = KernelTableFor(SimdLevel::kScalar);
  for (SimdLevel level : AvailableSimdTiers()) {
    const KernelTable& kt = KernelTableFor(level);
    for (size_t n : kSizes) {
      std::vector<int32_t> acc(n);
      for (auto& v : acc) {
        v = static_cast<int32_t>(rng.Uniform(2000000)) - 1000000;
      }
      const std::vector<float> scales = RandomVec(&rng, n, 0.0, 0.1);
      const std::vector<float> bias = RandomVec(&rng, n, -1.0, 1.0);
      const float a_scale = static_cast<float>(rng.UniformDouble(0.0, 0.1));
      for (bool relu : {false, true}) {
        std::vector<float> out_ref(n), out_simd(n);
        ref.dequant_affine_row(out_ref.data(), acc.data(), a_scale,
                               scales.data(), bias.data(), n, relu);
        kt.dequant_affine_row(out_simd.data(), acc.data(), a_scale,
                              scales.data(), bias.data(), n, relu);
        EXPECT_EQ(std::memcmp(out_ref.data(), out_simd.data(),
                              n * sizeof(float)),
                  0)
            << SimdLevelName(level) << " n=" << n << " relu=" << relu;
        // Null bias must also agree.
        ref.dequant_affine_row(out_ref.data(), acc.data(), a_scale,
                               scales.data(), nullptr, n, relu);
        kt.dequant_affine_row(out_simd.data(), acc.data(), a_scale,
                              scales.data(), nullptr, n, relu);
        EXPECT_EQ(std::memcmp(out_ref.data(), out_simd.data(),
                              n * sizeof(float)),
                  0)
            << SimdLevelName(level) << " n=" << n << " relu=" << relu
            << " (null bias)";
      }
    }
  }
}

TEST(QuantCrossTier, FullPipelineBitIdentical) {
  // Compose quantize -> dot -> dequant per tier by hand (the module-level
  // QuantMatMul latches one dispatched table per process) and require the
  // final floats to match bit for bit.
  Rng rng(304);
  const size_t m = 5, k = 37, n = 11;
  const Matrix x = RandomMatrix(&rng, m, k);
  const Matrix w = RandomMatrix(&rng, k, n);
  const Matrix wt = w.Transposed();

  auto run = [&](const KernelTable& kt, Matrix* out) {
    std::vector<int8_t> wq(n * k);
    std::vector<float> w_scales(n);
    for (size_t c = 0; c < n; ++c) {
      w_scales[c] = kt.quantize_row_i8(wt.Row(c), k, wq.data() + c * k);
    }
    *out = Matrix(m, n);
    std::vector<int8_t> xq(k);
    std::vector<int32_t> acc(n);
    for (size_t i = 0; i < m; ++i) {
      const float sx = kt.quantize_row_i8(x.Row(i), k, xq.data());
      size_t c = 0;
      for (; c + 4 <= n; c += 4) {
        kt.dot4_i8(xq.data(), wq.data() + c * k, wq.data() + (c + 1) * k,
                   wq.data() + (c + 2) * k, wq.data() + (c + 3) * k, k,
                   acc.data() + c);
      }
      for (; c < n; ++c) {
        acc[c] = kt.dot_i8(xq.data(), wq.data() + c * k, k);
      }
      kt.dequant_affine_row(out->Row(i), acc.data(), sx, w_scales.data(),
                            nullptr, n, false);
    }
  };

  Matrix ref;
  run(KernelTableFor(SimdLevel::kScalar), &ref);
  for (SimdLevel level : AvailableSimdTiers()) {
    Matrix out;
    run(KernelTableFor(level), &out);
    EXPECT_EQ(
        std::memcmp(ref.data(), out.data(), ref.size() * sizeof(float)), 0)
        << SimdLevelName(level);
  }
}

TEST(BufferPoolTypedTest, Int8AndInt32RoundTrip) {
  int8_t* p8 = BufferPool::AcquireI8(1000);
  ASSERT_NE(p8, nullptr);
  for (size_t i = 0; i < 1000; ++i) p8[i] = static_cast<int8_t>(i & 0x7f);
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(p8[i], static_cast<int8_t>(i & 0x7f));
  }
  BufferPool::ReleaseI8(p8, 1000);
  int32_t* p32 = BufferPool::AcquireI32(333);
  ASSERT_NE(p32, nullptr);
  for (size_t i = 0; i < 333; ++i) p32[i] = static_cast<int32_t>(i) - 100;
  for (size_t i = 0; i < 333; ++i) {
    ASSERT_EQ(p32[i], static_cast<int32_t>(i) - 100);
  }
  BufferPool::ReleaseI32(p32, 333);
}

}  // namespace
}  // namespace semtag::la
