// Kernel-layer tests, in three groups:
//
//  1. Seed bit-identity: the scalar table must reproduce the exact loops
//     the kernel layer replaced. Frozen copies of those seed loops live in
//     this file; the scalar kernels must match them bit-for-bit (memcmp).
//  2. Cross-tier parity: every compiled-in SIMD tier must agree with the
//     scalar reference — bit-exact for elementwise kernels (the documented
//     contract), within a reduction tolerance for kernels that reassociate,
//     and within a relative-error bound for the polynomial transcendentals.
//  3. Dispatch: level selection, SEMTAG_SIMD handling, KernelTableFor.
//
// Tolerance policy (mirrors DESIGN.md "Kernel layer and dispatch"):
//  - reassociated float reductions: |simd - scalar| <= 1e-5 * sum|terms|
//  - vexp/vtanh/vsigmoid/vgelu: relative error <= 1e-5 vs the libm scalar
//    reference (the Cephes polynomials are good to a few ULP; the bound
//    here is deliberately loose enough to be hardware-independent).

#include "la/kernels.h"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "config/runtime_config.h"
#include "gtest/gtest.h"
#include "la/sparse.h"

namespace semtag::la {
namespace {

std::vector<float> RandomVec(Rng* rng, size_t n, double lo = -2.0,
                             double hi = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->UniformDouble(lo, hi));
  return v;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

const size_t kSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 31, 63, 64, 100, 255,
                         256, 1000};

std::vector<SimdLevel> AvailableSimdTiers() {
  std::vector<SimdLevel> tiers;
  if (SimdLevelAvailable(SimdLevel::kAvx2)) tiers.push_back(SimdLevel::kAvx2);
  return tiers;
}

// ---------------------------------------------------------------------------
// 1. Scalar table == seed loops, bit for bit.
// ---------------------------------------------------------------------------

// Frozen seed reference implementations. These are copies of the exact
// loops that lived in matrix.cc / ops.cc / optimizer.cc / sparse.cc before
// the kernel layer existed. Do not update them if the kernels change —
// they pin the scalar tier to the seed's numerics.
namespace seed {

float Dot(const float* a, const float* b, size_t n) {
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

void GemmUpdate(float* out, const float* b0, const float* b1,
                const float* b2, const float* b3, float a0, float a1,
                float a2, float a3, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

void SoftmaxRow(float* row, size_t n) {
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

float LayerNormRow(float* normalized, const float* row, size_t n,
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

void AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                float lr, float beta1, float beta2, float eps, float bc1,
                float bc2) {
  for (size_t j = 0; j < n; ++j) {
    const float gj = g[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
    v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void GeluBackward(const float* x, const float* g, size_t n, float* dx) {
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  for (size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float inner = kC * (xi + kA * xi * xi * xi);
    const float t = std::tanh(inner);
    const float dinner = kC * (1.0f + 3.0f * kA * xi * xi);
    const float dy =
        0.5f * (1.0f + t) + 0.5f * xi * (1.0f - t * t) * dinner;
    dx[i] += g[i] * dy;
  }
}

}  // namespace seed

TEST(KernelsScalarSeedTest, DotMatchesSeedBitwise) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(11);
  for (size_t n : kSizes) {
    const auto a = RandomVec(&rng, n);
    const auto b = RandomVec(&rng, n);
    const float got = kt.dot(a.data(), b.data(), n);
    const float want = seed::Dot(a.data(), b.data(), n);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << "n=" << n;
  }
}

TEST(KernelsScalarSeedTest, GemmUpdate4MatchesSeedBitwise) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(12);
  for (size_t n : kSizes) {
    const auto b0 = RandomVec(&rng, n), b1 = RandomVec(&rng, n);
    const auto b2 = RandomVec(&rng, n), b3 = RandomVec(&rng, n);
    const auto base = RandomVec(&rng, n);
    const float a0 = 0.7f, a1 = -1.3f, a2 = 0.02f, a3 = 2.5f;
    auto got = base;
    kt.gemm_update4(got.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                    a0, a1, a2, a3, n);
    auto want = base;
    seed::GemmUpdate(want.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                     a0, a1, a2, a3, n);
    ASSERT_TRUE(BitIdentical(got, want)) << "n=" << n;
  }
}

TEST(KernelsScalarSeedTest, GemmUpdate4x2MatchesTwoSingleRowUpdates) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(13);
  for (size_t n : kSizes) {
    const auto b0 = RandomVec(&rng, n), b1 = RandomVec(&rng, n);
    const auto b2 = RandomVec(&rng, n), b3 = RandomVec(&rng, n);
    const float a0[4] = {0.5f, -0.25f, 1.5f, -2.0f};
    const float a1[4] = {1.0f, 0.125f, -0.75f, 3.0f};
    auto got0 = RandomVec(&rng, n);
    auto got1 = RandomVec(&rng, n);
    auto want0 = got0;
    auto want1 = got1;
    kt.gemm_update4x2(got0.data(), got1.data(), b0.data(), b1.data(),
                      b2.data(), b3.data(), a0, a1, n);
    seed::GemmUpdate(want0.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                     a0[0], a0[1], a0[2], a0[3], n);
    seed::GemmUpdate(want1.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                     a1[0], a1[1], a1[2], a1[3], n);
    ASSERT_TRUE(BitIdentical(got0, want0)) << "n=" << n;
    ASSERT_TRUE(BitIdentical(got1, want1)) << "n=" << n;
  }
}

TEST(KernelsScalarSeedTest, SoftmaxRowMatchesSeedBitwise) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(14);
  for (size_t n : kSizes) {
    const auto base = RandomVec(&rng, n, -8.0, 8.0);
    auto got = base;
    kt.softmax_row(got.data(), n);
    auto want = base;
    seed::SoftmaxRow(want.data(), n);
    ASSERT_TRUE(BitIdentical(got, want)) << "n=" << n;
  }
}

TEST(KernelsScalarSeedTest, LayerNormRowMatchesSeedBitwise) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(15);
  for (size_t n : kSizes) {
    const auto row = RandomVec(&rng, n);
    std::vector<float> got(n), want(n);
    const float istd_got = kt.layernorm_row(got.data(), row.data(), n, 1e-5f);
    const float istd_want = seed::LayerNormRow(want.data(), row.data(), n,
                                               1e-5f);
    ASSERT_EQ(std::memcmp(&istd_got, &istd_want, sizeof(float)), 0);
    ASSERT_TRUE(BitIdentical(got, want)) << "n=" << n;
  }
}

TEST(KernelsScalarSeedTest, AdamUpdateMatchesSeedBitwise) {
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(16);
  for (size_t n : kSizes) {
    const auto g = RandomVec(&rng, n);
    auto w_got = RandomVec(&rng, n);
    auto m_got = RandomVec(&rng, n, -0.1, 0.1);
    auto v_got = RandomVec(&rng, n, 0.0, 0.1);
    auto w_want = w_got, m_want = m_got, v_want = v_got;
    kt.adam_update(w_got.data(), g.data(), m_got.data(), v_got.data(), n,
                   1e-3f, 0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
    seed::AdamUpdate(w_want.data(), g.data(), m_want.data(), v_want.data(),
                     n, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
    ASSERT_TRUE(BitIdentical(w_got, w_want)) << "n=" << n;
    ASSERT_TRUE(BitIdentical(m_got, m_want)) << "n=" << n;
    ASSERT_TRUE(BitIdentical(v_got, v_want)) << "n=" << n;
  }
}

TEST(KernelsScalarSeedTest, GeluBackwardMatchesSeedBitwise) {
  // The vtanh-sweep GELU backward on the scalar table reproduces the
  // per-element std::tanh loop nn::Gelu used before it.
  const KernelTable& kt = KernelTableFor(SimdLevel::kScalar);
  Rng rng(17);
  for (size_t n : kSizes) {
    const auto x = RandomVec(&rng, n, -6.0, 6.0);
    const auto g = RandomVec(&rng, n);
    auto got = RandomVec(&rng, n);
    auto want = got;
    std::vector<float> scratch(n);
    GeluBackward(kt, x.data(), g.data(), n, scratch.data(), got.data());
    seed::GeluBackward(x.data(), g.data(), n, want.data());
    ASSERT_TRUE(BitIdentical(got, want)) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// 2. Cross-tier parity.
// ---------------------------------------------------------------------------

class KernelsTierParityTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  const KernelTable& Tier() const { return KernelTableFor(GetParam()); }
  const KernelTable& Ref() const {
    return KernelTableFor(SimdLevel::kScalar);
  }
};

/// |got - want| <= 1e-5 * magnitude (magnitude = sum of |terms|, the scale
/// at which float reassociation error accrues).
void ExpectWithinBudget(float got, float want, double magnitude,
                        const char* what, size_t n) {
  EXPECT_LE(std::abs(static_cast<double>(got) - want),
            1e-5 * magnitude + 1e-7)
      << what << " n=" << n;
}

TEST_P(KernelsTierParityTest, ElementwiseKernelsAreBitExact) {
  const KernelTable& kt = Tier();
  Rng rng(21);
  for (size_t n : kSizes) {
    const auto x = RandomVec(&rng, n);
    const auto base = RandomVec(&rng, n);

    auto got = base, want = base;
    kt.scale(got.data(), 1.7f, n);
    Ref().scale(want.data(), 1.7f, n);
    ASSERT_TRUE(BitIdentical(got, want)) << "scale n=" << n;

    got = base, want = base;
    kt.vadd(got.data(), x.data(), n);
    Ref().vadd(want.data(), x.data(), n);
    ASSERT_TRUE(BitIdentical(got, want)) << "vadd n=" << n;

    got = base, want = base;
    kt.vsub(got.data(), x.data(), n);
    Ref().vsub(want.data(), x.data(), n);
    ASSERT_TRUE(BitIdentical(got, want)) << "vsub n=" << n;

    got = base, want = base;
    kt.hadamard(got.data(), x.data(), n);
    Ref().hadamard(want.data(), x.data(), n);
    ASSERT_TRUE(BitIdentical(got, want)) << "hadamard n=" << n;

    got = base, want = base;
    kt.axpy(got.data(), x.data(), -0.3f, n);
    Ref().axpy(want.data(), x.data(), -0.3f, n);
    ASSERT_TRUE(BitIdentical(got, want)) << "axpy n=" << n;

    got = base, want = base;
    kt.vfill(got.data(), 0.25f, n);
    Ref().vfill(want.data(), 0.25f, n);
    ASSERT_TRUE(BitIdentical(got, want)) << "vfill n=" << n;

    got = base, want = base;
    kt.vrelu(got.data(), n);
    Ref().vrelu(want.data(), n);
    ASSERT_TRUE(BitIdentical(got, want)) << "vrelu n=" << n;
  }
}

TEST_P(KernelsTierParityTest, AdamUpdateIsBitExact) {
  const KernelTable& kt = Tier();
  Rng rng(23);
  for (size_t n : kSizes) {
    const auto g = RandomVec(&rng, n);
    auto w_got = RandomVec(&rng, n);
    auto m_got = RandomVec(&rng, n, -0.1, 0.1);
    auto v_got = RandomVec(&rng, n, 0.0, 0.1);
    auto w_want = w_got, m_want = m_got, v_want = v_got;
    kt.adam_update(w_got.data(), g.data(), m_got.data(), v_got.data(), n,
                   1e-3f, 0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
    Ref().adam_update(w_want.data(), g.data(), m_want.data(), v_want.data(),
                      n, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
    ASSERT_TRUE(BitIdentical(w_got, w_want)) << "n=" << n;
    ASSERT_TRUE(BitIdentical(m_got, m_want)) << "n=" << n;
    ASSERT_TRUE(BitIdentical(v_got, v_want)) << "n=" << n;
  }
}

TEST_P(KernelsTierParityTest, DotReductionsWithinTolerance) {
  const KernelTable& kt = Tier();
  Rng rng(24);
  for (size_t n : kSizes) {
    const auto a = RandomVec(&rng, n);
    const auto b = RandomVec(&rng, n);
    double magnitude = 0.0;
    for (size_t i = 0; i < n; ++i) {
      magnitude += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    ExpectWithinBudget(kt.dot(a.data(), b.data(), n),
                       Ref().dot(a.data(), b.data(), n), magnitude, "dot", n);

    const auto b1 = RandomVec(&rng, n), b2 = RandomVec(&rng, n),
               b3 = RandomVec(&rng, n);
    float got4[4], want4[4];
    kt.dot4(a.data(), b.data(), b1.data(), b2.data(), b3.data(), n, got4);
    Ref().dot4(a.data(), b.data(), b1.data(), b2.data(), b3.data(), n,
               want4);
    for (int r = 0; r < 4; ++r) {
      ExpectWithinBudget(got4[r], want4[r], magnitude, "dot4", n);
    }
  }
}

TEST_P(KernelsTierParityTest, GemmUpdatesWithinTolerance) {
  const KernelTable& kt = Tier();
  Rng rng(25);
  for (size_t n : kSizes) {
    const auto b0 = RandomVec(&rng, n), b1 = RandomVec(&rng, n);
    const auto b2 = RandomVec(&rng, n), b3 = RandomVec(&rng, n);
    const auto base = RandomVec(&rng, n);
    const float a0[4] = {0.7f, -1.3f, 0.02f, 2.5f};
    const float a1[4] = {-0.4f, 0.9f, 1.1f, -0.6f};

    auto got = base, want = base;
    kt.gemm_update4(got.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                    a0[0], a0[1], a0[2], a0[3], n);
    Ref().gemm_update4(want.data(), b0.data(), b1.data(), b2.data(),
                       b3.data(), a0[0], a0[1], a0[2], a0[3], n);
    for (size_t j = 0; j < n; ++j) {
      ExpectWithinBudget(got[j], want[j], 8.0, "gemm_update4", n);
    }

    auto got0 = base, got1 = base, want0 = base, want1 = base;
    kt.gemm_update4x2(got0.data(), got1.data(), b0.data(), b1.data(),
                      b2.data(), b3.data(), a0, a1, n);
    Ref().gemm_update4x2(want0.data(), want1.data(), b0.data(), b1.data(),
                         b2.data(), b3.data(), a0, a1, n);
    for (size_t j = 0; j < n; ++j) {
      ExpectWithinBudget(got0[j], want0[j], 8.0, "gemm_update4x2.r0", n);
      ExpectWithinBudget(got1[j], want1[j], 8.0, "gemm_update4x2.r1", n);
    }
  }
}

TEST_P(KernelsTierParityTest, SumReductionsWithinTolerance) {
  const KernelTable& kt = Tier();
  Rng rng(26);
  for (size_t n : kSizes) {
    const auto x = RandomVec(&rng, n);
    double mag = 0.0, mag2 = 0.0;
    for (float v : x) {
      mag += std::abs(static_cast<double>(v));
      mag2 += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(kt.sum(x.data(), n), Ref().sum(x.data(), n), 1e-9 * mag)
        << "sum n=" << n;
    EXPECT_NEAR(kt.sumsq(x.data(), n), Ref().sumsq(x.data(), n), 1e-9 * mag2)
        << "sumsq n=" << n;
  }
}

TEST_P(KernelsTierParityTest, TranscendentalsWithinRelativeTolerance) {
  const KernelTable& kt = Tier();
  Rng rng(27);
  // Include the exp clamp boundaries and tanh branch point.
  for (size_t n : kSizes) {
    auto x = RandomVec(&rng, n, -10.0, 10.0);
    if (n >= 8) {
      x[0] = 0.0f;
      x[1] = -0.624f;
      x[2] = 0.626f;
      x[3] = 87.0f;   // near (but inside) the exp clamp range
      x[4] = -90.0f;  // below it: scalar underflows to a denormal,
                      // vector exp flushes to exact 0 — both ~0 in tol
      x[5] = 1e-8f;
      x[6] = -20.0f;
      x[7] = 20.0f;
    }
    // gelu gets a larger absolute floor: where tanh saturates, the
    // formula 0.5x(1+tanh(..)) amplifies tanh's few-ULP absolute error
    // into large *relative* error on a near-zero output. Absolute error
    // stays below 0.5|x| * tanh_abs_err ~ 2e-6 for |x| <= 10.
    for (auto [name, simd_fn, ref_fn, abs_tol] :
         {std::tuple{"vexp", kt.vexp, Ref().vexp, 1e-7},
          std::tuple{"vtanh", kt.vtanh, Ref().vtanh, 1e-7},
          std::tuple{"vsigmoid", kt.vsigmoid, Ref().vsigmoid, 1e-7},
          std::tuple{"vgelu", kt.vgelu, Ref().vgelu, 2e-6}}) {
      auto got = x, want = x;
      simd_fn(got.data(), n);
      ref_fn(want.data(), n);
      for (size_t i = 0; i < n; ++i) {
        const double w = want[i];
        EXPECT_NEAR(got[i], w, 1e-5 * std::abs(w) + abs_tol)
            << name << " n=" << n << " x=" << x[i];
      }
    }
  }
}

TEST_P(KernelsTierParityTest, FusedRowsWithinTolerance) {
  const KernelTable& kt = Tier();
  Rng rng(28);
  for (size_t n : kSizes) {
    const auto base = RandomVec(&rng, n, -8.0, 8.0);
    auto got = base, want = base;
    kt.softmax_row(got.data(), n);
    Ref().softmax_row(want.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-5) << "softmax n=" << n;
    }

    std::vector<float> ngot(n), nwant(n);
    const float istd_got =
        kt.layernorm_row(ngot.data(), base.data(), n, 1e-5f);
    const float istd_want =
        Ref().layernorm_row(nwant.data(), base.data(), n, 1e-5f);
    EXPECT_NEAR(istd_got, istd_want,
                1e-4 * std::abs(static_cast<double>(istd_want)))
        << "layernorm istd n=" << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ngot[i], nwant[i],
                  1e-4 * (1.0 + std::abs(static_cast<double>(nwant[i]))))
          << "layernorm n=" << n;
    }
  }
}

TEST_P(KernelsTierParityTest, SparseKernelsWithinTolerance) {
  const KernelTable& kt = Tier();
  Rng rng(29);
  const size_t dense_n = 512;
  for (size_t nnz : kSizes) {
    const auto dense = RandomVec(&rng, dense_n);
    std::vector<SparseEntry> entries(nnz);
    double magnitude = 0.0;
    for (auto& e : entries) {
      e.index = static_cast<uint32_t>(rng.Uniform(dense_n));
      e.value = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      magnitude += std::abs(static_cast<double>(e.value)) * 2.0;
    }
    ExpectWithinBudget(kt.sparse_dot(entries.data(), nnz, dense.data()),
                       Ref().sparse_dot(entries.data(), nnz, dense.data()),
                       magnitude, "sparse_dot", nnz);

    // sparse_axpy scatters with += into possibly-duplicated indices; all
    // tiers must apply entries in order, so results are bit-exact.
    auto got = dense, want = dense;
    kt.sparse_axpy(entries.data(), nnz, 0.5f, got.data());
    Ref().sparse_axpy(entries.data(), nnz, 0.5f, want.data());
    ASSERT_TRUE(BitIdentical(got, want)) << "sparse_axpy nnz=" << nnz;
  }
}

/// One attention tile's operands inside a strided fused Q|K|V buffer, with
/// the forward already run on `kt`.
struct AttentionCase {
  size_t t, hd, ld, ldo;
  std::vector<float> qkv, mask, probs, out, dout, work;

  AttentionCase(size_t t_in, size_t hd_in, Rng* rng)
      : t(t_in), hd(hd_in), ld(3 * hd_in + 3), ldo(hd_in + 2) {
    qkv = RandomVec(rng, t * ld);
    mask.assign(t * t, 0.0f);
    // Pad the last third of the keys (key 0 always stays visible).
    for (size_t j = t - t / 3; j < t; ++j) {
      for (size_t i = 0; i < t; ++i) mask[i * t + j] = -1e9f;
    }
    probs.assign(t * t, 0.0f);
    out.assign(t * ldo, 0.0f);
    dout = RandomVec(rng, t * ldo);
    work.assign(AttentionWorkFloats(t, hd), 0.0f);
  }

  AttentionTile Tile() {
    AttentionTile tile;
    tile.t = t;
    tile.rows = t;
    tile.hd = hd;
    tile.ld = ld;
    tile.scale = 1.0f / std::sqrt(static_cast<float>(hd));
    tile.q = qkv.data();
    tile.k = qkv.data() + hd;
    tile.v = qkv.data() + 2 * hd;
    tile.mask = mask.data();
    tile.probs = probs.data();
    tile.work = work.data();
    return tile;
  }
};

TEST_P(KernelsTierParityTest, AttentionTileWithinTolerance) {
  // Reassociated t-term sums plus the polynomial exp: both tiers agree to
  // 1e-4 relative (with a 1e-4 absolute floor) at these magnitudes.
  const KernelTable& kt = Tier();
  Rng rng(30);
  const std::pair<size_t, size_t> shapes[] = {
      {1, 1}, {3, 2}, {5, 8}, {9, 3}, {17, 16}, {20, 8}, {20, 13}};
  auto near = [](float got, float want) {
    return std::abs(static_cast<double>(got) - want) <=
           1e-4 * (1.0 + std::abs(static_cast<double>(want)));
  };
  for (auto [t, hd] : shapes) {
    AttentionCase got(t, hd, &rng);
    AttentionCase want = got;
    kt.attention_forward(got.Tile(), got.out.data(), got.ldo);
    Ref().attention_forward(want.Tile(), want.out.data(), want.ldo);
    for (size_t i = 0; i < t * t; ++i) {
      ASSERT_TRUE(near(got.probs[i], want.probs[i]))
          << "probs t=" << t << " hd=" << hd << " i=" << i;
      if (want.mask[i] != 0.0f) {
        ASSERT_EQ(got.probs[i], 0.0f);
      }
    }
    for (size_t i = 0; i < got.out.size(); ++i) {
      ASSERT_TRUE(near(got.out[i], want.out[i]))
          << "out t=" << t << " hd=" << hd << " i=" << i;
    }
    // Backward accumulates into non-zero gradients laid out like qkv.
    const auto base = RandomVec(&rng, t * got.ld);
    auto dgot = base, dwant = base;
    kt.attention_backward(got.Tile(), got.dout.data(), got.ldo, dgot.data(),
                          dgot.data() + hd, dgot.data() + 2 * hd);
    Ref().attention_backward(want.Tile(), want.dout.data(), want.ldo,
                             dwant.data(), dwant.data() + hd,
                             dwant.data() + 2 * hd);
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_TRUE(near(dgot[i], dwant[i]))
          << "grad t=" << t << " hd=" << hd << " i=" << i;
      // Columns past the tile's 3*hd are never written.
      if (i % got.ld >= 3 * hd) {
        ASSERT_EQ(dgot[i], base[i]);
      }
    }
  }
}

TEST(AttentionTileTest, FirstRowsMatchFullTile) {
  // A tile run on its first query row alone equals row 0 of the full tile
  // bit for bit at every tier: output and probabilities, and Q, K and V
  // gradients when the full tile's other output rows get zero gradient.
  std::vector<SimdLevel> tiers = AvailableSimdTiers();
  tiers.push_back(SimdLevel::kScalar);
  Rng rng(31);
  for (SimdLevel level : tiers) {
    const KernelTable& kt = KernelTableFor(level);
    for (auto [t, hd] : {std::pair<size_t, size_t>{5, 8}, {12, 8}, {20, 8},
                         {20, 13}}) {
      SCOPED_TRACE(testing::Message() << SimdLevelName(level) << " t=" << t
                                      << " hd=" << hd);
      AttentionCase full(t, hd, &rng);
      AttentionCase part = full;
      for (size_t i = full.ldo; i < full.dout.size(); ++i) {
        full.dout[i] = 0.0f;
      }
      AttentionTile part_tile = part.Tile();
      part_tile.rows = 1;
      kt.attention_forward(full.Tile(), full.out.data(), full.ldo);
      kt.attention_forward(part_tile, part.out.data(), part.ldo);
      for (size_t i = 0; i < t; ++i) {
        ASSERT_EQ(part.probs[i], full.probs[i]) << "probs " << i;
      }
      for (size_t i = 0; i < full.ldo; ++i) {
        ASSERT_EQ(part.out[i], full.out[i]) << "out " << i;
      }
      const auto base = RandomVec(&rng, t * full.ld);
      auto dfull = base, dpart = base;
      kt.attention_backward(full.Tile(), full.dout.data(), full.ldo,
                            dfull.data(), dfull.data() + hd,
                            dfull.data() + 2 * hd);
      kt.attention_backward(part_tile, part.dout.data(), part.ldo,
                            dpart.data(), dpart.data() + hd,
                            dpart.data() + 2 * hd);
      for (size_t i = 0; i < base.size(); ++i) {
        ASSERT_EQ(dpart[i], dfull[i]) << "grad " << i;
      }
    }
  }
}

TEST(AttentionTileDeathTest, RowsOutsideOneToTAbort) {
  // A tile whose query-row count was never set (or exceeds t) aborts
  // instead of running zero rows and returning untouched buffers.
  std::vector<SimdLevel> tiers = AvailableSimdTiers();
  tiers.push_back(SimdLevel::kScalar);
  Rng rng(32);
  for (SimdLevel level : tiers) {
    SCOPED_TRACE(SimdLevelName(level));
    const KernelTable& kt = KernelTableFor(level);
    AttentionCase c(4, 8, &rng);
    std::vector<float> grad(c.t * c.ld, 0.0f);
    for (size_t rows : {size_t{0}, c.t + 1}) {
      AttentionTile tile = c.Tile();
      tile.rows = rows;
      EXPECT_DEATH(kt.attention_forward(tile, c.out.data(), c.ldo),
                   "tile.rows");
      EXPECT_DEATH(kt.attention_backward(tile, c.dout.data(), c.ldo,
                                         grad.data(), grad.data() + c.hd,
                                         grad.data() + 2 * c.hd),
                   "tile.rows");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, KernelsTierParityTest, ::testing::ValuesIn(AvailableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdLevel>& info) {
      return SimdLevelName(info.param);
    });

// Guard against an empty instantiation on non-x86 hosts.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(KernelsTierParityTest);

// ---------------------------------------------------------------------------
// 3. Dispatch.
// ---------------------------------------------------------------------------

TEST(KernelsDispatchTest, ActiveTableMatchesActiveLevel) {
  EXPECT_EQ(Kernels().level, ActiveSimdLevel());
  // Without SEMTAG_SIMD the dispatcher must pick the best supported level;
  // with it, never something above best-supported.
  if (GetRuntimeConfig().simd.empty()) {
    EXPECT_EQ(ActiveSimdLevel(), BestSupportedSimdLevel());
  } else {
    EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
              static_cast<int>(BestSupportedSimdLevel()));
  }
}

TEST(KernelsDispatchTest, TableForReturnsRequestedLevel) {
  EXPECT_EQ(KernelTableFor(SimdLevel::kScalar).level, SimdLevel::kScalar);
  for (SimdLevel level : AvailableSimdTiers()) {
    EXPECT_EQ(KernelTableFor(level).level, level);
  }
}

TEST(KernelsDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kScalar));
}

TEST(KernelsDispatchTest, LevelNames) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

}  // namespace
}  // namespace semtag::la
