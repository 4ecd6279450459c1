// BufferPool tests: bucket math, reuse, stats accounting, and the headline
// acceptance check — a steady-state training step performs zero system
// allocations for Matrix payloads once the pool is warm.

#include "la/buffer_pool.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "la/matrix.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/variable.h"

namespace semtag::la {
namespace {

TEST(BufferPoolTest, BucketFloatsRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BufferPool::BucketFloats(1), 32u);
  EXPECT_EQ(BufferPool::BucketFloats(32), 32u);
  EXPECT_EQ(BufferPool::BucketFloats(33), 64u);
  EXPECT_EQ(BufferPool::BucketFloats(64), 64u);
  EXPECT_EQ(BufferPool::BucketFloats(65), 128u);
  EXPECT_EQ(BufferPool::BucketFloats(1000), 1024u);
  EXPECT_EQ(BufferPool::BucketFloats(1 << 20), 1u << 20);
  EXPECT_EQ(BufferPool::BucketFloats((1 << 20) + 1), 1u << 21);
}

TEST(BufferPoolTest, AcquireReleaseReusesBuffer) {
  float* p = BufferPool::Acquire(100);
  ASSERT_NE(p, nullptr);
  // 32-byte alignment supports aligned AVX2 loads and cacheline-friendly
  // layouts.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 32, 0u);
  BufferPool::Release(p, 100);
  // Same bucket (128 floats) — must come back from the thread cache.
  float* q = BufferPool::Acquire(120);
  EXPECT_EQ(q, p);
  BufferPool::Release(q, 120);
}

TEST(BufferPoolTest, StatsCountPoolHits) {
  // Warm one buffer so the next acquire of the same bucket is a hit.
  float* warm = BufferPool::Acquire(4000);
  BufferPool::Release(warm, 4000);
  const auto before = BufferPool::GetStats();
  float* p = BufferPool::Acquire(4000);
  const auto after = BufferPool::GetStats();
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.system_allocs, before.system_allocs);
  BufferPool::Release(p, 4000);
}

TEST(BufferPoolTest, CrossThreadReleaseIsSafe) {
  float* p = BufferPool::Acquire(256);
  p[0] = 1.0f;
  std::thread t([p] { BufferPool::Release(p, 256); });
  t.join();
  // The buffer went to the releasing thread's cache or the global list;
  // either way the pool stays consistent and this thread can keep working.
  float* q = BufferPool::Acquire(256);
  ASSERT_NE(q, nullptr);
  BufferPool::Release(q, 256);
}

// The acceptance check: after a couple of warm-up steps, a full
// forward/backward/update training step allocates nothing from the system —
// every Matrix payload (activations, gradients, autograd intermediates)
// is served from the pool.
TEST(BufferPoolTest, SteadyStateTrainingStepMakesNoSystemAllocs) {
  const size_t batch = 8, in_dim = 64, hidden = 128, classes = 4;
  nn::Variable w1(Matrix(in_dim, hidden, 0.1f), /*requires_grad=*/true);
  nn::Variable b1(Matrix(1, hidden, 0.0f), /*requires_grad=*/true);
  nn::Variable w2(Matrix(hidden, classes, 0.1f), /*requires_grad=*/true);
  nn::Variable b2(Matrix(1, classes, 0.0f), /*requires_grad=*/true);
  nn::Adam adam({w1, b1, w2, b2}, /*lr=*/1e-3f);

  Matrix x(batch, in_dim, 0.5f);
  std::vector<int32_t> labels(batch, 1);

  auto step = [&] {
    nn::Variable xv(x, /*requires_grad=*/false);
    auto h = nn::Gelu(nn::AddRowBroadcast(nn::MatMul(xv, w1), b1));
    auto logits = nn::AddRowBroadcast(nn::MatMul(h, w2), b2);
    auto loss = nn::SoftmaxCrossEntropy(logits, labels);
    nn::Backward(loss);
    adam.Step();
    for (auto* p : {&w1, &b1, &w2, &b2}) p->ZeroGrad();
  };

  // Warm-up: populates the pool's free lists and Adam's moment buffers.
  step();
  step();
  step();

  const auto before = BufferPool::GetStats();
  for (int i = 0; i < 5; ++i) step();
  const auto after = BufferPool::GetStats();

  // Matrix payloads are the steady-state float traffic; all of it must be
  // pool hits. (Autograd node metadata still uses the general heap — see
  // DESIGN.md "Kernel layer and dispatch".)
  EXPECT_EQ(after.system_allocs, before.system_allocs)
      << "training step allocated Matrix payloads from the system heap";
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

}  // namespace
}  // namespace semtag::la
