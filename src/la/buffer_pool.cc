#include "la/buffer_pool.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <new>
#include <vector>

#include "obs/metrics.h"

namespace semtag::la {

namespace {

/// Smallest bucket: 32 floats (one cache line of payload). Buckets are
/// powers of two up to 2^40 bytes, indexed by log2.
constexpr size_t kMinBucketFloats = 32;
constexpr int kMinBucketLog2 = 5;
constexpr int kNumBuckets = 34;  // up to 2^38 floats — far beyond any model

/// Per-thread, per-bucket cache depth. Deep enough to absorb a training
/// step's churn, shallow enough that a terminated worker doesn't strand
/// much memory before its cache flushes to the global list.
constexpr size_t kThreadCacheDepth = 16;

int BucketIndex(size_t n) {
  const size_t rounded = std::bit_ceil(n < kMinBucketFloats ? kMinBucketFloats : n);
  return std::countr_zero(rounded) - kMinBucketLog2;
}

float* SystemAlloc(size_t floats) {
  return static_cast<float*>(
      ::operator new(floats * sizeof(float), std::align_val_t{32}));
}

void SystemFree(float* p) { ::operator delete(p, std::align_val_t{32}); }

/// The global tier: mutex-guarded free lists plus the stats counters.
/// Leaky singleton so thread-exit flushes never race destruction order.
struct Global {
  std::mutex mu;
  std::vector<float*> free_lists[kNumBuckets];
  std::atomic<uint64_t> system_allocs{0};
  std::atomic<uint64_t> system_frees{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> releases{0};
};

Global& GlobalTier() {
  static Global* g = new Global();
  return *g;
}

/// Per-thread tier: fixed-depth stacks, no locking. The destructor hands
/// every cached buffer to the global tier (reachable => never leaked).
struct ThreadCache {
  float* slots[kNumBuckets][kThreadCacheDepth];
  size_t depth[kNumBuckets] = {};

  ~ThreadCache() {
    Global& g = GlobalTier();
    std::lock_guard<std::mutex> lock(g.mu);
    for (int b = 0; b < kNumBuckets; ++b) {
      for (size_t i = 0; i < depth[b]; ++i) {
        g.free_lists[b].push_back(slots[b][i]);
      }
      depth[b] = 0;
    }
  }
};

ThreadCache& LocalCache() {
  static thread_local ThreadCache cache;
  return cache;
}

/// Snapshot collector: publishes the pool's own counters as gauges so a
/// metrics dump carries hit/miss rates without the pool hot path ever
/// touching the registry.
void CollectBufferPoolMetrics() {
  const BufferPool::Stats s = BufferPool::GetStats();
  obs::GetGauge("buffer_pool/pool_hits").Set(static_cast<double>(s.pool_hits));
  obs::GetGauge("buffer_pool/system_allocs")
      .Set(static_cast<double>(s.system_allocs));
  obs::GetGauge("buffer_pool/system_frees")
      .Set(static_cast<double>(s.system_frees));
  obs::GetGauge("buffer_pool/releases").Set(static_cast<double>(s.releases));
}

[[maybe_unused]] const bool g_buffer_pool_collector =
    obs::RegisterCollector(CollectBufferPoolMetrics);

}  // namespace

size_t BufferPool::BucketFloats(size_t n) {
  if (n == 0) return 0;
  return std::bit_ceil(n < kMinBucketFloats ? kMinBucketFloats : n);
}

float* BufferPool::Acquire(size_t n) {
  if (n == 0) return nullptr;
  Global& g = GlobalTier();
  const int b = BucketIndex(n);
  ThreadCache& tc = LocalCache();
  if (tc.depth[b] > 0) {
    g.pool_hits.fetch_add(1, std::memory_order_relaxed);
    return tc.slots[b][--tc.depth[b]];
  }
  {
    std::lock_guard<std::mutex> lock(g.mu);
    auto& list = g.free_lists[b];
    if (!list.empty()) {
      float* p = list.back();
      list.pop_back();
      g.pool_hits.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  g.system_allocs.fetch_add(1, std::memory_order_relaxed);
  return SystemAlloc(BucketFloats(n));
}

void BufferPool::Release(float* p, size_t n) {
  if (p == nullptr) return;
  Global& g = GlobalTier();
  g.releases.fetch_add(1, std::memory_order_relaxed);
  const int b = BucketIndex(n);
  ThreadCache& tc = LocalCache();
  if (tc.depth[b] < kThreadCacheDepth) {
    tc.slots[b][tc.depth[b]++] = p;
    return;
  }
  // Cache full: spill this buffer plus half the cache to the global tier
  // so a producer thread doesn't bounce on the lock every release.
  std::lock_guard<std::mutex> lock(g.mu);
  auto& list = g.free_lists[b];
  list.push_back(p);
  while (tc.depth[b] > kThreadCacheDepth / 2) {
    list.push_back(tc.slots[b][--tc.depth[b]]);
  }
}

BufferPool::Stats BufferPool::GetStats() {
  Global& g = GlobalTier();
  Stats s;
  s.system_allocs = g.system_allocs.load(std::memory_order_relaxed);
  s.system_frees = g.system_frees.load(std::memory_order_relaxed);
  s.pool_hits = g.pool_hits.load(std::memory_order_relaxed);
  s.releases = g.releases.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::FlushThreadCache() {
  Global& g = GlobalTier();
  ThreadCache& tc = LocalCache();
  std::lock_guard<std::mutex> lock(g.mu);
  for (int b = 0; b < kNumBuckets; ++b) {
    for (size_t i = 0; i < tc.depth[b]; ++i) {
      g.free_lists[b].push_back(tc.slots[b][i]);
    }
    tc.depth[b] = 0;
  }
}

void BufferPool::Clear() {
  FlushThreadCache();
  Global& g = GlobalTier();
  std::lock_guard<std::mutex> lock(g.mu);
  for (auto& list : g.free_lists) {
    for (float* p : list) {
      SystemFree(p);
      g.system_frees.fetch_add(1, std::memory_order_relaxed);
    }
    list.clear();
  }
}

}  // namespace semtag::la
