#ifndef SEMTAG_LA_BUFFER_POOL_H_
#define SEMTAG_LA_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>

namespace semtag::la {

/// Size-bucketed free-list allocator for `Matrix` payloads.
///
/// The autograd tape allocates and frees a fresh buffer for every forward
/// value, gradient, and op intermediate — thousands of same-shaped
/// allocations per training step. The pool turns that steady state into
/// pure free-list recycling: buffers are bucketed by size class (next
/// power of two, 32-float minimum), cached per thread (no locking on the
/// hot path), and only touch the system allocator the first time a size
/// class grows. After warm-up a training step performs zero system
/// allocations for tensor payloads — pinned by `buffer_pool_test.cc`
/// against `GetStats()`.
///
/// Lifetime rules:
///  - `Release` must pass the same `n` that was passed to `Acquire`.
///  - Buffers may be released on a different thread than they were
///    acquired on; ownership handoff must be externally synchronized
///    (it always is: a `Matrix` move is a handoff).
///  - The pool itself is a leaky process-wide singleton; cached buffers
///    stay reachable until `Clear()` or process exit. Thread-local caches
///    flush to the global free list at thread exit.
class BufferPool {
 public:
  struct Stats {
    uint64_t system_allocs = 0;  ///< calls into the system allocator
    uint64_t system_frees = 0;   ///< buffers returned to the system
    uint64_t pool_hits = 0;      ///< acquires served from a free list
    uint64_t releases = 0;       ///< total Release calls
  };

  /// Returns a 32-byte-aligned buffer of at least `n` floats
  /// (uninitialized). `n == 0` returns nullptr.
  static float* Acquire(size_t n);

  /// Returns a buffer to the pool. `n` must match the Acquire size.
  static void Release(float* p, size_t n);

  /// Process-wide counters (monotonic; tests assert on deltas).
  static Stats GetStats();

  /// Frees every buffer on the global free lists (outstanding buffers are
  /// untouched). Flushes the calling thread's cache first.
  static void Clear();

  /// Flushes the calling thread's cache to the global free lists.
  static void FlushThreadCache();

  /// Size class (in floats) a request of `n` floats is served from.
  static size_t BucketFloats(size_t n);
};

}  // namespace semtag::la

#endif  // SEMTAG_LA_BUFFER_POOL_H_
