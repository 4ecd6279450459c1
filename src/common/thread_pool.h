#ifndef SEMTAG_COMMON_THREAD_POOL_H_
#define SEMTAG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace semtag {

/// Fixed-size worker pool with a shared FIFO work queue.
///
/// This is the concurrency substrate for every parallel path in the
/// library: the GEMM kernels in la/, experiment grid cells, and batched
/// inference all go through ParallelFor on the process-wide pool from
/// GlobalPool(). Keeping a single shared pool bounds total thread count no
/// matter how many layers try to parallelise at once.
///
/// Submit() enqueues a task; the submitter tracks its own completion and
/// errors (ParallelFor, the only submitter, counts its helpers down and
/// keeps the first exception). A task must not throw. The destructor
/// drains the queue before joining, so no submitted task is silently
/// discarded.
class ThreadPool {
 public:
  /// Spawns `threads` workers. `threads <= 1` creates no workers at all:
  /// Submit() then runs the task inline on the caller, which keeps
  /// single-threaded configurations free of any synchronization cost.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Number of worker threads (0 when constructed with threads <= 1).
  int threads() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is one of this pool's workers. Parallel
  /// helpers use this to run nested work inline instead of deadlocking on
  /// a queue their own worker is responsible for draining.
  bool InPool() const;

 private:
  void WorkerLoop();
  void RunTask(const std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signalled when the queue grows
  bool stop_ = false;
};

/// The process-wide pool. Created on first use with DefaultThreadCount()
/// workers. All library-internal parallelism (ParallelFor) uses this pool.
ThreadPool& GlobalPool();

/// Worker count the global pool is created with: SEMTAG_NUM_THREADS of the
/// runtime config if set (clamped to [1, 256]), else
/// std::thread::hardware_concurrency().
int DefaultThreadCount();

/// Replaces the global pool with one of `threads` workers. Benches and
/// tests use this to sweep thread counts. Must not race with concurrent
/// ParallelFor on the old pool (callers quiesce first).
void SetGlobalPoolThreads(int threads);

/// Runs fn(lo, hi) over [begin, end) cut into consecutive chunks of
/// `grain` indices (the last may be shorter) on the global pool. The
/// caller and up to threads-1 workers claim chunks from one atomic cursor
/// until none is left, so a thread that finishes early takes the next
/// chunk instead of idling behind a slow one: the grain is the unit of
/// load balancing. Every index is processed by exactly one call and
/// callers only write index-owned outputs, so results are bit-identical
/// for any thread count and any claim order.
///
/// Runs entirely inline (one fn(begin, end) call) when the range fits in
/// one grain, the pool has no workers, or the calling thread is a pool
/// worker or is already running a ParallelFor chunk (nested parallelism
/// degrades to sequential instead of deadlocking or queueing behind outer
/// chunks). Exceptions from any chunk are rethrown on the caller after all
/// chunks finish.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// The grain that gives each global-pool thread one contiguous block of a
/// `range`-index ParallelFor, rounded up to a multiple of `align` (>= 1). For
/// callers whose indices cost the same and that reuse data across
/// neighbouring indices (the GEMM row sweeps keep a B panel hot across
/// their rows, two rows at a time), which smaller chunks would only
/// fragment.
size_t PerThreadGrain(size_t range, size_t align);

}  // namespace semtag

#endif  // SEMTAG_COMMON_THREAD_POOL_H_
