#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#ifdef __unix__
#include <pthread.h>
#endif

#include "common/logging.h"
#include "config/runtime_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag {

namespace {

/// Set for the duration of WorkerLoop so InPool() can answer without
/// touching the pool's mutex.
thread_local const ThreadPool* t_worker_pool = nullptr;

/// Set while the calling thread runs ParallelFor chunks: a nested
/// ParallelFor then runs inline. Pool workers are covered by InPool(); this
/// covers the caller, whose nested tasks would otherwise queue behind
/// workers that keep claiming outer chunks.
thread_local bool t_in_chunk = false;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  SEMTAG_OBS_GAUGE_SET("pool/threads",
                       static_cast<double>(std::max(threads, 1)));
  if (threads <= 1) return;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InPool() const { return t_worker_pool == this; }

void ThreadPool::RunTask(const std::function<void()>& task) {
  // Worker utilization: busy time accumulates into pool/busy_us, so
  // utilization over a window is busy_us / (threads * wall_us). Clock
  // reads happen only when the registry is recording.
  const bool metrics_on = obs::MetricsEnabled();
  const auto start = metrics_on ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point();
  obs::TraceSpan span("pool/task");
  task();
  if (metrics_on) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    SEMTAG_OBS_COUNT("pool/busy_us", static_cast<uint64_t>(us));
    SEMTAG_OBS_COUNT("pool/tasks_run", 1);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers: degrade to synchronous execution.
    RunTask(task);
    return;
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  work_cv_.notify_one();
  SEMTAG_OBS_COUNT("pool/tasks_submitted", 1);
  SEMTAG_OBS_OBSERVE("pool/queue_depth", obs::DepthBuckets(),
                     static_cast<double>(depth));
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stop_ set and queue drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    RunTask(task);
    lock.lock();
  }
  t_worker_pool = nullptr;
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  // Leaked on purpose: worker threads may outlive static destructors in
  // exotic exit paths; an intentionally immortal pool avoids shutdown
  // races entirely.
  static std::unique_ptr<ThreadPool>& slot = *new std::unique_ptr<ThreadPool>();
  return slot;
}

#ifdef __unix__
// fork(2) copies only the calling thread: in the child the pool's workers
// are gone, so any ParallelFor there would enqueue work nobody drains.
// Abandon the pre-fork pool in the child (its threads died with the
// parent's address space; joining or destroying it would hang or throw)
// and let the next GlobalPool() call build a fresh one. The prepare/parent
// handlers hold g_pool_mu across the fork so the child never inherits it
// mid-swap.
void AtForkPrepare() { g_pool_mu.lock(); }
void AtForkParent() { g_pool_mu.unlock(); }
void AtForkChild() {
  (void)GlobalPoolSlot().release();  // leak: its threads no longer exist
  g_pool_mu.unlock();
}
[[maybe_unused]] const int g_atfork_registered =
    pthread_atfork(AtForkPrepare, AtForkParent, AtForkChild);
#endif

}  // namespace

int DefaultThreadCount() {
  if (const int n = GetRuntimeConfig().num_threads; n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  auto& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *slot;
}

void SetGlobalPoolThreads(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  auto& slot = GlobalPoolSlot();
  slot.reset();  // join the old workers before spawning replacements
  slot = std::make_unique<ThreadPool>(threads);
}

size_t PerThreadGrain(size_t range, size_t align) {
  const size_t threads =
      static_cast<size_t>(std::max(GlobalPool().threads(), 1));
  const size_t share = (range + threads - 1) / threads;
  return std::max((share + align - 1) / align * align, align);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  ThreadPool& pool = GlobalPool();
  const size_t threads = static_cast<size_t>(pool.threads());
  const size_t chunks = (end - begin + grain - 1) / grain;
  if (chunks <= 1 || threads == 0 || pool.InPool() || t_in_chunk) {
    fn(begin, end);
    return;
  }

  // Per-call state, so concurrent ParallelFor calls never observe each
  // other's chunks or errors.
  struct State {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t helpers = 0;  // submitted helpers that have not returned
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();

  // Claims chunks until the cursor runs past the last one. Whoever is
  // free takes the next chunk, so one slow chunk delays only itself. The
  // first exception is kept; later chunks still run, as every index must
  // be visited exactly once before ParallelFor returns.
  const auto drain = [state, chunks, grain, begin, end, &fn] {
    t_in_chunk = true;
    for (size_t c; (c = state->next.fetch_add(1)) < chunks;) {
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(lo + grain, end);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
    }
    t_in_chunk = false;
  };

  // One helper per other thread; the caller is the last. A helper that
  // starts after the cursor is spent returns at once.
  const size_t helpers = std::min(threads, chunks) - 1;
  state->helpers = helpers;
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([state, &drain] {
      drain();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->helpers == 0) state->cv.notify_all();
    });
  }
  drain();
  // Helpers reference `fn` and `drain` on this stack frame, so wait for
  // every one of them before returning or rethrowing.
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->helpers == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace semtag
