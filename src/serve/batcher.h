#ifndef SEMTAG_SERVE_BATCHER_H_
#define SEMTAG_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "serve/model_registry.h"
#include "serve/traffic_stats.h"

namespace semtag::serve {

class Replanner;

/// Knobs of the dynamic-batching scheduler (semtag_serve --batch-cap,
/// --queue-cap).
struct BatchingOptions {
  int batch_cap = 32;   // max requests per batch
  int queue_cap = 1024; // admission-control queue bound

  /// This instance with invalid fields clamped to sane minimums.
  BatchingOptions Resolved() const;
};

/// Completion of one scored request. `score` is the model's raw Score()
/// value (bit-identical to offline ScoreAll over the same batch),
/// `probability` the unified scale, `version` the model that produced it.
/// Runs on the batcher thread — keep it cheap (enqueue + wake).
struct ScoredRequest {
  double score = 0.0;
  double probability = 0.0;
  uint64_t model_version = 0;
};
using ScoreCallback = std::function<void(const ScoredRequest&)>;

/// Dynamic-batching scheduler (DESIGN.md "Serving architecture").
///
/// Submit() appends to a bounded queue; a single work-conserving
/// scheduler thread takes up to batch_cap queued requests the moment it
/// is idle — never holding a partial batch for company, so batch size
/// follows the load — and drives the model's batched ScoreAll (the
/// cascade tier by default, composing with SEMTAG_QUANT underneath). Each batch acquires one registry snapshot,
/// so a hot-swap mid-stream never splits a batch across model versions
/// and in-flight batches finish on the old model.
///
/// Admission control: Submit() returns false (shed) when queue_cap
/// requests are already waiting or the batcher is draining; callers map
/// that to StatusCode::kShed. Stop() lets the scheduler score whatever is
/// queued before joining the thread, so accepted requests are always
/// answered.
///
/// Determinism: a batch's scores are exactly model->ScoreAll(texts) for
/// the texts in arrival order — the same whole-corpus path offline
/// scoring uses — so responses are bit-identical to an offline run over
/// the same batch composition.
class Batcher {
 public:
  /// The registry must outlive the batcher. `stats` is optional (may be
  /// null): completed requests are recorded into it. `replanner` is
  /// optional: it is polled once after every scored batch, which is what
  /// drives the online re-planning loop (serve/replanner.h) — epochs seal
  /// on the batcher thread, so detector steps interleave with batches
  /// deterministically.
  Batcher(const ModelRegistry* registry, TrafficStats* stats,
          BatchingOptions options, Replanner* replanner = nullptr);
  ~Batcher();

  /// Starts the scheduler thread. Call once.
  void Start();

  /// Enqueues a request. False = shed (queue full or draining); the
  /// callback is NOT invoked for shed requests.
  bool Submit(std::string text, ScoreCallback done);

  /// Stops admission, flushes queued requests as final batches, joins.
  /// Idempotent.
  void Stop();

  /// Requests currently queued (tests / stats).
  size_t QueueDepth() const;

  /// Batches scored so far.
  uint64_t BatchCount() const;

  /// Requests shed by admission control so far.
  uint64_t ShedCount() const;

  const BatchingOptions& options() const { return options_; }

 private:
  struct Pending {
    std::string text;
    ScoreCallback done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void RunScheduler();
  /// Takes up to batch_cap requests (caller holds the lock).
  std::deque<Pending> TakeBatchLocked();
  void ScoreBatch(std::deque<Pending> batch,
                  std::chrono::steady_clock::time_point dequeued);

  const ModelRegistry* registry_;
  TrafficStats* stats_;
  Replanner* replanner_;
  const BatchingOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool draining_ = false;
  bool started_ = false;
  uint64_t batches_ = 0;
  uint64_t shed_ = 0;
  std::thread thread_;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_BATCHER_H_
