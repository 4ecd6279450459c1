#ifndef SEMTAG_SERVE_BATCHER_H_
#define SEMTAG_SERVE_BATCHER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/model_registry.h"
#include "serve/traffic_stats.h"

namespace semtag::serve {

class Replanner;

/// Knobs of the dynamic batcher (semtag_serve --batch-cap, --queue-cap).
struct BatchingOptions {
  int batch_cap = 32;   // max requests per batch
  int queue_cap = 1024; // admission-control queue bound

  /// This instance with invalid fields clamped to sane minimums.
  BatchingOptions Resolved() const;
};

/// One scored request, handed back by Batcher::Flush. `conn_id`,
/// `ticket` and `enqueued` are echoed from Submit; `score` is the model's
/// raw Score() value (bit-identical to offline ScoreAll over the same
/// batch), `model_version` the model that produced it.
struct ScoredRequest {
  uint64_t conn_id = 0;
  uint64_t ticket = 0;
  std::chrono::steady_clock::time_point enqueued;
  double score = 0.0;
  uint64_t model_version = 0;
};

/// Receives each scored batch, in submission order, as soon as it is
/// scored. It must not call Submit.
using BatchSink = std::function<void(const std::vector<ScoredRequest>&)>;

/// Dynamic batcher (DESIGN.md "Serving architecture"). It has no thread
/// of its own: the server's event loop Submit()s what one epoll round
/// read and then calls Flush(), which scores on the calling thread.
///
/// Submit() appends to a bounded pending queue. Flush() cuts the queue
/// into batches of at most batch_cap and drives the model's batched
/// ScoreAll on each (the cascade tier by default). Batching is
/// work-conserving: a batch is whatever was pending, cut at the cap, and
/// nothing is held for company, so batch size follows the load. Each
/// batch acquires one registry snapshot, so a hot-swap never splits a
/// batch across model versions.
///
/// Admission control: Submit() returns false (shed) when queue_cap
/// requests are already pending or the batcher is draining; callers map
/// that to StatusCode::kShed. Drain() closes admission and scores what is
/// pending, so accepted requests are always answered.
///
/// Determinism: a batch's scores are exactly model->ScoreAll(texts) for
/// the texts in submission order — the same whole-corpus path offline
/// scoring uses — so responses are bit-identical to an offline run over
/// the same batch composition.
///
/// Not thread-safe: one thread (the event loop) owns it.
class Batcher {
 public:
  /// The registry must outlive the batcher. `stats` is optional (may be
  /// null): scored requests are recorded into it. `replanner` is
  /// optional: it is polled once after every scored batch, which is what
  /// drives the online re-planning loop (serve/replanner.h), so detector
  /// steps interleave with batches deterministically.
  Batcher(const ModelRegistry* registry, TrafficStats* stats,
          BatchingOptions options, Replanner* replanner = nullptr);

  /// Queues a request. False = shed (queue full or draining); a shed
  /// request is never handed back.
  bool Submit(uint64_t conn_id, uint64_t ticket, std::string text);

  /// Scores every pending request, batch_cap at a time, on the calling
  /// thread, handing each batch to `sink` once it is scored.
  void Flush(const BatchSink& sink);

  /// Closes admission, then Flush(sink): the graceful drain's last batch.
  void Drain(const BatchSink& sink);

  /// Batches scored so far.
  uint64_t BatchCount() const { return batches_; }

  /// Requests shed by admission control so far.
  uint64_t ShedCount() const { return shed_; }

  const BatchingOptions& options() const { return options_; }

 private:
  struct Pending {
    uint64_t conn_id;
    uint64_t ticket;
    std::string text;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Scores pending_[begin, end) as one batch into `out`.
  void ScoreBatch(size_t begin, size_t end, std::vector<ScoredRequest>* out);

  const ModelRegistry* registry_;
  TrafficStats* stats_;
  Replanner* replanner_;
  const BatchingOptions options_;

  std::vector<Pending> pending_;
  bool draining_ = false;
  uint64_t batches_ = 0;
  uint64_t shed_ = 0;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_BATCHER_H_
