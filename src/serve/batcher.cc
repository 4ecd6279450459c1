#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replanner.h"

namespace semtag::serve {

BatchingOptions BatchingOptions::Resolved() const {
  BatchingOptions r = *this;
  r.batch_cap = std::max(r.batch_cap, 1);
  r.queue_cap = std::max(r.queue_cap, 1);
  return r;
}

Batcher::Batcher(const ModelRegistry* registry, TrafficStats* stats,
                 BatchingOptions options, Replanner* replanner)
    : registry_(registry),
      stats_(stats),
      replanner_(replanner),
      options_(options.Resolved()) {}

bool Batcher::Submit(uint64_t conn_id, uint64_t ticket, std::string text) {
  if (draining_ || pending_.size() >= static_cast<size_t>(options_.queue_cap)) {
    ++shed_;
    SEMTAG_OBS_COUNT("serve/requests_shed", 1);
    return false;
  }
  pending_.push_back(Pending{conn_id, ticket, std::move(text),
                             std::chrono::steady_clock::now()});
  return true;
}

void Batcher::Flush(const BatchSink& sink) {
  if (pending_.empty()) return;
  SEMTAG_OBS_OBSERVE("serve/queue_depth_at_flush", obs::DepthBuckets(),
                     static_cast<double>(pending_.size()));
  const size_t cap = static_cast<size_t>(options_.batch_cap);
  std::vector<ScoredRequest> scored;
  for (size_t begin = 0; begin < pending_.size(); begin += cap) {
    ScoreBatch(begin, std::min(begin + cap, pending_.size()), &scored);
    sink(scored);
  }
  pending_.clear();
}

void Batcher::Drain(const BatchSink& sink) {
  draining_ = true;
  Flush(sink);
}

void Batcher::ScoreBatch(size_t begin, size_t end,
                         std::vector<ScoredRequest>* out) {
  obs::TraceSpan span("serve/batch");
  const auto dequeued = std::chrono::steady_clock::now();
  ++batches_;
  std::vector<std::string> texts;
  texts.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    texts.push_back(std::move(pending_[i].text));
  }

  const std::shared_ptr<const ServableModel> servable =
      registry_ == nullptr ? nullptr : registry_->Acquire();
  WallTimer timer;
  std::vector<double> scores;
  if (servable != nullptr && servable->model != nullptr) {
    scores = servable->model->ScoreAll(texts);
  }
  const double batch_us = timer.ElapsedSeconds() * 1e6;

  SEMTAG_OBS_COUNT("serve/batches", 1);
  SEMTAG_OBS_OBSERVE("serve/batch_size", obs::DepthBuckets(),
                     static_cast<double>(texts.size()));
  SEMTAG_OBS_OBSERVE("serve/batch_score_us", obs::ServeLatencyBucketsUs(),
                     batch_us);

  const auto now = std::chrono::steady_clock::now();
  out->clear();
  for (size_t i = 0; i < texts.size(); ++i) {
    const Pending& p = pending_[begin + i];
    ScoredRequest result{p.conn_id, p.ticket, p.enqueued};
    double probability = 0.0;
    if (i < scores.size()) {
      result.score = scores[i];
      result.model_version = servable->version;
      probability = servable->model->ProbabilityFromScore(scores[i]);
    }
    if (stats_ != nullptr) {
      stats_->Record(std::string_view(texts[i]), probability);
    }
    SEMTAG_OBS_COUNT("serve/requests_scored", 1);
    // queue_delay_us ends when the batch is cut; queue_wait_us also
    // includes this batch's ScoreAll (`now` is read after scoring).
    using Us = std::chrono::duration<double, std::micro>;
    SEMTAG_OBS_OBSERVE("serve/queue_delay_us", obs::ServeLatencyBucketsUs(),
                       Us(dequeued - p.enqueued).count());
    SEMTAG_OBS_OBSERVE("serve/queue_wait_us", obs::ServeLatencyBucketsUs(),
                       Us(now - p.enqueued).count());
    out->push_back(result);
  }
  if (stats_ != nullptr) stats_->PublishGauges();
  // Drive the re-planning loop from here: the detector only ever runs
  // between batches, and each batch holds one registry snapshot, so a
  // triggered swap can never split a batch across model versions.
  if (replanner_ != nullptr) replanner_->Poll();
}

}  // namespace semtag::serve
