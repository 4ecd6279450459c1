#include "serve/batcher.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replanner.h"

namespace semtag::serve {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  int64_t v = 0;
  if (!ParseInt64(env, &v)) {
    SEMTAG_LOG(kWarning, "%s: not an integer: %s (using %d)", name, env,
               fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

}  // namespace

BatchingOptions BatchingOptions::Resolved() const {
  BatchingOptions r = *this;
  r.batch_cap = std::max(r.batch_cap, 1);
  r.queue_cap = std::max(r.queue_cap, 1);
  return r;
}

BatchingOptions BatchingOptionsFromEnv() {
  BatchingOptions options;
  options.batch_cap = EnvInt("SEMTAG_SERVE_BATCH_CAP", options.batch_cap);
  options.queue_cap = EnvInt("SEMTAG_SERVE_QUEUE_CAP", options.queue_cap);
  return options.Resolved();
}

Batcher::Batcher(const ModelRegistry* registry, TrafficStats* stats,
                 BatchingOptions options, Replanner* replanner)
    : registry_(registry),
      stats_(stats),
      replanner_(replanner),
      options_(options.Resolved()) {}

Batcher::~Batcher() { Stop(); }

void Batcher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { RunScheduler(); });
}

bool Batcher::Submit(std::string text, ScoreCallback done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ ||
        queue_.size() >= static_cast<size_t>(options_.queue_cap)) {
      ++shed_;
      SEMTAG_OBS_COUNT("serve/requests_shed", 1);
      return false;
    }
    queue_.push_back(Pending{std::move(text), std::move(done),
                             std::chrono::steady_clock::now()});
  }
  cv_.notify_one();
  return true;
}

void Batcher::Stop() {
  std::thread joinee;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    joinee = std::move(thread_);
  }
  cv_.notify_all();
  if (joinee.joinable()) joinee.join();
}

size_t Batcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t Batcher::BatchCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

uint64_t Batcher::ShedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

std::deque<Batcher::Pending> Batcher::TakeBatchLocked() {
  std::deque<Pending> batch;
  const size_t n =
      std::min(queue_.size(), static_cast<size_t>(options_.batch_cap));
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void Batcher::RunScheduler() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Sleep until work arrives (an idle thread burns no CPU), then score
    // whatever is queued at once, up to batch_cap: work-conserving.
    cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
    if (queue_.empty()) return;  // draining and fully flushed
    SEMTAG_OBS_OBSERVE("serve/queue_depth_at_flush", obs::DepthBuckets(),
                       static_cast<double>(queue_.size()));
    std::deque<Pending> batch = TakeBatchLocked();
    const auto dequeued = std::chrono::steady_clock::now();
    ++batches_;
    lock.unlock();
    ScoreBatch(std::move(batch), dequeued);
    lock.lock();
  }
}

void Batcher::ScoreBatch(std::deque<Pending> batch,
                         std::chrono::steady_clock::time_point dequeued) {
  obs::TraceSpan span("serve/batch");
  std::vector<std::string> texts;
  texts.reserve(batch.size());
  for (const Pending& p : batch) texts.push_back(p.text);

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
                     static_cast<double>(batch.size()));
  SEMTAG_OBS_OBSERVE("serve/batch_score_us", obs::ServeLatencyBucketsUs(),
                     batch_us);

  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    ScoredRequest result;
    if (i < scores.size()) {
      result.score = scores[i];
      result.probability =
          servable->model->ProbabilityFromScore(scores[i]);
      result.model_version = servable->version;
    }
    if (stats_ != nullptr) {
      stats_->Record(std::string_view(batch[i].text), result.probability);
    }
    SEMTAG_OBS_COUNT("serve/requests_scored", 1);
    // queue_delay_us ends when the batch is cut; queue_wait_us also
    // includes this batch's ScoreAll (`now` is read after scoring).
    using Us = std::chrono::duration<double, std::micro>;
    SEMTAG_OBS_OBSERVE("serve/queue_delay_us", obs::ServeLatencyBucketsUs(),
                       Us(dequeued - batch[i].enqueued).count());
    SEMTAG_OBS_OBSERVE("serve/queue_wait_us", obs::ServeLatencyBucketsUs(),
                       Us(now - batch[i].enqueued).count());
    if (batch[i].done) batch[i].done(result);
  }
  if (stats_ != nullptr) stats_->PublishGauges();
  // Drive the re-planning loop from here: the detector only ever runs
  // between batches on this thread, so a triggered synchronous swap can
  // never split a batch across model versions.
  if (replanner_ != nullptr) replanner_->Poll();
}

}  // namespace semtag::serve
