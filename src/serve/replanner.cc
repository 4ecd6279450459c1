#include "serve/replanner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "config/runtime_config.h"
#include "core/advisor.h"
#include "core/characteristics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::serve {

namespace {

/// Copies the SEMTAG_REPLAN_* geometry, pins, pair hint and spec dir of
/// `config` into `options`. A pair naming unknown models warns and keeps
/// the options' pair.
void ApplyReplanKnobs(const RuntimeConfig& config, ReplanOptions* options) {
  options->epoch_records = config.replan_epoch;
  options->epoch_window = config.replan_window;
  options->dwell_epochs = config.replan_dwell;
  options->margin_pts = config.replan_margin_pts;
  options->dirty_threshold = config.replan_dirty_threshold;
  options->dirty_band = config.replan_dirty_band;
  options->profile_records = config.replan_profile_records;
  options->profile_ratio = config.replan_profile_ratio;
  options->spec_dir = config.replan_dir;
  if (!config.replan_pair.empty()) {
    // The pair hint pins which families the planner may deploy; auto_pair
    // stays on so the clean/dirty front-end flip still applies.
    const Status st = core::ParseCascadePair(
        config.replan_pair, &options->cascade.simple, &options->cascade.deep);
    if (!st.ok()) {
      SEMTAG_LOG(kWarning, "SEMTAG_REPLAN_PAIR='%s': %s; keeping the defaults",
                 config.replan_pair.c_str(), st.ToString().c_str());
    }
  }
}

}  // namespace

ReplanOptions::ReplanOptions() {
  static const RuntimeConfig defaults = ParseRuntimeConfig({});
  ApplyReplanKnobs(defaults, this);
}

ReplanOptions ReplanOptions::Resolved() const {
  ReplanOptions resolved = *this;
  resolved.epoch_records = std::max(resolved.epoch_records, 0);
  resolved.epoch_window = std::max(resolved.epoch_window, 1);
  resolved.dwell_epochs = std::max(resolved.dwell_epochs, 1);
  resolved.margin_pts = std::max(resolved.margin_pts, 0.0);
  resolved.dirty_threshold =
      std::clamp(resolved.dirty_threshold, 0.0, 1.0);
  resolved.dirty_band = std::clamp(
      resolved.dirty_band, 0.0, resolved.dirty_threshold);
  resolved.profile_records = std::max<int64_t>(resolved.profile_records, 0);
  resolved.profile_ratio = std::clamp(resolved.profile_ratio, 0.0, 1.0);
  if (resolved.spec_dir.empty()) resolved.spec_dir = ".";
  return resolved;
}

ReplanOptions ReplanOptionsFromConfig(ReplanOptions base) {
  ApplyReplanKnobs(GetRuntimeConfig(), &base);
  return base;
}

Replanner::Replanner(ModelRegistry* registry, TrafficStats* stats,
                     ReplanOptions options)
    : registry_(registry), stats_(stats), options_(options.Resolved()) {}

Replanner::~Replanner() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker.swap(worker_);
  }
  if (worker.joinable()) worker.join();
}

void Replanner::SetIncumbent(const core::CascadePlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  incumbent_ = plan;
  incumbent_key_ = core::CascadePairName(plan);
  have_incumbent_ = true;
  candidate_key_.clear();
  dwell_ = 0;
}

void Replanner::AdoptIncumbentFromRegistry() {
  if (registry_ == nullptr) return;
  const auto servable = registry_->Acquire();
  if (servable == nullptr || servable->model == nullptr) return;
  const auto* cascade =
      dynamic_cast<const core::Cascade*>(servable->model.get());
  if (cascade == nullptr) return;
  SetIncumbent(cascade->plan());
}

void Replanner::Poll() {
  if (!options_.enabled || stats_ == nullptr) return;
  const TrafficProfile profile = stats_->Profile();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (profile.total_epochs <= epochs_polled_) return;
    epochs_polled_ = profile.total_epochs;
  }
  Step(profile);
}

void Replanner::Step(const TrafficProfile& profile) {
  if (!options_.enabled) return;
  obs::TraceSpan span("serve/replan/step");
  SEMTAG_OBS_COUNT("serve/replan/epochs", 1);
  if (obs::MetricsEnabled()) {
    SEMTAG_OBS_OBSERVE("serve/replan/dirtiness", obs::UnitFractionBuckets(),
                       profile.dirtiness);
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++steps_;
  last_dirtiness_ = profile.dirtiness;
  // Cleanliness detector with a dead band: flip dirty only above
  // threshold+band, back to clean only below threshold-band. Inside the
  // band the previous state holds, so a score oscillating on the
  // threshold cannot oscillate the label.
  if (!dirty_) {
    if (profile.dirtiness > options_.dirty_threshold + options_.dirty_band) {
      dirty_ = true;
    }
  } else if (profile.dirtiness <
             options_.dirty_threshold - options_.dirty_band) {
    dirty_ = false;
  }

  core::DatasetProfile dp;
  dp.num_records = options_.profile_records > 0
                       ? options_.profile_records
                       : static_cast<int64_t>(
                             std::max<uint64_t>(profile.total, 1));
  dp.positive_ratio = options_.profile_ratio > 0.0 ? options_.profile_ratio
                                                   : profile.positive_ratio;
  dp.vocab_size = static_cast<int64_t>(profile.vocab_size);
  dp.labels_clean = !dirty_;

  const core::CascadePlan candidate = core::PlanCascadeBiased(
      dp, core::PaperHeatMap(), options_.cascade,
      have_incumbent_ ? &incumbent_ : nullptr, options_.margin_pts);
  const std::string key = core::CascadePairName(candidate);
  if (!have_incumbent_) {
    // Nothing credited yet (non-cascade model): adopt without swapping —
    // the loop re-plans relative to this baseline from here on.
    incumbent_ = candidate;
    incumbent_key_ = key;
    have_incumbent_ = true;
    PublishGaugesLocked();
    return;
  }
  if (key == incumbent_key_) {
    dwell_ = 0;
    candidate_key_.clear();
    PublishGaugesLocked();
    return;
  }
  if (key != candidate_key_) {
    candidate_key_ = key;
    dwell_ = 1;
  } else {
    ++dwell_;
  }
  PublishGaugesLocked();
  if (dwell_ >= options_.dwell_epochs) {
    TriggerLocked(key, candidate, lock);
  }
}

void Replanner::TriggerLocked(const std::string& key,
                              const core::CascadePlan& candidate,
                              std::unique_lock<std::mutex>& lock) {
  if (swap_in_flight_) {
    // A retrain is already running; keep dwelling — if the profile still
    // wants this pair once the swap lands, the next epochs re-trigger.
    ++suppressed_;
    SEMTAG_OBS_COUNT("serve/replan/suppressed", 1);
    return;
  }
  dwell_ = 0;
  candidate_key_.clear();
  if (registry_ == nullptr) {
    // Dry-run detector (unit tests): commit the decision without training.
    incumbent_ = candidate;
    incumbent_key_ = key;
    ++swaps_;
    SEMTAG_OBS_COUNT("serve/replan/swaps", 1);
    return;
  }
  ModelSpec spec;
  spec.model = "CASCADE";
  spec.dataset = options_.dataset;
  spec.records = options_.records;
  spec.seed = options_.cascade.seed;
  spec.cascade = key;
  spec.budget_pts = options_.cascade.budget_pts;
  const std::string path = StrFormat(
      "%s/replan_%llu.spec", options_.spec_dir.c_str(),
      static_cast<unsigned long long>(swaps_ + failures_ + 1));
  const Status st = WriteModelSpecFile(path, spec);
  if (!st.ok()) {
    ++failures_;
    SEMTAG_OBS_COUNT("serve/replan/failures", 1);
    SEMTAG_LOG(kWarning, "replan spec write failed (%s); keeping %s",
               st.ToString().c_str(), incumbent_key_.c_str());
    return;
  }
  SEMTAG_LOG(kInfo, "replan: %s -> %s (dirty=%d, spec %s)",
             incumbent_key_.c_str(), key.c_str(), dirty_ ? 1 : 0,
             path.c_str());
  swap_in_flight_ = true;
  if (options_.synchronous) {
    // Train on the calling thread. The registry serves the old model the
    // whole time; only the pointer flip inside SwapFromSpecFile is
    // synchronized, so dropping our lock here is safe.
    lock.unlock();
    const auto version = [&] {
      obs::TraceSpan swap_span("serve/replan/swap");
      return registry_->SwapFromSpecFile(path);
    }();
    lock.lock();
    CommitSwapLocked(key, candidate, version.ok());
    return;
  }
  if (worker_.joinable()) worker_.join();  // previous swap fully committed
  worker_ = std::thread([this, path, key, candidate] {
    obs::TraceSpan swap_span("serve/replan/swap");
    const auto version = registry_->SwapFromSpecFile(path);
    std::lock_guard<std::mutex> worker_lock(mu_);
    CommitSwapLocked(key, candidate, version.ok());
  });
}

void Replanner::CommitSwapLocked(const std::string& key,
                                 const core::CascadePlan& candidate,
                                 bool ok) {
  swap_in_flight_ = false;
  if (ok) {
    incumbent_ = candidate;
    incumbent_key_ = key;
    ++swaps_;
    SEMTAG_OBS_COUNT("serve/replan/swaps", 1);
  } else {
    ++failures_;
    SEMTAG_OBS_COUNT("serve/replan/failures", 1);
    SEMTAG_LOG(kWarning, "replan swap to %s failed; keeping %s", key.c_str(),
               incumbent_key_.c_str());
  }
  PublishGaugesLocked();
  idle_cv_.notify_all();
}

void Replanner::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !swap_in_flight_; });
}

void Replanner::PublishGaugesLocked() const {
  if (!obs::MetricsEnabled()) return;
  SEMTAG_OBS_GAUGE_SET("serve/replan/dwell", static_cast<double>(dwell_));
  SEMTAG_OBS_GAUGE_SET("serve/replan/dirty", dirty_ ? 1.0 : 0.0);
  SEMTAG_OBS_GAUGE_SET("serve/replan/in_flight",
                       swap_in_flight_ ? 1.0 : 0.0);
}

ReplanState Replanner::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplanState state;
  state.enabled = options_.enabled;
  state.epochs = steps_;
  state.dwell = dwell_;
  state.dirty = dirty_;
  state.dirtiness = last_dirtiness_;
  state.incumbent = incumbent_key_;
  state.candidate = candidate_key_;
  state.swaps = swaps_;
  state.suppressed = suppressed_;
  state.failures = failures_;
  state.swap_in_flight = swap_in_flight_;
  return state;
}

std::string Replanner::StateJson() const {
  const ReplanState s = state();
  return StrFormat(
      "{\"enabled\": %s, \"epochs\": %llu, \"dwell\": %d, \"dirty\": %s, "
      "\"dirtiness\": %.17g, \"incumbent\": \"%s\", \"candidate\": \"%s\", "
      "\"swaps\": %llu, \"suppressed\": %llu, \"failures\": %llu, "
      "\"in_flight\": %s}",
      s.enabled ? "true" : "false",
      static_cast<unsigned long long>(s.epochs), s.dwell,
      s.dirty ? "true" : "false", s.dirtiness, s.incumbent.c_str(),
      s.candidate.c_str(), static_cast<unsigned long long>(s.swaps),
      static_cast<unsigned long long>(s.suppressed),
      static_cast<unsigned long long>(s.failures),
      s.swap_in_flight ? "true" : "false");
}

}  // namespace semtag::serve
