#include "serve/replanner.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/advisor.h"
#include "core/characteristics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::serve {

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

void AddReplanFlags(Flags* flags, ReplanOptions* options, std::string* pair) {
  flags->Bool("replan", &options->enabled, "enable online re-planning");
  flags->Number("replan-epoch", &options->epoch_records, 1, INT_MAX,
                "requests per sealed epoch");
  flags->Number("replan-window", &options->epoch_window, 1, INT_MAX,
                "sealed epochs the profile window aggregates");
  flags->Number("replan-dwell", &options->dwell_epochs, 1, INT_MAX,
                "consecutive epochs a new pair must win before the swap");
  flags->Number("replan-dirty", &options->dirty_threshold, 0.0, 1.0,
                "dirtiness score at the clean/dirty boundary");
  flags->Number("replan-dirty-band", &options->dirty_band, 0.0, 1.0,
                "dead band around --replan-dirty");
  flags->Number("replan-profile-records", &options->profile_records, 0,
                INT64_MAX, "corpus size pinned for the heat map; 0 = live");
  flags->Number("replan-profile-ratio", &options->profile_ratio, 0.0, 1.0,
                "positive ratio pinned for the heat map; 0 = live");
  flags->String("replan-pair", pair,
                "cascade pair hint 'S+D' for every re-planning decision");
  flags->String("spec-dir", &options->spec_dir,
                "where replan specs are written and kSwap names are read");
}

Replanner::Replanner(SwapSlot* slot, TrafficStats* stats,
                     ReplanOptions options)
    : slot_(slot), stats_(stats), options_(options.Resolved()) {}

void Replanner::SetIncumbent(const core::CascadePlan& plan) {
  incumbent_ = plan;
  incumbent_key_ = core::CascadePairName(plan);
  have_incumbent_ = true;
  candidate_key_.clear();
  dwell_ = 0;
}

void Replanner::AdoptIncumbentFromRegistry() {
  if (slot_ == nullptr) return;
  const auto servable = slot_->registry()->Acquire();
  if (servable == nullptr || servable->model == nullptr) return;
  const auto* cascade =
      dynamic_cast<const core::Cascade*>(servable->model.get());
  if (cascade != nullptr) {
    SetIncumbent(cascade->plan());
    return;
  }
  have_incumbent_ = false;
  incumbent_key_.clear();
  candidate_key_.clear();
  dwell_ = 0;
}

void Replanner::Poll() {
  if (!options_.enabled || stats_ == nullptr) return;
  const TrafficProfile profile = stats_->Profile();
  if (profile.total_epochs <= epochs_polled_) return;
  epochs_polled_ = profile.total_epochs;
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
    PublishGauges();
    return;
  }
  if (key == incumbent_key_) {
    dwell_ = 0;
    candidate_key_.clear();
    PublishGauges();
    return;
  }
  if (key != candidate_key_) {
    candidate_key_ = key;
    dwell_ = 1;
  } else {
    ++dwell_;
  }
  PublishGauges();
  if (dwell_ >= options_.dwell_epochs) Trigger(key, candidate);
}

void Replanner::Trigger(const std::string& key,
                        const core::CascadePlan& candidate) {
  if (slot_ != nullptr && slot_->busy()) {
    // A build is already running (a retrain or a kSwap); keep dwelling —
    // if the profile still wants this pair once it lands, the next epochs
    // re-trigger.
    ++suppressed_;
    SEMTAG_OBS_COUNT("serve/replan/suppressed", 1);
    return;
  }
  dwell_ = 0;
  candidate_key_.clear();
  if (slot_ == nullptr) {
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
  slot_->Start(path, [this, key](const Result<uint64_t>& version) {
    FinishSwap(key, version.ok());
  });
  PublishGauges();
}

void Replanner::FinishSwap(const std::string& key, bool ok) {
  if (ok) {
    ++swaps_;
    SEMTAG_OBS_COUNT("serve/replan/swaps", 1);
    AdoptIncumbentFromRegistry();
  } else {
    ++failures_;
    SEMTAG_OBS_COUNT("serve/replan/failures", 1);
    SEMTAG_LOG(kWarning, "replan swap to %s failed; keeping %s", key.c_str(),
               incumbent_key_.c_str());
  }
  PublishGauges();
}

void Replanner::PublishGauges() const {
  if (!obs::MetricsEnabled()) return;
  SEMTAG_OBS_GAUGE_SET("serve/replan/dwell", static_cast<double>(dwell_));
  SEMTAG_OBS_GAUGE_SET("serve/replan/dirty", dirty_ ? 1.0 : 0.0);
  SEMTAG_OBS_GAUGE_SET("serve/replan/in_flight",
                       slot_ != nullptr && slot_->busy() ? 1.0 : 0.0);
}

ReplanState Replanner::state() const {
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
  state.swap_in_flight = slot_ != nullptr && slot_->busy();
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
