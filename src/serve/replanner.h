#ifndef SEMTAG_SERVE_REPLANNER_H_
#define SEMTAG_SERVE_REPLANNER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "core/cascade.h"
#include "serve/model_registry.h"
#include "serve/traffic_stats.h"

namespace semtag {
class Flags;
}

namespace semtag::serve {

/// Settings of the online re-planning loop: semtag_serve's --replan and
/// --replan-* flags, plus the --budget, dataset and seed the daemon
/// trained from. The initializers are the defaults.
struct ReplanOptions {
  bool enabled = false;

  /// Logical-epoch geometry: how many requests seal one epoch (0 = only
  /// explicit TrafficStats::AdvanceEpoch calls) and how many sealed
  /// epochs the profile window aggregates.
  int epoch_records = 256;
  int epoch_window = 8;

  /// Hysteresis. The candidate pair must stay the winner for
  /// `dwell_epochs` consecutive epochs before a swap fires, and
  /// `margin_pts` (F1 points) biases the plan toward the incumbent at
  /// the heat-map cell edge (PlanCascadeBiased).
  int dwell_epochs = 3;
  double margin_pts = 0.25;

  /// Cleanliness detector: the profile flips dirty when the TrafficStats
  /// dirtiness score exceeds threshold+band and clean again only below
  /// threshold-band — the band half of the hysteresis.
  double dirty_threshold = 0.25;
  double dirty_band = 0.10;

  /// Planner configuration (pair hints, budget) used for every
  /// re-planning decision; `cascade.seed` also seeds retrained models.
  core::CascadeOptions cascade;

  /// Heat-map profile pins. The live stream measures dirtiness well but
  /// its window count is not the deployment's corpus size, and its
  /// positive ratio is the served model's own prediction — operators pin
  /// these two axes to the deployment's known scale (0 = use the live
  /// value anyway).
  int64_t profile_records = 0;
  double profile_ratio = 0.0;

  /// Retraining source: the dataset spec (+ record override) the daemon
  /// was started from. Emitted verbatim into replan spec files so the
  /// swapped model is bit-identical to an offline build of the same spec.
  std::string dataset;
  int records = 0;

  /// Where replan_<n>.spec files are written.
  std::string spec_dir = ".";

  /// Train and swap on the calling thread instead of the worker (tests:
  /// deterministic interleaving with the batcher's wave schedule).
  bool synchronous = false;

  /// This instance with invalid fields clamped to sane minimums.
  ReplanOptions Resolved() const;
};

/// Declares semtag_serve's re-planning flags on `flags`: --replan and the
/// --replan-* geometry, bound to `options`, and --spec-dir. The
/// --replan-pair text lands in `pair`; the caller parses it
/// (core::ParseCascadePair) into options->cascade after Flags::Parse.
void AddReplanFlags(Flags* flags, ReplanOptions* options, std::string* pair);

/// Observable state of the loop (kStats "replan" object, tests).
struct ReplanState {
  bool enabled = false;
  uint64_t epochs = 0;      // detector steps taken
  int dwell = 0;            // consecutive epochs the candidate has won
  bool dirty = false;       // cleanliness detector state
  double dirtiness = 0.0;   // last observed dirtiness score
  std::string incumbent;    // pair currently credited as serving
  std::string candidate;    // pair currently accumulating dwell ("" = none)
  uint64_t swaps = 0;       // successful re-plan swaps
  uint64_t suppressed = 0;  // triggers skipped because a swap was in flight
  uint64_t failures = 0;    // spec-write or swap failures (old model kept)
  bool swap_in_flight = false;
};

/// Closes the paper's loop online (DESIGN.md "Online re-planning"): maps
/// the live TrafficStats profile — size, positive ratio, and the
/// streaming cleanliness proxy — onto the reproduced heat map through
/// the PR-8 planner, and when the profile crosses a cell boundary and
/// STAYS there (dwell-count + margin hysteresis, so the pair never
/// flaps) retrains the newly-planned cascade off-loop and hot-swaps it
/// through ModelRegistry::SwapFromSpecFile. The swap path reuses the
/// PR-8 calibrator via BuildModelFromSpec, so the pinned accuracy budget
/// survives every swap, and the spec file on disk makes each decision
/// reproducible offline.
///
/// Driven by Batcher::Poll after each scored batch: one detector Step()
/// per newly sealed logical epoch, so the cadence is wall-clock-free and
/// bit-identical across thread counts. A null registry runs the detector
/// dry (unit tests): triggers commit the candidate immediately without
/// training anything.
class Replanner {
 public:
  /// `registry` may be null (dry-run detector). `stats` must outlive the
  /// replanner; it is only read (Profile), never advanced — the batcher
  /// owns epoch rotation.
  Replanner(ModelRegistry* registry, TrafficStats* stats,
            ReplanOptions options);
  ~Replanner();

  /// Adopts the currently-registered model's cascade plan as the
  /// incumbent (no-op for non-cascade models: the first Step adopts its
  /// own plan instead). Call after the initial Install.
  void AdoptIncumbentFromRegistry();
  void SetIncumbent(const core::CascadePlan& plan);

  /// Cheap check from the batcher thread: runs one Step per newly sealed
  /// epoch since the last poll. No-op while disabled.
  void Poll();

  /// One detector step against an explicit profile (the unit-test entry;
  /// Poll feeds it the live one). Thread-safe.
  void Step(const TrafficProfile& profile);

  /// Blocks until no swap is in flight (tests / drain).
  void WaitIdle();

  ReplanState state() const;

  /// The kStats "replan" object, one line, stable key order.
  std::string StateJson() const;

  const ReplanOptions& options() const { return options_; }

 private:
  void TriggerLocked(const std::string& key,
                     const core::CascadePlan& candidate,
                     std::unique_lock<std::mutex>& lock);
  void CommitSwapLocked(const std::string& key,
                        const core::CascadePlan& candidate, bool ok);
  void PublishGaugesLocked() const;

  ModelRegistry* registry_;
  TrafficStats* stats_;
  const ReplanOptions options_;

  mutable std::mutex mu_;
  mutable std::condition_variable idle_cv_;
  uint64_t epochs_polled_ = 0;  // TrafficStats.total_epochs already seen
  uint64_t steps_ = 0;
  bool dirty_ = false;
  double last_dirtiness_ = 0.0;
  bool have_incumbent_ = false;
  core::CascadePlan incumbent_;
  std::string incumbent_key_;
  std::string candidate_key_;
  int dwell_ = 0;
  uint64_t swaps_ = 0;
  uint64_t suppressed_ = 0;
  uint64_t failures_ = 0;
  bool swap_in_flight_ = false;
  std::thread worker_;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_REPLANNER_H_
