#ifndef SEMTAG_SERVE_MODEL_REGISTRY_H_
#define SEMTAG_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/cancellation.h"
#include "common/status.h"
#include "models/model.h"

namespace semtag::serve {

/// Largest `records` a spec may ask for: 25x the largest built-in dataset
/// spec (BOOK, 36000), and far inside int range.
constexpr int kMaxSpecRecords = 1000000;

/// What a model-spec file asks the daemon to serve. Exactly one of
/// `dataset` (train from a synthetic spec) or `file` (load a persisted
/// LR/SVM checkpoint from `semtag train`) must be set.
struct ModelSpec {
  std::string model = "CASCADE";  // models::ModelKindName
  std::string dataset;            // data::FindSpec name, e.g. "HETER"
  std::string file;               // saved LR/SVM model path
  int records = 0;  // > 0 overrides spec.scaled_records; <= kMaxSpecRecords
  uint64_t seed = 0;
  /// Cascade pair pin: "auto", "simple", or "<S>+<D>" (split at the last
  /// '+'). Empty means auto. Ignored for non-CASCADE models.
  std::string cascade;
  double budget_pts = 0.5;  // cascade calibration budget
};

/// Writes `spec` as a CRC-sealed text file via the crash-safe
/// temp+fsync+rename path (common/file_io.h): the last line is
/// "crc <%08x>" over every preceding byte, and a reader never observes a
/// partial file — the swap protocol's integrity half.
Status WriteModelSpecFile(const std::string& path, const ModelSpec& spec);

/// Parses a spec file back, verifying the CRC seal. A truncated or
/// bit-flipped file is quarantined to "<path>.corrupt" and the previous
/// model keeps serving.
Result<ModelSpec> LoadModelSpecFile(const std::string& path);

/// An immutable trained model plus its registry version. Batches hold a
/// shared_ptr to one of these for their whole scoring pass, so a hot-swap
/// never pulls a model out from under an in-flight batch.
struct ServableModel {
  std::unique_ptr<models::TaggingModel> model;
  uint64_t version = 0;
  std::string source;  // human-readable provenance for /stats and logs
};

/// Builds (trains or loads) the model a spec describes. Training uses the
/// named synthetic dataset spec's train split at `spec.seed` — the same
/// data path the offline grid uses, so a served model is bit-identical to
/// its offline twin. `cancel` goes to the model's Train (a Cascade
/// forwards it to both tiers). A `file` spec loads the checkpoint
/// (models::LoadLinearModel) and refuses one whose family is not `model`.
Result<std::unique_ptr<models::TaggingModel>> BuildModelFromSpec(
    const ModelSpec& spec, CancellationToken cancel = {});

/// Holds the currently-served model behind a mutex-guarded shared_ptr.
/// (Not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic releases its
/// embedded spinlock with a relaxed RMW, which TSan flags as a race on
/// the pointer word. A plain mutex whose critical section is a pointer
/// copy is just as cheap at once-per-batch frequency and verifiably
/// clean under the repo's TSan lane.)
///
/// Hot-swap protocol (DESIGN.md "Serving architecture"):
///  1. the operator writes a CRC-sealed spec file (atomic rename) into the
///     replan spec dir;
///  2. a kSwap request names the file; the registry re-reads and verifies
///     it (corrupt -> quarantine, old model keeps serving);
///  3. the replacement trains/loads off the event loop, on the SwapSlot's
///     worker;
///  4. publication is a pointer flip under the mutex. Readers (batches)
///     that already hold the old shared_ptr finish on the old model; the
///     next batch sees the new one. No lock is ever held while scoring —
///     Acquire copies the pointer and releases the mutex immediately.
class ModelRegistry {
 public:
  /// Installs a ready model as the next version. Returns that version.
  uint64_t Install(std::unique_ptr<models::TaggingModel> model,
                   std::string source);

  /// Loads + verifies the spec file, builds the model, and flips it in.
  /// On any failure the current model keeps serving. A `stall` fault
  /// matching `path` sleeps before the load. Once `cancel` fires, training
  /// stops at its next step and nothing is flipped in: the result is the
  /// token's status.
  Result<uint64_t> SwapFromSpecFile(const std::string& path,
                                    CancellationToken cancel = {});

  /// The current model, or nullptr before the first Install. Holders keep
  /// the returned model alive across swaps.
  std::shared_ptr<const ServableModel> Acquire() const;

  /// Version of the current model (0 before the first Install).
  uint64_t version() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServableModel> current_;  // guarded by mu_
  std::atomic<uint64_t> next_version_{1};
};

/// The one off-loop model build a server runs at a time, shared by kSwap
/// and the re-planner. Start() runs registry->SwapFromSpecFile on the
/// slot's worker thread and calls `wake` there when the build ends; the
/// owner then calls Finish(), which joins the worker and runs the build's
/// `done` on the owner's thread. Start, Finish and busy belong to one
/// thread (the server's event loop); the worker touches only the registry
/// and the build's result, which Finish reads after the join.
class SwapSlot {
 public:
  using Done = std::function<void(const Result<uint64_t>& version)>;

  /// `registry` must outlive the slot. `wake` may be empty.
  explicit SwapSlot(ModelRegistry* registry,
                    std::function<void()> wake = nullptr);
  /// Cancels and joins a build still in flight without running its `done`.
  ~SwapSlot();
  SwapSlot(const SwapSlot&) = delete;
  SwapSlot& operator=(const SwapSlot&) = delete;

  /// Starts building the spec at `path`; false while a build is in flight.
  bool Start(const std::string& path, Done done);

  /// Joins the build in flight, waiting for it to end, and runs its
  /// `done`. No-op when the slot is idle.
  void Finish();

  /// Cancels the build in flight, so the next Finish() waits only until
  /// the build notices (the current training step, or a stall) and `done`
  /// sees a Cancelled status with the registry unchanged. No-op when idle.
  void Cancel() { cancel_.Cancel(); }

  /// True from a successful Start until the Finish that joins it.
  bool busy() const { return worker_.joinable(); }

  ModelRegistry* registry() const { return registry_; }

 private:
  ModelRegistry* registry_;
  const std::function<void()> wake_;
  Done done_;
  CancellationToken cancel_;  // the build in flight's
  std::optional<Result<uint64_t>> result_;  // the worker's, until Finish
  std::thread worker_;  // last: it uses the members above
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_MODEL_REGISTRY_H_
