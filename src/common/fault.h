#ifndef SEMTAG_COMMON_FAULT_H_
#define SEMTAG_COMMON_FAULT_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace semtag {

/// Fault-injection points wired through the library so every recovery path
/// (crash-safe writes, corrupt-read quarantine, divergence retry, cell
/// deadlines) is testable without real hardware faults. Injection is off
/// unless armed via $SEMTAG_FAULT or SetFaultsFromSpec(); a probe at an
/// unarmed point is a single relaxed atomic load.
enum class FaultPoint {
  kWriteFail,       // fail a file write (atomic writes report IoError)
  kReadCorrupt,     // flip a byte in freshly read file content
  kNonFiniteLoss,   // make a training step observe a NaN loss
  kNonFiniteGrad,   // poison gradients with NaN before the optimizer step
  kStall,           // sleep `ms` at a grid cell / training step / swap
  kCrash,           // _exit(137) immediately (simulates kill -9)
};

inline constexpr int kNumFaultPoints = 6;

/// Name used in SEMTAG_FAULT specs: write_fail, read_corrupt, nan_loss,
/// nan_grad, stall, crash.
const char* FaultPointName(FaultPoint point);

/// One armed fault. Parsed from a spec entry of the form
///   <point>[:match=<substr>][:after=<n>][:count=<n>][:every=<n>][:ms=<n>]
/// where
///   match  only probes whose context contains <substr> are eligible
///   after  skip the first <n> eligible probes
///   count  trigger at most <n> times (default: unlimited)
///   every  trigger every <n>-th eligible probe (default: every one)
///   ms     sleep duration for `stall` (default 100)
/// Entries are separated by ';', e.g.
///   SEMTAG_FAULT="write_fail:match=results:after=1;nan_grad:match=LSTM:count=2"
struct FaultSpec {
  FaultPoint point = FaultPoint::kWriteFail;
  std::string match;   // empty: matches every context
  int after = 0;       // eligible probes to skip before the first trigger
  int count = -1;      // max triggers; -1 = unlimited
  int every = 1;       // trigger every Nth eligible probe
  int ms = 100;        // stall duration
};

/// Parses one spec entry (see FaultSpec). Returns InvalidArgument on an
/// unknown point name or malformed key=value field.
Result<FaultSpec> ParseFaultSpec(std::string_view entry);

/// Replaces all armed faults with the ';'-separated spec string (empty
/// clears). Invalid entries are reported and nothing is armed.
Status SetFaultsFromSpec(std::string_view spec);

/// Programmatically arms one additional fault.
void InjectFault(const FaultSpec& spec);

/// Disarms every fault and resets trigger counters.
void ClearFaults();

/// Probes a fault point. Returns true when an armed spec matching `context`
/// decides to trigger; kStall additionally sleeps its `ms` before
/// returning. The registry initializes itself from $SEMTAG_FAULT on the
/// first probe. Thread-safe.
bool FaultInjected(FaultPoint point, std::string_view context);

/// Total triggers of a point since the last ClearFaults/SetFaults (test
/// assertions).
int FaultTriggerCount(FaultPoint point);

}  // namespace semtag

#endif  // SEMTAG_COMMON_FAULT_H_
