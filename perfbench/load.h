// Daemon control and the single-threaded load client of the repository
// benchmark (perfbench.cc). The client speaks serve/protocol.h over one
// TCP connection and checks every response against an in-process
// reference before counting it.

#ifndef SEMTAG_PERFBENCH_LOAD_H_
#define SEMTAG_PERFBENCH_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace semtag::perfbench {

/// On-CPU seconds of the live threads of process `pid` so far, or a
/// negative value when they cannot be read.
double ProcessCpuSeconds(pid_t pid);

/// vCPU time the hypervisor stole from this host so far, summed over
/// vCPUs (/proc/stat "steal"). Wall-clock timings inflate while it grows.
double HostStealSeconds();

/// Peak resident set (VmHWM) of `pid` in MB, or a negative value.
double ProcessPeakRssMb(pid_t pid);

/// A semtag_serve child process. Spawn() blocks until the daemon prints
/// its "listening on port N" line; the destructor kills and reaps a
/// daemon that was not stopped, so no child outlives the benchmark.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary args...` with stderr appended to `log_path`. Returns
  /// false when the daemon exits or stays silent for `timeout_s`.
  bool Spawn(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, double timeout_s);

  /// Seconds from fork to the "listening" line.
  double setup_seconds() const { return setup_s_; }
  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  /// SIGTERM (graceful drain) and reap. Returns the exit code, or -1 when
  /// the daemon died of a signal or did not exit within `timeout_s`.
  int Stop(double timeout_s = 30.0);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int out_fd_ = -1;
  double setup_s_ = 0.0;
};

/// Labelled request texts plus the reference scores the daemon must
/// reproduce bit for bit, and the running tally of checked responses.
struct Verifier {
  std::vector<std::string> texts;
  std::vector<int> labels;
  std::vector<double> reference;  // in-process ScoreAll of the same spec
  double decision_threshold = 0.5;
  uint64_t expected_version = 1;

  uint64_t verified = 0;
  uint64_t mismatches = 0;  // wrong ticket, version or score bits
  uint64_t tp = 0, fp = 0, fn = 0;
  std::string first_error;

  /// Checks one kOk payload for the request sent from pool index `index`
  /// with ticket `ticket`. Returns false on any mismatch.
  bool Check(uint64_t ticket, size_t index, const std::string& payload);
  double F1() const;
};

/// Counts and timings of one load phase. Shed and failed requests count
/// as misses; latencies hold only verified responses.
struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> latencies_us;
  /// Open loop only: how late each request left relative to its due time.
  std::vector<double> lateness_us;
  /// Closed loop only, per slice: completed requests per second and daemon
  /// CPU microseconds per completed request.
  std::vector<double> slice_qps;
  std::vector<double> slice_cpu_us;
};

/// Closed loop: `window` requests in flight on one connection for
/// `seconds`, then drains. Every `slice_s` the completed count and the
/// daemon's CPU time are sampled into per-slice rates. False on a
/// connection or protocol failure.
bool RunClosedLoop(int port, pid_t daemon_pid, int window, double seconds,
                   double slice_s, uint64_t* next_ticket, Verifier* verifier,
                   PhaseStats* stats);

/// Open loop: sends at `rate` requests per second on a fixed schedule for
/// `seconds`, whatever the replies do; each latency runs from the
/// request's due time. False on a connection or protocol failure.
bool RunOpenLoop(int port, double rate, double seconds,
                 uint64_t* next_ticket, Verifier* verifier,
                 PhaseStats* stats);

/// Returns the value at quantile q of `values` (nearest rank), 0 if empty.
double Quantile(std::vector<double> values, double q);

}  // namespace semtag::perfbench

#endif  // SEMTAG_PERFBENCH_LOAD_H_
