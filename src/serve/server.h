#ifndef SEMTAG_SERVE_SERVER_H_
#define SEMTAG_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/replanner.h"
#include "serve/traffic_stats.h"

namespace semtag::serve {

struct ServerOptions {
  /// Bind address. The daemon is an internal service; default loopback.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (tests/benches read it back via port()).
  int port = 0;
  BatchingOptions batching;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 1024;
  /// Online re-planning loop (serve/replanner.h). Its epoch geometry
  /// (epoch_records/epoch_window) always shapes TrafficStats, so the
  /// profile gauges work even with the loop disabled.
  ReplanOptions replan;
  /// Watch the process ShutdownSignal self-pipe (common/signal.h) and
  /// drain gracefully on SIGINT/SIGTERM. The daemon sets this; tests
  /// drive Stop() directly instead.
  bool watch_signals = false;
};

/// Counters the server accumulates outside the obs registry (always on,
/// cheap), surfaced by kStats and the drain summary.
struct ServerCounters {
  uint64_t accepted = 0;
  uint64_t rejected_connections = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t protocol_errors = 0;
  uint64_t swaps_ok = 0;
  uint64_t swaps_failed = 0;
};

/// The online tagging daemon's front end (DESIGN.md "Serving
/// architecture"): a single-threaded epoll event loop over non-blocking
/// sockets speaking the length-prefixed protocol (serve/protocol.h),
/// feeding the dynamic batcher (serve/batcher.h) and serving scores from
/// the hot-swappable registry (serve/model_registry.h).
///
/// Threads: the event loop owns all connection state and scores run to
/// completion on it. After each epoll round it flushes the batcher and
/// writes every batch's responses as soon as that batch is scored. Model
/// builds run on the one SwapSlot, shared by kSwap and the re-planner:
/// its worker wakes the loop through the eventfd, and the loop finishes
/// the build (the kSwap reply, the re-planner's bookkeeping) itself. A
/// kSwap that finds the slot busy is answered kShed "swap in flight"; a
/// replan trigger that does is counted suppressed. No connection state is
/// ever touched off the loop thread.
///
/// Graceful drain (SIGTERM via the ShutdownSignal fd, or Stop()): close
/// the listen socket, stop reading, score what is pending as final
/// partial batches, cancel a model build in flight (its kSwap gets kError
/// and the registry keeps its version), write every pending response,
/// then exit and publish a final metrics snapshot. A second signal aborts
/// the flush wait.
class Server {
 public:
  /// The registry must outlive the server and hold a model before
  /// requests arrive (Install first, then Start).
  Server(ModelRegistry* registry, ServerOptions options);
  ~Server();

  /// Binds, listens, and starts the loop thread.
  Status Start();

  /// Bound port (valid after Start; the ephemeral-port answer).
  int port() const { return port_; }

  /// Requests a graceful drain and joins every thread. Idempotent.
  void Stop();

  /// True until the event loop exits.
  bool running() const { return running_.load(); }

  ServerCounters counters() const;
  TrafficStats& traffic_stats() { return stats_; }
  /// Null unless options.replan.enabled. Loop-thread state: read it
  /// after Stop().
  Replanner* replanner() { return replanner_.get(); }

 private:
  struct Connection;

  void RunLoop();
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  bool HandleFrame(Connection* conn, uint8_t opcode,
                   const std::string& payload);
  void WriteScored(const std::vector<ScoredRequest>& batch);
  /// Wakes the loop (eventfd): swap slot builds and Stop().
  void Wake();
  void FlushAndClose();
  void CloseConnection(uint64_t conn_id);
  void UpdateEpoll(Connection* conn);
  void SendNow(Connection* conn, StatusCode code, std::string_view payload);
  /// One-line JSON used by the kStats op and the drain log.
  std::string StatsJson() const;

  ModelRegistry* registry_;
  const ServerOptions options_;
  TrafficStats stats_;
  SwapSlot slot_;
  std::unique_ptr<Replanner> replanner_;  // before batcher_: polled by it
  Batcher batcher_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: swap slot builds + external Stop
  int port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread loop_thread_;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_SERVER_H_
