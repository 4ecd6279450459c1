#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/signal.h"
#include "common/string_util.h"
#include "core/cascade.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace semtag::serve {

// Sentinel epoll ids; connection ids start above them.
namespace {
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;
constexpr uint64_t kSignalId = 2;
constexpr uint64_t kFirstConnId = 8;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifdef __linux__
bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}
#endif

/// Interpolated percentile (0..1) from a fixed-bucket histogram snapshot.
double PercentileFromHistogram(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(q * (h.count - 1)) + 1;
  uint64_t seen = 0;
  double lower = 0.0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const double upper =
        i < h.bounds.size() ? h.bounds[i] : std::max(h.max, lower);
    if (seen + h.counts[i] >= rank && h.counts[i] > 0) {
      const double frac =
          static_cast<double>(rank - seen) / h.counts[i];
      return lower + frac * (upper - lower);
    }
    seen += h.counts[i];
    lower = upper;
  }
  return h.max;
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  FrameReader reader;
  std::string outbuf;
  size_t out_off = 0;
  uint32_t events = 0;  // currently-registered epoll interest
};

Server::Server(ModelRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      stats_(static_cast<size_t>(std::max(options.traffic_window, 1)),
             options.replan.Resolved().epoch_records,
             static_cast<size_t>(options.replan.Resolved().epoch_window)),
      replanner_(options.replan.enabled
                     ? std::make_unique<Replanner>(registry, &stats_,
                                                   options.replan)
                     : nullptr),
      batcher_(registry, &stats_, options.batching, replanner_.get()) {}

Server::~Server() { Stop(); }

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::string Server::StatsJson() const {
  const TrafficSnapshot traffic = stats_.Snapshot();
  const TrafficProfile profile = stats_.Profile();
  const ServerCounters counters = this->counters();
  // The served pair + threshold, so operators (and the replan tests) can
  // watch the loop over the wire without guessing from the version number.
  std::string pair = "none";
  double threshold = 0.0;
  if (const auto servable = registry_->Acquire();
      servable != nullptr && servable->model != nullptr) {
    if (const auto* cascade =
            dynamic_cast<const core::Cascade*>(servable->model.get());
        cascade != nullptr) {
      pair = core::CascadePairName(cascade->plan());
      threshold = cascade->threshold();
    } else {
      pair = servable->model->name();
    }
  }
  const std::string replan =
      replanner_ != nullptr ? replanner_->StateJson() : "{\"enabled\": false}";
  return StrFormat(
      "{\"version\": %llu, \"requests\": %llu, \"shed\": %llu, "
      "\"batches\": %llu, \"queue_depth\": %llu, "
      "\"protocol_errors\": %llu, "
      "\"model\": {\"pair\": \"%s\", \"threshold\": %.17g}, "
      "\"traffic\": {\"total\": %llu, "
      "\"window\": %llu, \"positive_ratio\": %.6f, "
      "\"mean_length\": %.2f, \"epochs\": %llu, \"oov_rate\": %.6f, "
      "\"vocab_churn\": %.6f, \"dirtiness\": %.6f}, "
      "\"replan\": %s}",
      static_cast<unsigned long long>(registry_->version()),
      static_cast<unsigned long long>(counters.requests),
      static_cast<unsigned long long>(counters.shed),
      static_cast<unsigned long long>(batcher_.BatchCount()),
      static_cast<unsigned long long>(batcher_.QueueDepth()),
      static_cast<unsigned long long>(counters.protocol_errors),
      pair.c_str(), threshold,
      static_cast<unsigned long long>(traffic.total),
      static_cast<unsigned long long>(traffic.window),
      traffic.positive_ratio, traffic.mean_length,
      static_cast<unsigned long long>(profile.total_epochs),
      profile.oov_rate, profile.vocab_churn, profile.dirtiness,
      replan.c_str());
}

#ifndef __linux__

Status Server::Start() {
  return Status::Internal("semtag_serve requires a Linux host (epoll)");
}
void Server::Stop() {}
void Server::RunLoop() {}

#else

Status Server::Start() {
  if (started_) return Status::Internal("Start() called twice");
  started_ = true;
  if (replanner_ != nullptr) replanner_->AdoptIncumbentFromRegistry();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal(
        StrFormat("bind(%s:%d) failed: %s", options_.host.c_str(),
                  options_.port, std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 256) != 0 || !SetNonBlocking(listen_fd_)) {
    return Status::Internal("listen() failed");
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::Internal("epoll_create1/eventfd failed");
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  if (options_.watch_signals) {
    ShutdownSignal& shutdown = ShutdownSignal::Install();
    if (shutdown.fd() >= 0) {
      ev.data.u64 = kSignalId;
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, shutdown.fd(), &ev);
    }
  }

  batcher_.Start();
  running_.store(true);
  loop_thread_ = std::thread([this] { RunLoop(); });
  SEMTAG_LOG(kInfo, "serving on %s:%d (batch cap %d, queue cap %d)",
             options_.host.c_str(), port_, batcher_.options().batch_cap,
             batcher_.options().queue_cap);
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stop_requested_.store(true);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& t : swap_threads_) {
    if (t.joinable()) t.join();
  }
  swap_threads_.clear();
  if (epoll_fd_ >= 0) {
    (void)::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    (void)::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::PostCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  const double now_us = NowUs();
  for (Completion& completion : batch) {
    if (completion.request_start_us > 0) {
      SEMTAG_OBS_OBSERVE("serve/request_latency_us",
                         obs::ServeLatencyBucketsUs(),
                         now_us - completion.request_start_us);
    }
    const auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // client went away
    Connection* conn = it->second.get();
    conn->outbuf += completion.frame;
    HandleWritable(conn);
  }
}

void Server::SendNow(Connection* conn, StatusCode code,
                     std::string_view payload) {
  AppendFrame(static_cast<uint8_t>(code), payload, &conn->outbuf);
  HandleWritable(conn);
}

void Server::UpdateEpoll(Connection* conn) {
  uint32_t want = EPOLLIN;
  if (conn->out_off < conn->outbuf.size()) want |= EPOLLOUT;
  if (want == conn->events) return;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.u64 = conn->id;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = want;
}

void Server::CloseConnection(uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  (void)::close(it->second->fd);
  connections_.erase(it);
}

void Server::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: try next wakeup
    if (connections_.size() >=
        static_cast<size_t>(options_.max_connections)) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.rejected_connections;
      (void)::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_ < kFirstConnId ? kFirstConnId : next_conn_id_;
    next_conn_id_ = conn->id + 1;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn->events = EPOLLIN;
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.accepted;
    }
    connections_[conn->id] = std::move(conn);
  }
}

bool Server::HandleFrame(Connection* conn, uint8_t opcode,
                         const std::string& payload) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kScore: {
      uint64_t ticket = 0;
      std::string_view text;
      if (!ParseScorePayload(payload, &ticket, &text)) return false;
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.requests;
      }
      SEMTAG_OBS_COUNT("serve/requests", 1);
      const uint64_t conn_id = conn->id;
      const double start_us = NowUs();
      const bool admitted = batcher_.Submit(
          std::string(text),
          [this, conn_id, ticket, start_us](const ScoredRequest& scored) {
            Completion completion;
            completion.conn_id = conn_id;
            completion.request_start_us = start_us;
            AppendFrame(static_cast<uint8_t>(StatusCode::kOk),
                        FormatScoreResponse(ticket, scored.model_version,
                                            scored.score),
                        &completion.frame);
            PostCompletion(std::move(completion));
          });
      if (!admitted) {
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.shed;
        }
        SendNow(conn, StatusCode::kShed,
                StrFormat("%llu",
                          static_cast<unsigned long long>(ticket)));
      }
      return true;
    }
    case Opcode::kPing:
      SendNow(conn, StatusCode::kOk, "pong");
      return true;
    case Opcode::kStats:
      SendNow(conn, StatusCode::kOk, StatsJson());
      return true;
    case Opcode::kSwap: {
      const std::string path = payload;
      const uint64_t conn_id = conn->id;
      // Model building takes seconds; do it off the loop so scoring
      // continues against the old model until the pointer flip.
      swap_threads_.emplace_back([this, path, conn_id] {
        auto swapped = registry_->SwapFromSpecFile(path);
        Completion completion;
        completion.conn_id = conn_id;
        if (swapped.ok()) {
          {
            std::lock_guard<std::mutex> lock(counters_mu_);
            ++counters_.swaps_ok;
          }
          AppendFrame(
              static_cast<uint8_t>(StatusCode::kOk),
              StrFormat("v%llu",
                        static_cast<unsigned long long>(*swapped)),
              &completion.frame);
        } else {
          {
            std::lock_guard<std::mutex> lock(counters_mu_);
            ++counters_.swaps_failed;
          }
          AppendFrame(static_cast<uint8_t>(StatusCode::kError),
                      swapped.status().ToString(), &completion.frame);
        }
        PostCompletion(std::move(completion));
      });
      return true;
    }
  }
  return false;  // unknown opcode: protocol violation
}

void Server::HandleReadable(Connection* conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (!conn->reader.Feed(buf, static_cast<size_t>(n))) {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.protocol_errors;
        CloseConnection(conn->id);
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly shutdown from the peer
      CloseConnection(conn->id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->id);
    return;
  }
  const uint64_t conn_id = conn->id;
  uint8_t opcode = 0;
  std::string payload;
  while (conn->reader.Next(&opcode, &payload)) {
    if (!HandleFrame(conn, opcode, payload)) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.protocol_errors;
      CloseConnection(conn_id);
      return;
    }
    // A response write inside HandleFrame may have failed and closed
    // (erased) the connection; `conn` would be dangling.
    if (connections_.find(conn_id) == connections_.end()) return;
  }
  if (conn->reader.violated()) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.protocol_errors;
    CloseConnection(conn_id);
    return;
  }
  UpdateEpoll(conn);
}

void Server::HandleWritable(Connection* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n =
        ::write(conn->fd, conn->outbuf.data() + conn->out_off,
                conn->outbuf.size() - conn->out_off);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->id);
    return;
  }
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
  } else if (conn->out_off > (1 << 20)) {
    conn->outbuf.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  UpdateEpoll(conn);
}

void Server::FlushAndClose() {
  // Best-effort flush of pending responses with a bounded wait; a second
  // shutdown signal (or 5s) abandons stragglers.
  const int initial_signals =
      options_.watch_signals ? ShutdownSignal::Install().count() : 0;
  const double give_up_us = NowUs() + 5e6;
  bool pending = true;
  while (pending && NowUs() < give_up_us) {
    if (options_.watch_signals &&
        ShutdownSignal::Install().count() > initial_signals) {
      break;
    }
    pending = false;
    for (const auto& [id, conn] : connections_) {
      if (conn->out_off >= conn->outbuf.size()) continue;
      pending = true;
      struct pollfd pfd;
      pfd.fd = conn->fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 50) > 0 && (pfd.revents & POLLOUT) != 0) {
        HandleWritable(conn.get());
        // HandleWritable may close (erase) the connection, invalidating
        // this loop's iterator — restart the scan.
        break;
      }
    }
  }
  while (!connections_.empty()) {
    CloseConnection(connections_.begin()->first);
  }
}

void Server::RunLoop() {
  struct epoll_event events[64];
  bool draining = false;
  while (!draining) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, 500);
    if (stop_requested_.load()) draining = true;
    for (int i = 0; i < n && !draining; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        HandleAccept();
      } else if (id == kWakeId) {
        uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        DrainCompletions();
        if (stop_requested_.load()) draining = true;
      } else if (id == kSignalId) {
        ShutdownSignal::Install().Drain();
        SEMTAG_LOG(kInfo, "signal %d: draining",
                   ShutdownSignal::Install().signal());
        draining = true;
      } else {
        const auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        Connection* conn = it->second.get();
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConnection(id);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) HandleWritable(conn);
        // HandleWritable may have closed the connection.
        if (connections_.find(id) == connections_.end()) continue;
        if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      }
    }
  }

  // ---- graceful drain ----
  obs::TraceSpan span("serve/drain");
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  (void)::close(listen_fd_);
  listen_fd_ = -1;
  // Flush queued requests as final (partial) batches; every accepted
  // request gets its response before the socket closes.
  batcher_.Stop();
  DrainCompletions();
  FlushAndClose();
  running_.store(false);

  // Final SLO snapshot: publish p50/p99 gauges from the request-latency
  // histogram and log the drain summary.
  if (obs::MetricsEnabled()) {
    const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
    for (const auto& [name, hist] : snapshot.histograms) {
      if (name == "serve/request_latency_us") {
        SEMTAG_OBS_GAUGE_SET("serve/latency_p50_us",
                             PercentileFromHistogram(hist, 0.50));
        SEMTAG_OBS_GAUGE_SET("serve/latency_p99_us",
                             PercentileFromHistogram(hist, 0.99));
      }
    }
  }
  SEMTAG_LOG(kInfo, "drained: %s", StatsJson().c_str());
  // epoll_fd_/wake_fd_ stay open until Stop() joins the swap threads,
  // which may still be posting completions through the eventfd.
}

#endif  // __linux__

}  // namespace semtag::serve
