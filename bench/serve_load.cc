// Online-serving load bench -> BENCH_serve.json.
//
//   serve_load --daemon build/src/cli/semtag_serve [--out BENCH_serve.json]
//              [--seconds N] [--window N]
//   serve_load --smoke --daemon build/src/cli/semtag_serve
//   serve_load --smoke --port N        # against an already-running daemon
//
// The full run spawns the daemon once per configuration — always-deep LSTM
// and the SVM+LSTM cascade, each at batch caps {1, 8, 32} — and drives a
// closed-loop pipelined client (fixed in-flight window) plus one open-loop
// run (fixed arrival rate) against the cascade. Gates, from ISSUE 9:
//   - cap 32 sustains >= 2x the QPS of cap 1 at equal-or-better p99
//     (batching amortizes each batch's registry snapshot, metrics and
//     response write, and the LSTM's batched ScoreAll is genuinely
//     cheaper per text, even on one core);
//   - the cascade beats always-deep QPS at the pinned accuracy budget
//     (most requests stop at the simple tier).
// The committed BENCH_serve.json comes from a Release build run with
// SEMTAG_NUM_THREADS=1 (inherited by every spawned daemon), so the gates
// compare batching, not how the pool's threads share the host's cores.
// --smoke is the CI configuration: a short closed loop against a tiny
// cascade, gating on non-zero QPS, zero protocol errors, and a clean
// SIGTERM drain (daemon exit status 0).
//
//   serve_load --drift --daemon build/src/cli/semtag_serve
//              [--out BENCH_replan.json]
// drives a clean->dirty drift schedule (data/drift.h, SUGG base) at one
// daemon with the online re-planner armed (--replan-*). SUGG at 2000
// records calibrates to a real escalation threshold (~8% of clean holdout
// reaches the CNN), so drifted low-margin traffic genuinely pays the deep
// tier until the re-planner swaps in the dirty cell's simple-only pair.
// Both sides of the throughput gate are measured in the SAME process on
// the SAME drifted records — one epoch-aligned fixed-record drive before
// the detector can fire, one after the swap settles. Gates:
//   - exactly one swap, model v2, serving the heat-map-correct pair
//     ("simple") at the end of the scripted run (zero flaps), and
//   - post-swap throughput on the drifted segment >= the pinned-pair
//     baseline on that same segment (the re-plan must pay off).
// Results -> BENCH_replan.json.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "data/drift.h"
#include "data/specs.h"
#include "serve/protocol.h"

namespace semtag {
namespace {

struct LoadStats {
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  double elapsed_s = 0.0;
  std::vector<double> latencies_us;

  double qps() const {
    return elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0.0;
  }
  double percentile(double q) const {
    if (latencies_us.empty()) return 0.0;
    std::vector<double> sorted = latencies_us;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(q * (sorted.size() - 1));
    return sorted[rank];
  }
};

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    (void)::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

struct Daemon {
  pid_t pid = -1;
  int port = 0;
  int out_fd = -1;  // daemon stdout (keep open; it logs the drain there)
};

/// fork+exec the daemon with this process's environment, parse
/// "listening on port N" from its stdout.
bool SpawnDaemon(const std::string& binary,
                 const std::vector<std::string>& args, Daemon* out) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    (void)::close(pipe_fds[0]);
    (void)::dup2(pipe_fds[1], STDOUT_FILENO);
    (void)::close(pipe_fds[1]);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "execv(%s) failed: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  (void)::close(pipe_fds[1]);
  // Model training gates the listen line; allow minutes on a cold cache.
  std::string buffered;
  WallTimer timer;
  while (timer.ElapsedSeconds() < 300.0) {
    struct pollfd pfd;
    pfd.fd = pipe_fds[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 500) <= 0) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        std::fprintf(stderr, "daemon exited before listening\n");
        (void)::close(pipe_fds[0]);
        return false;
      }
      continue;
    }
    char buf[512];
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    buffered.append(buf, static_cast<size_t>(n));
    int port = 0;
    const size_t pos = buffered.find("listening on port ");
    if (pos != std::string::npos &&
        std::sscanf(buffered.c_str() + pos, "listening on port %d",
                    &port) == 1 &&
        port > 0) {
      out->pid = pid;
      out->port = port;
      out->out_fd = pipe_fds[0];
      return true;
    }
  }
  std::fprintf(stderr, "daemon never printed its port\n");
  (void)::kill(pid, SIGKILL);
  (void)::waitpid(pid, nullptr, 0);
  (void)::close(pipe_fds[0]);
  return false;
}

/// SIGTERM the daemon and reap it. Returns its exit code (-1 on signal
/// death or wait failure).
int StopDaemon(Daemon* daemon) {
  if (daemon->pid <= 0) return -1;
  (void)::kill(daemon->pid, SIGTERM);
  int status = 0;
  const pid_t got = ::waitpid(daemon->pid, &status, 0);
  if (daemon->out_fd >= 0) {
    (void)::close(daemon->out_fd);
    daemon->out_fd = -1;
  }
  daemon->pid = -1;
  if (got <= 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Closed loop: keep `window` requests in flight over one pipelined
/// connection for `seconds`, then drain. Latency is send-to-response per
/// ticket; QPS counts every completed response over the full wall time.
bool RunClosedLoop(int port, const std::vector<std::string>& pool,
                   int window, double seconds, LoadStats* stats) {
  const int fd = ConnectTo(port);
  if (fd < 0) return false;
  serve::FrameReader reader;
  std::unordered_map<uint64_t, double> inflight;
  uint64_t next_ticket = 1;
  WallTimer timer;

  const auto send_one = [&]() {
    const uint64_t ticket = next_ticket++;
    std::string frame;
    serve::AppendFrame(
        static_cast<uint8_t>(serve::Opcode::kScore),
        serve::ScorePayload(ticket,
                            pool[ticket % pool.size()]),
        &frame);
    inflight[ticket] = timer.ElapsedSeconds();
    return SendAll(fd, frame);
  };
  // One response handled; returns false on a protocol error.
  const auto handle = [&](uint8_t tag, const std::string& payload) {
    const double now_s = timer.ElapsedSeconds();
    uint64_t ticket = 0;
    uint64_t version = 0;
    double score = 0.0;
    if (tag == static_cast<uint8_t>(serve::StatusCode::kOk)) {
      if (!serve::ParseScoreResponse(payload, &ticket, &version, &score)) {
        return false;
      }
    } else if (tag == static_cast<uint8_t>(serve::StatusCode::kShed)) {
      int64_t t = 0;
      if (!ParseInt64(payload, &t)) return false;
      ticket = static_cast<uint64_t>(t);
      ++stats->shed;
    } else {
      return false;
    }
    const auto it = inflight.find(ticket);
    if (it == inflight.end()) return false;  // unknown ticket
    stats->latencies_us.push_back((now_s - it->second) * 1e6);
    inflight.erase(it);
    ++stats->completed;
    return true;
  };

  bool ok = true;
  for (int i = 0; ok && i < window; ++i) ok = send_one();
  char buf[16384];
  // Fill phase: replace every completion until the clock runs out…
  while (ok && timer.ElapsedSeconds() < seconds) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ok = false;
      break;
    }
    if (!reader.Feed(buf, static_cast<size_t>(n))) {
      ok = false;
      break;
    }
    uint8_t tag = 0;
    std::string payload;
    while (ok && reader.Next(&tag, &payload)) {
      ok = handle(tag, payload);
      if (ok) ok = send_one();
    }
  }
  // …then drain what is still in flight without replacing it.
  while (ok && !inflight.empty()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ok = false;
      break;
    }
    if (!reader.Feed(buf, static_cast<size_t>(n))) {
      ok = false;
      break;
    }
    uint8_t tag = 0;
    std::string payload;
    while (ok && reader.Next(&tag, &payload)) ok = handle(tag, payload);
  }
  stats->elapsed_s = timer.ElapsedSeconds();
  if (!ok) ++stats->errors;
  (void)::close(fd);
  return ok;
}

/// Open loop: submit at a fixed arrival rate regardless of completions
/// (the arrival process the daemon's admission control exists for).
bool RunOpenLoop(int port, const std::vector<std::string>& pool,
                 double rate_qps, double seconds, LoadStats* stats) {
  const int fd = ConnectTo(port);
  if (fd < 0 || rate_qps <= 0) return false;
  serve::FrameReader reader;
  std::unordered_map<uint64_t, double> inflight;
  uint64_t next_ticket = 1;
  const uint64_t total = static_cast<uint64_t>(rate_qps * seconds);
  const double interval_s = 1.0 / rate_qps;
  WallTimer timer;

  const auto handle = [&](uint8_t tag, const std::string& payload) {
    const double now_s = timer.ElapsedSeconds();
    uint64_t ticket = 0;
    uint64_t version = 0;
    double score = 0.0;
    if (tag == static_cast<uint8_t>(serve::StatusCode::kOk)) {
      if (!serve::ParseScoreResponse(payload, &ticket, &version, &score)) {
        return false;
      }
    } else if (tag == static_cast<uint8_t>(serve::StatusCode::kShed)) {
      int64_t t = 0;
      if (!ParseInt64(payload, &t)) return false;
      ticket = static_cast<uint64_t>(t);
      ++stats->shed;
    } else {
      return false;
    }
    const auto it = inflight.find(ticket);
    if (it == inflight.end()) return false;
    stats->latencies_us.push_back((now_s - it->second) * 1e6);
    inflight.erase(it);
    ++stats->completed;
    return true;
  };

  bool ok = true;
  uint64_t sent = 0;
  char buf[16384];
  // Hard stop well past the nominal duration so an overloaded daemon
  // cannot wedge the bench.
  const double hard_stop_s = seconds * 3 + 5.0;
  while (ok && (sent < total || !inflight.empty())) {
    if (timer.ElapsedSeconds() > hard_stop_s) break;
    const double now_s = timer.ElapsedSeconds();
    std::string batch;
    while (sent < total &&
           static_cast<double>(sent) * interval_s <= now_s) {
      const uint64_t ticket = next_ticket++;
      serve::AppendFrame(
          static_cast<uint8_t>(serve::Opcode::kScore),
          serve::ScorePayload(ticket, pool[ticket % pool.size()]),
          &batch);
      inflight[ticket] = timer.ElapsedSeconds();
      ++sent;
    }
    if (!batch.empty() && !SendAll(fd, batch)) {
      ok = false;
      break;
    }
    const double next_due_s =
        sent < total ? static_cast<double>(sent) * interval_s : now_s + 0.05;
    const int wait_ms = std::max(
        0, static_cast<int>((next_due_s - timer.ElapsedSeconds()) * 1e3));
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, std::min(wait_ms, 50)) > 0 &&
        (pfd.revents & POLLIN) != 0) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) {
        ok = false;
        break;
      }
      if (!reader.Feed(buf, static_cast<size_t>(n))) {
        ok = false;
        break;
      }
      uint8_t tag = 0;
      std::string payload;
      while (ok && reader.Next(&tag, &payload)) ok = handle(tag, payload);
    }
  }
  stats->elapsed_s = timer.ElapsedSeconds();
  if (!ok) ++stats->errors;
  (void)::close(fd);
  return ok;
}

/// Texts the daemon's HETER model was built over — realistic lengths.
std::vector<std::string> RequestPool() {
  data::DatasetSpec spec = data::FindSpec("HETER").ValueOrDie();
  spec.scaled_records = 300;
  return data::BuildDataset(spec).Texts();
}

struct Config {
  std::string label;
  std::string model;    // --model value
  std::string cascade;  // --cascade value ("" = none)
  int batch_cap = 32;
  LoadStats stats;
};

std::vector<std::string> DaemonArgs(const Config& config) {
  std::vector<std::string> args = {
      "--dataset",     "HETER",
      "--records",     "300",
      "--seed",        "1",
      "--model",       config.model,
      "--port",        "0",
      "--batch-cap",   StrFormat("%d", config.batch_cap),
      "--queue-cap",   "4096",
  };
  if (!config.cascade.empty()) {
    args.push_back("--cascade");
    args.push_back(config.cascade);
    args.push_back("--budget");
    args.push_back("1.0");
  }
  return args;
}

int SmokeMain(const std::string& binary, int existing_port) {
  const std::vector<std::string> pool = RequestPool();
  Daemon daemon;
  int port = existing_port;
  if (port <= 0) {
    // Tiny cascade (SVM front, CNN escalation): trains in seconds.
    const std::vector<std::string> args = {
        "--dataset", "HETER",    "--records", "220",   "--seed",
        "1",         "--model",  "CASCADE",   "--cascade", "SVM+CNN",
        "--budget",  "2.0",      "--port",    "0",
    };
    if (!SpawnDaemon(binary, args, &daemon)) return 1;
    port = daemon.port;
  }
  LoadStats stats;
  const bool loop_ok = RunClosedLoop(port, pool, 8, 0.5, &stats);
  int exit_code = 0;
  if (daemon.pid > 0) exit_code = StopDaemon(&daemon);
  std::printf("smoke: %llu completed, %llu shed, %llu errors, "
              "qps %.0f, p99 %.0fus, daemon exit %d\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.errors),
              stats.qps(), stats.percentile(0.99), exit_code);
  const bool pass =
      loop_ok && stats.completed > 0 && stats.errors == 0 && exit_code == 0;
  std::printf("smoke gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

std::string ConfigJson(const Config& config) {
  const LoadStats& s = config.stats;
  return StrFormat(
      "    {\"label\": \"%s\", \"model\": \"%s\", \"cascade\": \"%s\", "
      "\"batch_cap\": %d, \"completed\": %llu, \"shed\": %llu, "
      "\"qps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f}",
      config.label.c_str(), config.model.c_str(), config.cascade.c_str(),
      config.batch_cap, static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.shed), s.qps(), s.percentile(0.5),
      s.percentile(0.99));
}

int BenchMain(const std::string& binary, const std::string& out,
              double seconds, int window) {
  const std::vector<std::string> pool = RequestPool();
  std::vector<Config> configs;
  for (const int cap : {1, 8, 32}) {
    configs.push_back(
        {StrFormat("deep-cap%d", cap), "LSTM", "", cap, {}});
  }
  for (const int cap : {1, 8, 32}) {
    configs.push_back(
        {StrFormat("cascade-cap%d", cap), "CASCADE", "SVM+LSTM", cap, {}});
  }

  for (Config& config : configs) {
    Daemon daemon;
    if (!SpawnDaemon(binary, DaemonArgs(config), &daemon)) return 1;
    // Warmup outside the measured window (connection setup, cold caches).
    LoadStats warmup;
    (void)RunClosedLoop(daemon.port, pool, window, 0.2, &warmup);
    if (!RunClosedLoop(daemon.port, pool, window, seconds,
                       &config.stats)) {
      std::fprintf(stderr, "%s: load loop failed\n", config.label.c_str());
      (void)StopDaemon(&daemon);
      return 1;
    }
    const int exit_code = StopDaemon(&daemon);
    if (exit_code != 0) {
      std::fprintf(stderr, "%s: daemon exit %d\n", config.label.c_str(),
                   exit_code);
      return 1;
    }
    std::printf("%-14s qps %8.1f   p50 %8.0fus   p99 %8.0fus   "
                "(%llu done, %llu shed)\n",
                config.label.c_str(), config.stats.qps(),
                config.stats.percentile(0.5), config.stats.percentile(0.99),
                static_cast<unsigned long long>(config.stats.completed),
                static_cast<unsigned long long>(config.stats.shed));
  }

  // Open loop against the headline config (cascade, cap 32) at ~60% of its
  // closed-loop capacity: latency with headroom, no gate attached.
  const Config& headline = configs[5];
  Config open_config = {"cascade-open", "CASCADE", "SVM+LSTM", 32, {}};
  const double open_rate = 0.6 * headline.stats.qps();
  {
    Daemon daemon;
    if (!SpawnDaemon(binary, DaemonArgs(open_config), &daemon)) return 1;
    (void)RunOpenLoop(daemon.port, pool, open_rate, seconds,
                      &open_config.stats);
    (void)StopDaemon(&daemon);
    std::printf("%-14s qps %8.1f   p50 %8.0fus   p99 %8.0fus   "
                "(rate %.0f/s)\n",
                open_config.label.c_str(), open_config.stats.qps(),
                open_config.stats.percentile(0.5),
                open_config.stats.percentile(0.99), open_rate);
  }

  const LoadStats& deep1 = configs[0].stats;
  const LoadStats& deep32 = configs[2].stats;
  const LoadStats& cascade32 = headline.stats;
  const double cap_ratio = deep1.qps() > 0 ? deep32.qps() / deep1.qps() : 0;
  const bool p99_ok = deep32.percentile(0.99) <= deep1.percentile(0.99);
  const double cascade_ratio =
      deep32.qps() > 0 ? cascade32.qps() / deep32.qps() : 0;
  const bool pass = cap_ratio >= 2.0 && p99_ok && cascade_ratio > 1.0;
  std::printf("gates: cap32/cap1 qps %.2fx (>= 2x), cap32 p99 %s cap1, "
              "cascade/deep qps %.2fx (> 1x) -> %s\n",
              cap_ratio, p99_ok ? "<=" : ">", cascade_ratio,
              pass ? "PASS" : "FAIL");

  std::string json = "{\n  \"name\": \"semtag-serve-bench-v1\",\n";
  json += bench::JsonContextFields() + "\n";
  json += StrFormat("  \"window\": %d,\n  \"seconds\": %.1f,\n", window,
                    seconds);
  json += "  \"configs\": [\n";
  for (size_t i = 0; i < configs.size(); ++i) {
    json += ConfigJson(configs[i]);
    json += i + 1 < configs.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += StrFormat(
      "  \"open_loop\": {\"rate_qps\": %.1f, \"result\":\n%s\n  },\n",
      open_rate, ConfigJson(open_config).c_str());
  json += StrFormat(
      "  \"gates\": {\"cap32_vs_cap1_qps\": %.3f, "
      "\"cap32_p99_le_cap1\": %s, \"cascade_vs_deep_qps\": %.3f, "
      "\"pass\": %s}\n}\n",
      cap_ratio, p99_ok ? "true" : "false", cascade_ratio,
      pass ? "true" : "false");
  const Status st = WriteFileAtomic(out, json);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --drift: the online re-planning loop end to end
// ---------------------------------------------------------------------------

/// Sends every text as a pipelined kScore and waits for all responses
/// (shed replies count as answered — the queue cap is sized so none
/// occur). One connection per call.
bool DriveRecords(int port, const std::vector<std::string>& texts) {
  const int fd = ConnectTo(port);
  if (fd < 0) return false;
  std::string frames;
  for (size_t i = 0; i < texts.size(); ++i) {
    serve::AppendFrame(static_cast<uint8_t>(serve::Opcode::kScore),
                       serve::ScorePayload(i + 1, texts[i]), &frames);
  }
  bool ok = SendAll(fd, frames);
  serve::FrameReader reader;
  size_t got = 0;
  char buf[16384];
  WallTimer timer;
  while (ok && got < texts.size() && timer.ElapsedSeconds() < 60.0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ok = false;
      break;
    }
    if (!reader.Feed(buf, static_cast<size_t>(n))) {
      ok = false;
      break;
    }
    uint8_t tag = 0;
    std::string payload;
    while (reader.Next(&tag, &payload)) ++got;
  }
  (void)::close(fd);
  return ok && got == texts.size();
}

/// One kStats round trip.
bool FetchStats(int port, std::string* payload) {
  const int fd = ConnectTo(port);
  if (fd < 0) return false;
  std::string frame;
  serve::AppendFrame(static_cast<uint8_t>(serve::Opcode::kStats), "",
                     &frame);
  bool ok = SendAll(fd, frame);
  serve::FrameReader reader;
  uint8_t tag = 0;
  char buf[16384];
  WallTimer timer;
  bool got = false;
  while (ok && !got && timer.ElapsedSeconds() < 10.0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    if (!reader.Feed(buf, static_cast<size_t>(n))) break;
    got = reader.Next(&tag, payload);
  }
  (void)::close(fd);
  return got && tag == static_cast<uint8_t>(serve::StatusCode::kOk);
}

/// Parses `"key": <int>` out of a one-line JSON stats payload.
int64_t JsonCount(const std::string& payload, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = payload.find(needle);
  if (pos == std::string::npos) return -1;
  int64_t value = 0;
  if (std::sscanf(payload.c_str() + pos + needle.size(), "%lld",
                  reinterpret_cast<long long*>(&value)) != 1) {
    return -1;
  }
  return value;
}

/// Parses `"key": "<value>"` out of a one-line JSON stats payload.
std::string JsonString(const std::string& payload, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t pos = payload.find(needle);
  if (pos == std::string::npos) return "";
  const size_t begin = pos + needle.size();
  const size_t end = payload.find('"', begin);
  if (end == std::string::npos) return "";
  return payload.substr(begin, end - begin);
}

// One drift epoch: measurements, the detector window, and the scenario's
// segments all use the same record count so every measured drive is
// exactly one sealed epoch and the scripted boundary lands on an epoch
// boundary.
constexpr int kDriftEpoch = 8192;

int DriftRun(const std::string& binary, const std::string& out,
             const std::string& spec_dir) {
  // Clean->dirty schedule over the SUGG generator: segment 0 re-draws the
  // training distribution, segment 1 is the drifted regime (open-vocab
  // entity soup + rotated topics + ratio shift). SUGG at 2000 records is
  // the corpus where the calibrated cascade keeps a live deep tier
  // (threshold ~0.09, ~8% escalated on clean holdout), so drift that
  // shrinks SVM margins has a real serving cost for the pinned pair.
  data::DriftScenario scenario;
  scenario.base_dataset = "SUGG";
  scenario.seed = 7;
  data::DriftSegment clean;
  clean.label = "clean";
  clean.records = kDriftEpoch;
  clean.positive_ratio = 0.262;  // SUGG's observed training ratio
  scenario.segments.push_back(clean);
  data::DriftSegment dirty;
  dirty.label = "dirty";
  dirty.records = kDriftEpoch;
  dirty.positive_ratio = 0.35;
  // Entity soup saturates the OOV/churn proxy (the detector's signal);
  // symmetric label contamination keeps the signal lexicon in-vocab but
  // mixes it across labels, which is what shrinks SVM margins and drives
  // escalation (~12% of this segment vs ~8% clean). A vocab_shift would
  // instead rotate the signal words out of the learned vocabulary and
  // produce confident negatives that never escalate.
  dirty.entity_rate = 0.35;
  dirty.entity_signal = 0.5;
  dirty.entity_pool_size = 4000;
  dirty.neg_contamination = 0.25;
  dirty.pos_contamination = 0.25;
  scenario.segments.push_back(dirty);
  const std::vector<data::DriftRecord> stream =
      data::GenerateDriftStream(scenario);
  std::vector<std::string> clean_pool, dirty_pool;
  for (const data::DriftRecord& r : stream) {
    (r.segment == 0 ? clean_pool : dirty_pool).push_back(r.text);
  }

  // One daemon for the whole scripted run, detector armed by --replan.
  // Geometry: kDriftEpoch-record epochs, 2-epoch window, dwell 2 — the
  // earliest possible firing is the SECOND dirty epoch, so the first
  // dirty epoch is a safe pre-swap measurement window. Dirtiness
  // thresholds measured on this corpus (clean epochs ~0.42 against the
  // SUGG@2000 training reference, drifted window saturates at 1.0).
  const std::vector<std::string> args = {
      "--dataset",        "SUGG",    "--records",   "2000",
      "--seed",           "1",       "--model",     "CASCADE",
      "--cascade",        "SVM+CNN", "--budget",    "0.5",
      "--port",           "0",       "--batch-cap", "32",
      "--queue-cap",      "16384",   "--replan",
      "--replan-epoch",   StrFormat("%d", kDriftEpoch),
      "--replan-window",  "2",       "--replan-dwell", "2",
      "--replan-dirty",   "0.65",    "--replan-dirty-band", "0.15",
      "--replan-profile-records", "4750000",
      "--replan-profile-ratio",   "0.3",
      "--replan-pair",    "SVM+CNN", "--spec-dir",  spec_dir,
  };
  Daemon daemon;
  if (!SpawnDaemon(binary, args, &daemon)) return 1;

  // Clean phase: two full epochs of in-distribution traffic. The detector
  // must hold the incumbent through both.
  std::string stats_payload;
  for (int i = 0; i < 2; ++i) {
    if (!DriveRecords(daemon.port, clean_pool)) {
      std::fprintf(stderr, "clean phase failed\n");
      (void)StopDaemon(&daemon);
      return 1;
    }
  }
  if (FetchStats(daemon.port, &stats_payload) &&
      JsonCount(stats_payload, "swaps") != 0) {
    std::fprintf(stderr, "detector fired on clean traffic: %s\n",
                 stats_payload.c_str());
    (void)StopDaemon(&daemon);
    return 1;
  }
  const std::string pinned_pair = JsonString(stats_payload, "pair");

  // Pinned-pair baseline ON THE DRIFTED SEGMENT: the first dirty epoch,
  // timed. Dwell hysteresis guarantees no swap can land inside it, so
  // this is exactly what the deployment keeps paying without a re-plan —
  // drifted low-margin traffic escalating into the deep tier.
  double pinned_qps = 0.0;
  {
    WallTimer timer;
    if (!DriveRecords(daemon.port, dirty_pool)) {
      std::fprintf(stderr, "pinned-pair drift measurement failed\n");
      (void)StopDaemon(&daemon);
      return 1;
    }
    pinned_qps = dirty_pool.size() / timer.ElapsedSeconds();
  }
  if (FetchStats(daemon.port, &stats_payload) &&
      JsonCount(stats_payload, "swaps") != 0) {
    std::fprintf(stderr, "swap landed inside the baseline window: %s\n",
                 stats_payload.c_str());
    (void)StopDaemon(&daemon);
    return 1;
  }
  std::printf("pinned %s on drifted segment: qps %.1f\n",
              pinned_pair.c_str(), pinned_qps);

  // Drifted phase: replay the dirty epoch until the swap lands (the
  // retrain runs off-loop, so poll between epochs with generous wall
  // time).
  int64_t swaps = 0;
  double swap_wait_s = 0.0;
  {
    WallTimer timer;
    while (swaps <= 0 && timer.ElapsedSeconds() < 120.0) {
      if (!DriveRecords(daemon.port, dirty_pool)) {
        std::fprintf(stderr, "drift phase failed\n");
        (void)StopDaemon(&daemon);
        return 1;
      }
      for (int poll = 0; poll < 50 && swaps <= 0; ++poll) {
        if (FetchStats(daemon.port, &stats_payload)) {
          swaps = JsonCount(stats_payload, "swaps");
        }
        if (swaps <= 0) ::usleep(200 * 1000);
      }
    }
    swap_wait_s = timer.ElapsedSeconds();
  }
  std::printf("swap landed after %.1fs of drifted traffic (%s)\n",
              swap_wait_s, stats_payload.c_str());

  // One settling epoch after the swap (also proves the re-planned pair
  // holds its own cell — any flap shows up in the final counters), then
  // the post-swap measurement: the SAME drifted records, timed the same
  // way, against the re-planned pair.
  double post_qps = 0.0;
  bool post_ok = DriveRecords(daemon.port, dirty_pool);
  if (post_ok) {
    WallTimer timer;
    post_ok = DriveRecords(daemon.port, dirty_pool);
    post_qps = dirty_pool.size() / timer.ElapsedSeconds();
  }
  int64_t final_swaps = -1, final_version = -1;
  std::string final_pair;
  if (FetchStats(daemon.port, &stats_payload)) {
    final_swaps = JsonCount(stats_payload, "swaps");
    final_version = JsonCount(stats_payload, "version");
    final_pair = JsonString(stats_payload, "pair");
  }
  const int exit_code = StopDaemon(&daemon);
  if (!post_ok || exit_code != 0) {
    std::fprintf(stderr, "post-swap measurement failed (exit %d)\n",
                 exit_code);
    return 1;
  }
  std::printf("re-planned %s on drifted segment: qps %.1f\n",
              final_pair.c_str(), post_qps);

  // Gates: one scripted crossing -> exactly one swap ending on the dirty
  // cell's heat-map pair, and the swap must buy back throughput on the
  // traffic that triggered it.
  const bool swap_ok =
      final_swaps == 1 && final_version == 2 && final_pair == "simple";
  const bool qps_ok = post_qps >= pinned_qps;
  const bool pass = swap_ok && qps_ok;
  std::printf("gates: swaps %lld (== 1), version %lld (== 2), "
              "pair %s (== simple), post/pinned qps %.2fx (>= 1x) -> %s\n",
              static_cast<long long>(final_swaps),
              static_cast<long long>(final_version), final_pair.c_str(),
              pinned_qps > 0 ? post_qps / pinned_qps : 0.0,
              pass ? "PASS" : "FAIL");

  std::string json = "{\n  \"name\": \"semtag-replan-bench-v1\",\n";
  json += bench::JsonContextFields() + "\n";
  json += StrFormat(
      "  \"dataset\": \"SUGG\", \"records\": 2000, \"budget_pts\": 0.5,\n"
      "  \"epoch_records\": %d,\n  \"swap_wait_s\": %.1f,\n",
      kDriftEpoch, swap_wait_s);
  json += StrFormat(
      "  \"pinned\": {\"pair\": \"%s\", \"qps\": %.1f, \"records\": %zu},\n",
      pinned_pair.c_str(), pinned_qps, dirty_pool.size());
  json += StrFormat(
      "  \"post_swap\": {\"pair\": \"%s\", \"qps\": %.1f, "
      "\"records\": %zu},\n",
      final_pair.c_str(), post_qps, dirty_pool.size());
  json += StrFormat(
      "  \"gates\": {\"swaps\": %lld, \"version\": %lld, "
      "\"final_pair\": \"%s\", \"post_vs_pinned_qps\": %.3f, "
      "\"pass\": %s}\n}\n",
      static_cast<long long>(final_swaps),
      static_cast<long long>(final_version), final_pair.c_str(),
      pinned_qps > 0 ? post_qps / pinned_qps : 0.0,
      pass ? "true" : "false");
  const Status st = WriteFileAtomic(out, json);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return pass ? 0 : 1;
}

// The daemon writes its replan_<n>.spec files into a directory of this
// run's own, so concurrent runs never share one; it goes when the run ends.
int DriftMain(const std::string& binary, const std::string& out) {
  std::string spec_dir =
      (std::filesystem::temp_directory_path() / "serve_load_drift_XXXXXX")
          .string();
  if (::mkdtemp(spec_dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp(%s): %s\n", spec_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  const int code = DriftRun(binary, out, spec_dir);
  std::error_code ignored;
  std::filesystem::remove_all(spec_dir, ignored);
  return code;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool drift = false;
  std::string binary;
  std::string out;
  double seconds = 2.0;
  int window = 64;
  int port = 0;
  Flags flags("serve_load");
  flags.Bool("smoke", &smoke, "CI gate: a short closed loop, tiny cascade");
  flags.Bool("drift", &drift,
             "scripted clean->dirty drift at a re-planning daemon");
  flags.String("daemon", &binary, "path to semtag_serve");
  flags.String("out", &out,
               "result JSON; default BENCH_serve.json, or BENCH_replan.json "
               "with --drift");
  flags.Number("seconds", &seconds, 0.0, 3600.0,
               "length of each closed-loop run");
  flags.Number("window", &window, 1, 1 << 20,
               "requests in flight in the closed loop");
  flags.Number("port", &port, 0, 65535,
               "--smoke against this running daemon instead of spawning one");
  bench::BenchSetup("Online serving: dynamic batching + cascade tiers",
                    "throughput/latency extension of Table 7 cost columns",
                    argc, argv, &flags);
  if (out.empty()) out = drift ? "BENCH_replan.json" : "BENCH_serve.json";
  if (smoke) return SmokeMain(binary, port);
  if (binary.empty()) {
    std::fprintf(stderr,
                 "need --daemon <path to semtag_serve> (or --smoke)\n");
    return 2;
  }
  if (drift) return DriftMain(binary, out);
  return BenchMain(binary, out, seconds, window);
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
