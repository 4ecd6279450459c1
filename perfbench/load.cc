#include "load.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/string_util.h"
#include "common/timer.h"
#include "serve/protocol.h"

namespace semtag::perfbench {

double ProcessCpuSeconds(pid_t pid) {
  // Sum the nanosecond on-CPU times of every thread (schedstat field 1);
  // /proc/<pid>/stat counts only whole clock ticks.
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return -1.0;
  unsigned long long ns = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
    unsigned long long run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  (void)::closedir(dir);
  return static_cast<double>(ns) * 1e-9;
}

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long fields[8] = {};
  in >> cpu;
  for (unsigned long long& f : fields) in >> f;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(fields[7]) / ticks : 0.0;
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    (void)::kill(pid_, SIGKILL);
    (void)::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) (void)::close(out_fd_);
}

bool Daemon::Spawn(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log_path, double timeout_s) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  WallTimer timer;
  const pid_t pid = ::fork();
  if (pid < 0) {
    (void)::close(pipe_fds[0]);
    (void)::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // The daemon dies with the benchmark, however the benchmark ends.
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    (void)::close(pipe_fds[0]);
    (void)::dup2(pipe_fds[1], STDOUT_FILENO);
    (void)::close(pipe_fds[1]);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      (void)::dup2(log_fd, STDERR_FILENO);
      (void)::close(log_fd);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "execv(%s) failed: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  (void)::close(pipe_fds[1]);
  pid_ = pid;
  out_fd_ = pipe_fds[0];
  std::string buffered;
  while (timer.ElapsedSeconds() < timeout_s) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 5) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // daemon exited before listening
    buffered.append(buf, static_cast<size_t>(n));
    const size_t pos = buffered.find("listening on port ");
    int port = 0;
    if (pos != std::string::npos && buffered.find('\n', pos) != std::string::npos &&
        std::sscanf(buffered.c_str() + pos, "listening on port %d", &port) == 1 &&
        port > 0) {
      setup_s_ = timer.ElapsedSeconds();
      port_ = port;
      return true;
    }
  }
  std::fprintf(stderr, "daemon did not start (see %s)\n", log_path.c_str());
  (void)Stop(5.0);
  return false;
}

int Daemon::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  (void)::kill(pid_, SIGTERM);
  int status = 0;
  pid_t got = 0;
  WallTimer timer;
  while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         timer.ElapsedSeconds() < timeout_s) {
    ::usleep(2000);
  }
  if (got == 0) {
    (void)::kill(pid_, SIGKILL);
    (void)::waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  if (out_fd_ >= 0) {
    (void)::close(out_fd_);
    out_fd_ = -1;
  }
  if (got <= 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

bool Verifier::Check(uint64_t ticket, size_t index,
                     const std::string& payload) {
  uint64_t got_ticket = 0, version = 0;
  double score = 0.0;
  std::string error;
  if (!serve::ParseScoreResponse(payload, &got_ticket, &version, &score)) {
    error = "unparseable response '" + payload + "'";
  } else if (got_ticket != ticket) {
    error = StrFormat("ticket %llu answered as %llu",
                      static_cast<unsigned long long>(ticket),
                      static_cast<unsigned long long>(got_ticket));
  } else if (version != expected_version) {
    error = StrFormat("model version %llu, expected %llu",
                      static_cast<unsigned long long>(version),
                      static_cast<unsigned long long>(expected_version));
  } else if (std::memcmp(&score, &reference[index], sizeof(double)) != 0) {
    error = StrFormat("text %zu scored %.17g, reference %.17g", index, score,
                      reference[index]);
  }
  if (!error.empty()) {
    if (first_error.empty()) first_error = error;
    ++mismatches;
    return false;
  }
  ++verified;
  const bool predicted = score >= decision_threshold;
  const bool positive = labels[index] == 1;
  tp += predicted && positive;
  fp += predicted && !positive;
  fn += !predicted && positive;
  return true;
}

double Verifier::F1() const {
  const double denom = 2.0 * tp + fp + fn;
  return denom > 0 ? 2.0 * tp / denom : 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::min<double>(values.size() - 1, std::floor(q * values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

namespace {

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
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
    } else if (n < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// Owns the client socket and the in-flight table shared by both loops.
class Connection {
 public:
  Connection(int port, Verifier* verifier, PhaseStats* stats)
      : fd_(Connect(port)), verifier_(verifier), stats_(stats) {}
  ~Connection() {
    if (fd_ >= 0) (void)::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0 && !broken_; }
  int fd() const { return fd_; }
  size_t inflight() const { return inflight_.size(); }

  /// Frames one request for `ticket` into `out`; `start_s` is the instant
  /// its latency is measured from.
  void Queue(uint64_t ticket, double start_s, std::string* out) {
    const std::string& text =
        verifier_->texts[ticket % verifier_->texts.size()];
    serve::AppendFrame(static_cast<uint8_t>(serve::Opcode::kScore),
                       serve::ScorePayload(ticket, text), out);
    inflight_[ticket] = start_s;
    ++stats_->sent;
  }

  bool Send(const std::string& frames) {
    if (!frames.empty() && !SendAll(fd_, frames)) broken_ = true;
    return !broken_;
  }

  /// Reads once (blocking) and retires every complete response. Returns
  /// the number retired, or -1 on a connection or protocol failure.
  int ReadAndRetire(const WallTimer& clock) {
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) return 0;
      broken_ = true;
      return -1;
    }
    if (!reader_.Feed(buf, static_cast<size_t>(n))) {
      broken_ = true;
      return -1;
    }
    const double now_s = clock.ElapsedSeconds();
    int retired = 0;
    uint8_t tag = 0;
    std::string payload;
    while (reader_.Next(&tag, &payload)) {
      uint64_t ticket = 0;
      if (!TicketOf(tag, payload, &ticket)) {
        broken_ = true;
        return -1;
      }
      const auto it = inflight_.find(ticket);
      if (it == inflight_.end()) {
        if (verifier_->first_error.empty()) {
          verifier_->first_error = "response for unknown ticket " + payload;
        }
        ++verifier_->mismatches;
        broken_ = true;
        return -1;
      }
      if (tag == static_cast<uint8_t>(serve::StatusCode::kShed)) {
        ++stats_->shed;
      } else if (verifier_->Check(
                     ticket, ticket % verifier_->texts.size(), payload)) {
        ++stats_->ok;
        stats_->latencies_us.push_back((now_s - it->second) * 1e6);
      } else {
        ++stats_->failed;
      }
      inflight_.erase(it);
      ++retired;
    }
    return retired;
  }

  /// Requests still unanswered when a phase gives up count as failed.
  void AbandonInflight() {
    stats_->failed += inflight_.size();
    inflight_.clear();
  }

 private:
  static bool TicketOf(uint8_t tag, const std::string& payload,
                       uint64_t* ticket) {
    if (tag == static_cast<uint8_t>(serve::StatusCode::kShed) ||
        tag == static_cast<uint8_t>(serve::StatusCode::kOk)) {
      // Both payloads start with the decimal ticket.
      int64_t value = 0;
      const size_t end = payload.find(' ');
      if (!ParseInt64(payload.substr(0, end), &value) || value < 0) {
        return false;
      }
      *ticket = static_cast<uint64_t>(value);
      return true;
    }
    return false;
  }

  int fd_;
  bool broken_ = false;
  Verifier* verifier_;
  PhaseStats* stats_;
  serve::FrameReader reader_;
  std::unordered_map<uint64_t, double> inflight_;
};

}  // namespace

bool RunClosedLoop(int port, pid_t daemon_pid, int window, double seconds,
                   double slice_s, uint64_t* next_ticket, Verifier* verifier,
                   PhaseStats* stats) {
  Connection conn(port, verifier, stats);
  if (!conn.ok()) return false;
  WallTimer clock;
  std::string frames;
  for (int i = 0; i < window; ++i) conn.Queue((*next_ticket)++, 0.0, &frames);
  if (!conn.Send(frames)) return false;

  double slice_start_s = 0.0;
  double slice_cpu_s = ProcessCpuSeconds(daemon_pid);
  uint64_t slice_done = 0;
  uint64_t done = 0;
  while (clock.ElapsedSeconds() < seconds) {
    const int retired = conn.ReadAndRetire(clock);
    if (retired < 0) return false;
    done += static_cast<uint64_t>(retired);
    const double now_s = clock.ElapsedSeconds();
    frames.clear();
    for (int i = 0; i < retired; ++i) conn.Queue((*next_ticket)++, now_s, &frames);
    if (!conn.Send(frames)) return false;
    if (now_s - slice_start_s >= slice_s) {
      const double cpu_s = ProcessCpuSeconds(daemon_pid);
      const uint64_t n = done - slice_done;
      if (n > 0) {
        stats->slice_qps.push_back(n / (now_s - slice_start_s));
        stats->slice_cpu_us.push_back((cpu_s - slice_cpu_s) * 1e6 / n);
      }
      slice_start_s = now_s;
      slice_cpu_s = cpu_s;
      slice_done = done;
    }
  }
  stats->wall_s = clock.ElapsedSeconds();
  // Drain what is still in flight without replacing it.
  while (conn.inflight() > 0 && clock.ElapsedSeconds() < seconds + 30.0) {
    if (conn.ReadAndRetire(clock) < 0) return false;
  }
  conn.AbandonInflight();
  return true;
}

bool RunOpenLoop(int port, double rate, double seconds,
                 uint64_t* next_ticket, Verifier* verifier,
                 PhaseStats* stats) {
  Connection conn(port, verifier, stats);
  if (!conn.ok() || rate <= 0) return false;
  const uint64_t total = static_cast<uint64_t>(rate * seconds);
  const double interval_s = 1.0 / rate;
  uint64_t due_index = 0;
  WallTimer clock;
  std::string frames;
  const double hard_stop_s = seconds + 30.0;
  while ((due_index < total || conn.inflight() > 0) &&
         clock.ElapsedSeconds() < hard_stop_s) {
    frames.clear();
    const double now_s = clock.ElapsedSeconds();
    while (due_index < total && due_index * interval_s <= now_s) {
      const double due_s = due_index * interval_s;
      stats->lateness_us.push_back((now_s - due_s) * 1e6);
      conn.Queue((*next_ticket)++, due_s, &frames);
      ++due_index;
    }
    if (!conn.Send(frames)) return false;
    const double next_due_s =
        due_index < total ? due_index * interval_s : now_s + 0.05;
    const double wait_s = next_due_s - clock.ElapsedSeconds();
    // Sub-millisecond waits spin on a zero-timeout poll so the schedule
    // holds at rates of several thousand requests per second.
    const int wait_ms = wait_s >= 1e-3 ? static_cast<int>(wait_s * 1e3) : 0;
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) > 0 && (pfd.revents & POLLIN) != 0) {
      if (conn.ReadAndRetire(clock) < 0) return false;
    }
  }
  stats->wall_s = clock.ElapsedSeconds();
  conn.AbandonInflight();
  return true;
}

}  // namespace semtag::perfbench
