#include "common/file_io.h"

#include <array>
#include <cstdio>
#include <fstream>

#include "common/fault.h"
#include "common/logging.h"

#ifdef __unix__
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace semtag {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256>& table = *new auto(BuildCrcTable());
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) { return Crc32(data.data(), data.size()); }

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  if (FaultInjected(FaultPoint::kWriteFail, path)) {
    return Status::IoError("injected write failure: " + path);
  }
#ifdef __unix__
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("cannot open for write: " + tmp);
  size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("short write: " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  // fsync before rename: otherwise a crash can publish an empty file.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("cannot flush: " + tmp);
  }
  // Worst-case crash point: the temp file is fully written but not yet
  // published. The injected kill here must leave `path` untouched.
  FaultInjected(FaultPoint::kCrash, path);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("cannot rename over: " + path);
  }
  return Status::OK();
#else
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for write: " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("short write: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename over: " + path);
  }
  return Status::OK();
#endif
}

Status QuarantineFile(const std::string& path, const std::string& reason) {
  const std::string target = path + ".corrupt";
  std::remove(target.c_str());
  if (std::rename(path.c_str(), target.c_str()) != 0) {
    return Status::NotFound("cannot quarantine (missing?): " + path);
  }
  SEMTAG_LOG(kWarning, "quarantined corrupt file %s -> %s (%s)", path.c_str(),
             target.c_str(), reason.c_str());
  return Status::OK();
}

FileLock::FileLock(const std::string& path) {
#ifdef __unix__
  const std::string lock_path = path + ".lock";
  fd_ = ::open(lock_path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) {
    SEMTAG_LOG(kWarning, "cannot open lock file %s", lock_path.c_str());
    return;
  }
  if (::flock(fd_, LOCK_EX) != 0) {
    ::close(fd_);
    fd_ = -1;
    SEMTAG_LOG(kWarning, "cannot lock %s", lock_path.c_str());
  }
#else
  (void)path;
#endif
}

FileLock::~FileLock() {
#ifdef __unix__
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
#endif
}

}  // namespace semtag
