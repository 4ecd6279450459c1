#ifndef SEMTAG_COMMON_FILE_IO_H_
#define SEMTAG_COMMON_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace semtag {

/// CRC-32 (IEEE 802.3, reflected) of a byte range. Crc32("123456789") ==
/// 0xCBF43926. Used as the integrity footer of checkpoints and the
/// experiment result cache.
uint32_t Crc32(const void* data, size_t size);
uint32_t Crc32(std::string_view data);

/// Crash-safe file replacement: writes `content` to a same-directory temp
/// file, flushes it to disk, then rename(2)s it over `path`. A crash (or
/// injected kWriteFail fault) at any point leaves the previous file intact;
/// readers never observe a partial write.
Status WriteFileAtomic(const std::string& path, const std::string& content);

/// Moves a corrupt file aside to "<path>.corrupt" (replacing any previous
/// quarantine) and logs a warning with `reason`, so the next writer starts
/// fresh instead of half-parsing garbage. NotFound if `path` is gone.
Status QuarantineFile(const std::string& path, const std::string& reason);

/// Advisory inter-process lock on "<path>.lock" (flock(2), blocking).
/// Serializes the read-merge-rewrite cycle of the result cache across
/// concurrent bench binaries. On non-POSIX platforms this is a no-op and
/// held() is false.
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace semtag

#endif  // SEMTAG_COMMON_FILE_IO_H_
