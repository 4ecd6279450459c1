#include "nn/serialize.h"

#include <cstdint>
#include <cstring>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace semtag::nn {

namespace {

constexpr uint32_t kMagic = 0x53544147;   // "STAG"
constexpr uint32_t kFooterMagic = 0x43524332;  // "CRC2"

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

/// Reads `size` bytes from `buf` at `*pos`; false on truncation.
bool ReadRaw(const std::string& buf, size_t* pos, void* out, size_t size) {
  if (buf.size() - *pos < size) return false;
  std::memcpy(out, buf.data() + *pos, size);
  *pos += size;
  return true;
}

/// Quarantines the file and returns an error describing why it was
/// rejected. Every corrupt-checkpoint path funnels through here so a bad
/// file is moved aside exactly once and never half-parsed again.
Status RejectCorrupt(const std::string& path, const std::string& reason) {
  (void)QuarantineFile(path, reason);
  return Status::InvalidArgument("corrupt checkpoint (" + reason +
                                 ", quarantined): " + path);
}

}  // namespace

Status SaveCheckpoint(const std::string& path,
                      const std::vector<Variable>& params) {
  // Serialize to memory, then publish with an atomic temp-file+rename so a
  // crash mid-save can never leave a truncated checkpoint at `path`.
  std::string buf;
  size_t bytes = sizeof(kMagic) + sizeof(uint64_t);
  for (const auto& p : params) {
    bytes += 2 * sizeof(uint64_t) + p.value().size() * sizeof(float);
  }
  buf.reserve(bytes + 8);
  const uint32_t magic = kMagic;
  const uint64_t count = params.size();
  AppendRaw(&buf, &magic, sizeof(magic));
  AppendRaw(&buf, &count, sizeof(count));
  for (const auto& p : params) {
    const uint64_t rows = p.value().rows();
    const uint64_t cols = p.value().cols();
    AppendRaw(&buf, &rows, sizeof(rows));
    AppendRaw(&buf, &cols, sizeof(cols));
    AppendRaw(&buf, p.value().data(), rows * cols * sizeof(float));
  }
  // Integrity footer: CRC32 of everything above + footer magic.
  const uint32_t crc = Crc32(buf);
  AppendRaw(&buf, &crc, sizeof(crc));
  AppendRaw(&buf, &kFooterMagic, sizeof(kFooterMagic));
  return WriteFileAtomic(path, buf);
}

Status LoadCheckpoint(const std::string& path,
                      std::vector<Variable>* params) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  std::string buf = std::move(*content);
  if (FaultInjected(FaultPoint::kReadCorrupt, path) && !buf.empty()) {
    buf[buf.size() / 2] ^= 0x40;  // injected bit-flip, caught by the CRC
  }
  constexpr size_t kFooterSize = sizeof(uint32_t) + sizeof(kFooterMagic);
  if (buf.size() < sizeof(kMagic) + sizeof(uint64_t) + kFooterSize) {
    return RejectCorrupt(path, "truncated");
  }
  uint32_t footer_magic = 0;
  uint32_t stored_crc = 0;
  std::memcpy(&footer_magic, buf.data() + buf.size() - sizeof(footer_magic),
              sizeof(footer_magic));
  std::memcpy(&stored_crc, buf.data() + buf.size() - kFooterSize,
              sizeof(stored_crc));
  if (footer_magic != kFooterMagic) {
    return RejectCorrupt(path, "missing integrity footer");
  }
  const size_t payload = buf.size() - kFooterSize;
  const uint32_t actual_crc = Crc32(buf.data(), payload);
  if (actual_crc != stored_crc) {
    return RejectCorrupt(path,
                         StrFormat("crc mismatch (stored %08x, actual %08x)",
                                   stored_crc, actual_crc));
  }

  size_t pos = 0;
  uint32_t magic = 0;
  uint64_t count = 0;
  ReadRaw(buf, &pos, &magic, sizeof(magic));
  ReadRaw(buf, &pos, &count, sizeof(count));
  if (magic != kMagic) return RejectCorrupt(path, "bad header magic");
  if (count != params->size()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint has %llu tensors, expected %zu",
                  static_cast<unsigned long long>(count), params->size()));
  }
  for (auto& p : *params) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!ReadRaw(buf, &pos, &rows, sizeof(rows)) ||
        !ReadRaw(buf, &pos, &cols, sizeof(cols))) {
      return RejectCorrupt(path, "truncated tensor header");
    }
    if (rows != p.value().rows() || cols != p.value().cols()) {
      return Status::InvalidArgument("checkpoint shape mismatch: " + path);
    }
    if (pos + rows * cols * sizeof(float) > payload) {
      return RejectCorrupt(path, "truncated tensor data");
    }
    ReadRaw(buf, &pos, p.mutable_value().data(),
            rows * cols * sizeof(float));
  }
  return Status::OK();
}

}  // namespace semtag::nn
