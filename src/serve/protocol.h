#ifndef SEMTAG_SERVE_PROTOCOL_H_
#define SEMTAG_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace semtag::serve {

/// Length-prefixed wire protocol of the tagging daemon (DESIGN.md "Serving
/// architecture"). Every frame, both directions:
///
///   [u32 LE length][u8 tag][payload: length-1 bytes]
///
/// where `length` counts the tag byte plus the payload, so an empty frame
/// has length 1. Requests carry an opcode tag, responses a status tag.
///
/// Score requests prefix the text with a client-chosen 8-byte LE ticket:
///
///   request  payload: [u64 LE ticket][UTF-8 text]
///   response payload: "<ticket> <model-version> <score %.17g>" (ASCII)
///
/// Responses to one connection may complete out of submission order
/// (dynamic batching groups concurrent requests from many connections),
/// so pipelining clients correlate on the echoed ticket. %.17g round-trips
/// an IEEE double exactly: the score a client parses is bit-identical to
/// the one the model computed.
///
/// Other ops: kPing echoes "pong". kStats returns a one-line JSON snapshot
/// (model version, traffic window, queue depth, shed count). kSwap's
/// payload names a CRC-sealed model-spec file (model_registry.h) inside the
/// replan spec dir (semtag_serve --spec-dir): a bare name, no '/', not "."
/// or ".."; anything else answers kError. The response arrives when the new
/// model is built and flipped in.
///
/// Load shedding is a first-class response: an admission-controlled
/// request that cannot be queued gets StatusCode::kShed immediately, never
/// a dropped connection, so clients can back off rather than retry-storm.

enum class Opcode : uint8_t {
  kScore = 0x01,
  kPing = 0x02,
  kStats = 0x03,
  kSwap = 0x04,
};

enum class StatusCode : uint8_t {
  kOk = 0x00,
  /// Admission control rejected the request (queue full / draining). The
  /// distinct code lets clients distinguish "overloaded, back off" from a
  /// malformed request.
  kShed = 0x01,
  kError = 0x02,
};

/// Frames larger than this are a protocol violation; the connection is
/// dropped (a length prefix of e.g. "GET / HTTP/1.1" would otherwise ask
/// for a gigabyte buffer).
inline constexpr uint32_t kMaxFrameBytes = 1 << 20;

/// Bytes of the length prefix.
inline constexpr size_t kHeaderBytes = 4;

/// Appends one framed message ([len][tag][payload]) to `out`.
void AppendFrame(uint8_t tag, std::string_view payload, std::string* out);

/// Builds a kScore request payload: [u64 LE ticket][text].
std::string ScorePayload(uint64_t ticket, std::string_view text);

/// Splits a kScore request payload back into (ticket, text). False when
/// the payload is shorter than the ticket.
bool ParseScorePayload(std::string_view payload, uint64_t* ticket,
                       std::string_view* text);

/// Formats / parses the score response payload
/// "<ticket> <version> <%.17g score>".
std::string FormatScoreResponse(uint64_t ticket, uint64_t version,
                                double score);
bool ParseScoreResponse(std::string_view payload, uint64_t* ticket,
                        uint64_t* version, double* score);

/// Incremental frame decoder: feed raw bytes as they arrive, pop complete
/// frames. One instance per connection direction.
class FrameReader {
 public:
  /// Appends newly read bytes. Returns false (permanently) once a frame
  /// declares a length of 0 or > kMaxFrameBytes — protocol violation, the
  /// caller should drop the connection.
  bool Feed(const char* data, size_t size);

  /// Pops the next complete frame into (tag, payload). False when no full
  /// frame is buffered yet (or after a violation).
  bool Next(uint8_t* tag, std::string* payload);

  bool violated() const { return violated_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out
  bool violated_ = false;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_PROTOCOL_H_
