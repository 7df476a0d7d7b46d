// Wire protocol of the verification service (docs/service.md). Two framings
// share one connection port:
//
//  * Binary (the default): length-prefixed frames with a 16-byte header --
//    4 magic bytes "LGS1", a type byte, a flags byte (reserved, zero), a
//    reserved u16, a u32 request id (echoed verbatim in the response) and a
//    u32 payload length -- followed by `payload length` bytes. All scalars
//    little-endian. The verify payload keeps its label array 4-byte
//    aligned, so the daemon streams inline batches zero-copy into the
//    engine (a span over the receive buffer, no unpack).
//
//  * Newline JSON (debug): when the first bytes of a connection are not the
//    magic, every line is one JSON request object and every response one
//    JSON line -- telnet/netcat-friendly; parsed with support::parseJson.
//    The daemon translates each line into the binary frame it stands for
//    (the payloads below, via their encoders) and renders each response
//    line from the binary response frame, so both framings share one
//    request path: the same decoder checks, admission, deadlines and
//    counters.
//
// Overload policy: a request arriving while the client already has
// maxQueuedPerClient requests admitted is answered with an explicit kBusy
// frame (same request id) and NOT executed -- never a silent drop, never a
// disconnect. Malformed payloads yield kError with a message; malformed
// *framing* (bad magic mid-stream, oversized payload) closes the
// connection after a best-effort kError, since the stream can no longer be
// re-synchronised.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lclgrid::service {

/// Malformed frame or payload; the daemon relays what() in a kError frame.
struct ProtocolError : std::runtime_error {
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

namespace wire {

inline constexpr unsigned char kMagic[4] = {'L', 'G', 'S', '1'};
inline constexpr std::size_t kHeaderBytes = 16;

enum class FrameType : std::uint8_t {
  // Requests.
  kPing = 0x01,
  kVerify = 0x02,
  kClassify = 0x03,
  kStats = 0x04,
  kShutdown = 0x05,
  /// Test-only (ServiceConfig::enableTestOps): hold a worker for the given
  /// milliseconds -- the deterministic way to drive the BUSY path.
  kSleep = 0x06,
  // Responses.
  kPong = 0x81,
  kVerifyResult = 0x82,
  kClassifyResult = 0x83,  // payload: UTF-8 JSON
  kStatsResult = 0x84,     // payload: UTF-8 JSON (telemetry metrics_snapshot)
  kBusy = 0x85,            // payload: empty
  kError = 0x86,           // payload: UTF-8 message
  kShutdownAck = 0x87,
  /// Deadline outcome, distinct from kBusy (back-pressure: retry later)
  /// and kError (the request itself is bad): the request was admitted but
  /// its deadline expired before a worker could run it, or the daemon shed
  /// it while draining. The request was NOT executed. Payload: empty.
  kTimeout = 0x88,
};

struct FrameHeader {
  FrameType type = FrameType::kPing;
  std::uint32_t requestId = 0;
  std::uint32_t payloadBytes = 0;
};

/// Appends a 16-byte header to `out`.
void appendHeader(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t requestId, std::uint32_t payloadBytes);

/// Decodes the 16 bytes at `bytes`; returns false iff the magic mismatches
/// (the caller decides between JSON debug mode and a framing error).
bool decodeHeader(const std::uint8_t* bytes, FrameHeader* header);

}  // namespace wire

// --- verify request / result payloads --------------------------------------

enum class ProblemRefKind : std::uint8_t { kSpec = 0, kFingerprint = 1 };
enum class LabellingKind : std::uint8_t { kInline = 0, kPath = 1 };

/// Fixed prefix: 40 bytes -- u8 problemRef, u8 countViolations, u8
/// labelling, u8 tierPin, u32 threads, u64 fingerprint, u32 dims, u32 n,
/// u32 batch, u32 specLen, u32 pathLen, u32 flags -- then the spec
/// bytes, the path bytes, zero padding to a 4-byte boundary, and batch *
/// n^dims little-endian int32 labels (inline labellings only). The flags
/// word was reserved-zero before the degradation protocol, so old encoders
/// interoperate (bit 0 = allowDegrade).
struct VerifyRequestFrame {
  ProblemRefKind problemRef = ProblemRefKind::kSpec;
  bool countViolations = false;
  LabellingKind labelling = LabellingKind::kInline;
  std::uint8_t tierPin = 0;  // mirrors lclgrid::TierPin's enumerator order
  std::uint32_t threads = 1;
  std::uint64_t fingerprint = 0;
  std::uint32_t dims = 2;
  std::uint32_t n = 0;
  std::uint32_t batch = 1;
  /// Under shed pressure the daemon may downgrade this countViolations
  /// request to early-exit verify (docs/robustness.md); the result then
  /// carries degraded = true and `violations` is only a lower bound.
  bool allowDegrade = false;
  std::string spec;
  std::string path;
  /// Decoded frames: a view into the receive buffer (zero-copy); valid
  /// while that buffer lives.
  std::span<const int> labels;
};

std::vector<std::uint8_t> encodeVerifyRequest(const VerifyRequestFrame& frame);
/// Throws ProtocolError on truncation, length mismatches, an unknown
/// problemRef / labelling / tierPin byte, or a label payload that is not
/// exactly batch * n^dims int32 words.
VerifyRequestFrame decodeVerifyRequest(std::span<const std::uint8_t> payload);

/// Fixed prefix: 32 bytes -- u8 feasible, u8 tier (lclgrid::VerifyTier
/// order), u8 perLabelling (0 none / 1 feasible bytes / 2 violation i64s),
/// u8 flags (was reserved-zero; bit 0 = degraded), u32 labellings, i64
/// violations, u64 fingerprint, i64 nanos -- then the per-labelling array
/// when perLabelling != 0.
struct VerifyResultFrame {
  bool feasible = false;
  std::uint8_t tier = 0;
  /// True when the daemon downgraded a countViolations request to
  /// early-exit verify under shed pressure (the request allowed it);
  /// `violations` is then 0 or a lower bound, not an exact count.
  bool degraded = false;
  std::int64_t violations = 0;
  std::int64_t labellings = 1;
  std::uint64_t fingerprint = 0;
  std::int64_t nanos = 0;
  std::vector<std::uint8_t> feasiblePerLabelling;
  std::vector<std::int64_t> violationsPerLabelling;
};

std::vector<std::uint8_t> encodeVerifyResult(const VerifyResultFrame& frame);
/// Throws ProtocolError on truncation, an unknown perLabelling byte, or a
/// payload longer or shorter than its per-labelling array says.
VerifyResultFrame decodeVerifyResult(std::span<const std::uint8_t> payload);

// --- classify request payload ----------------------------------------------
// (Classify and stats *responses* are JSON text payloads; the hot path is
// verify, which stays fully binary.)

/// Fixed prefix: 16 bytes -- u8 problemRef, 3 reserved bytes, u32 specLen,
/// u64 fingerprint -- then the spec bytes.
struct ClassifyRequestFrame {
  ProblemRefKind problemRef = ProblemRefKind::kSpec;
  std::uint64_t fingerprint = 0;
  std::string spec;
};

std::vector<std::uint8_t> encodeClassifyRequest(
    const ClassifyRequestFrame& frame);
/// Throws ProtocolError on truncation, an unknown problemRef byte, or a
/// spec length that does not match the payload.
ClassifyRequestFrame decodeClassifyRequest(
    std::span<const std::uint8_t> payload);

// --- little-endian scalar helpers (shared with tests) -----------------------

namespace wire {

void appendU32(std::vector<std::uint8_t>& out, std::uint32_t value);
void appendU64(std::vector<std::uint8_t>& out, std::uint64_t value);
void appendI64(std::vector<std::uint8_t>& out, std::int64_t value);

/// Bounds-checked reads advancing `offset`; throw ProtocolError past end.
std::uint8_t readU8(std::span<const std::uint8_t> bytes, std::size_t& offset);
std::uint32_t readU32(std::span<const std::uint8_t> bytes,
                      std::size_t& offset);
std::uint64_t readU64(std::span<const std::uint8_t> bytes,
                      std::size_t& offset);
std::int64_t readI64(std::span<const std::uint8_t> bytes, std::size_t& offset);

}  // namespace wire

}  // namespace lclgrid::service
