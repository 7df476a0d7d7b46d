#include "service/protocol.hpp"

#include <cstring>
#include <string>

namespace lclgrid::service {

namespace wire {

namespace {

void appendBytes(std::vector<std::uint8_t>& out, const void* data,
                 std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + bytes);
}

}  // namespace

void appendU32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void appendU64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void appendI64(std::vector<std::uint8_t>& out, std::int64_t value) {
  appendU64(out, static_cast<std::uint64_t>(value));
}

std::uint8_t readU8(std::span<const std::uint8_t> bytes,
                    std::size_t& offset) {
  if (offset + 1 > bytes.size()) {
    throw ProtocolError("protocol: truncated payload");
  }
  return bytes[offset++];
}

std::uint32_t readU32(std::span<const std::uint8_t> bytes,
                      std::size_t& offset) {
  if (offset + 4 > bytes.size()) {
    throw ProtocolError("protocol: truncated payload");
  }
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(bytes[offset++]) << shift;
  }
  return value;
}

std::uint64_t readU64(std::span<const std::uint8_t> bytes,
                      std::size_t& offset) {
  if (offset + 8 > bytes.size()) {
    throw ProtocolError("protocol: truncated payload");
  }
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(bytes[offset++]) << shift;
  }
  return value;
}

std::int64_t readI64(std::span<const std::uint8_t> bytes,
                     std::size_t& offset) {
  return static_cast<std::int64_t>(readU64(bytes, offset));
}

void appendHeader(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t requestId, std::uint32_t payloadBytes) {
  appendBytes(out, kMagic, sizeof(kMagic));
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);  // flags
  out.push_back(0);  // reserved
  out.push_back(0);
  appendU32(out, requestId);
  appendU32(out, payloadBytes);
}

bool decodeHeader(const std::uint8_t* bytes, FrameHeader* header) {
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) return false;
  header->type = static_cast<FrameType>(bytes[4]);
  std::size_t offset = 8;
  const std::span<const std::uint8_t> rest(bytes, kHeaderBytes);
  header->requestId = readU32(rest, offset);
  header->payloadBytes = readU32(rest, offset);
  return true;
}

}  // namespace wire

namespace {

constexpr std::size_t kVerifyPrefixBytes = 40;
constexpr std::size_t kVerifyResultPrefixBytes = 32;
constexpr std::size_t kClassifyPrefixBytes = 16;

std::size_t padTo4(std::size_t offset) { return (offset + 3) & ~std::size_t{3}; }

/// An enum byte read off the wire; values above `max` are a ProtocolError
/// rather than silently meaning some other enumerator.
std::uint8_t readEnum(std::span<const std::uint8_t> payload,
                      std::size_t& offset, std::uint8_t max,
                      const char* field) {
  const std::uint8_t value = wire::readU8(payload, offset);
  if (value > max) {
    throw ProtocolError(std::string("protocol: unknown ") + field + " " +
                        std::to_string(value));
  }
  return value;
}

/// batch * n^dims label words, guarded against overflow; 0 on bad geometry
/// (the caller turns that into a ProtocolError with context).
std::uint64_t labelWordsOf(std::uint32_t dims, std::uint32_t n,
                           std::uint32_t batch) {
  if (dims == 0 || dims > 16 || n == 0 || batch == 0) return 0;
  std::uint64_t nodes = 1;
  for (std::uint32_t a = 0; a < dims; ++a) {
    if (nodes > (std::uint64_t{1} << 40) / n) return 0;
    nodes *= n;
  }
  if (batch > (std::uint64_t{1} << 40) / nodes) return 0;
  return nodes * batch;
}

}  // namespace

std::vector<std::uint8_t> encodeVerifyRequest(const VerifyRequestFrame& frame) {
  std::vector<std::uint8_t> out;
  const std::size_t labelBytes = frame.labels.size() * 4;
  out.reserve(kVerifyPrefixBytes + frame.spec.size() + frame.path.size() + 4 +
              labelBytes);
  out.push_back(static_cast<std::uint8_t>(frame.problemRef));
  out.push_back(frame.countViolations ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(frame.labelling));
  out.push_back(frame.tierPin);
  wire::appendU32(out, frame.threads);
  wire::appendU64(out, frame.fingerprint);
  wire::appendU32(out, frame.dims);
  wire::appendU32(out, frame.n);
  wire::appendU32(out, frame.batch);
  wire::appendU32(out, static_cast<std::uint32_t>(frame.spec.size()));
  wire::appendU32(out, static_cast<std::uint32_t>(frame.path.size()));
  wire::appendU32(out, frame.allowDegrade ? 1u : 0u);  // flags
  out.insert(out.end(), frame.spec.begin(), frame.spec.end());
  out.insert(out.end(), frame.path.begin(), frame.path.end());
  while (out.size() % 4 != 0) out.push_back(0);
  for (int label : frame.labels) {
    wire::appendU32(out, static_cast<std::uint32_t>(label));
  }
  return out;
}

VerifyRequestFrame decodeVerifyRequest(std::span<const std::uint8_t> payload) {
  VerifyRequestFrame frame;
  std::size_t offset = 0;
  frame.problemRef = static_cast<ProblemRefKind>(
      readEnum(payload, offset, 1, "problem reference kind"));
  frame.countViolations = wire::readU8(payload, offset) != 0;
  frame.labelling = static_cast<LabellingKind>(
      readEnum(payload, offset, 1, "labelling kind"));
  frame.tierPin = readEnum(payload, offset, 3, "tier pin");
  frame.threads = wire::readU32(payload, offset);
  frame.fingerprint = wire::readU64(payload, offset);
  frame.dims = wire::readU32(payload, offset);
  frame.n = wire::readU32(payload, offset);
  frame.batch = wire::readU32(payload, offset);
  const std::uint32_t specLen = wire::readU32(payload, offset);
  const std::uint32_t pathLen = wire::readU32(payload, offset);
  frame.allowDegrade = (wire::readU32(payload, offset) & 1u) != 0;  // flags
  if (offset + specLen + pathLen > payload.size()) {
    throw ProtocolError("protocol: verify spec/path overruns the payload");
  }
  frame.spec.assign(reinterpret_cast<const char*>(payload.data()) + offset,
                    specLen);
  offset += specLen;
  frame.path.assign(reinterpret_cast<const char*>(payload.data()) + offset,
                    pathLen);
  offset += pathLen;
  offset = padTo4(offset);
  if (frame.labelling == LabellingKind::kPath) {
    if (offset != payload.size()) {
      throw ProtocolError("protocol: path verify request carries labels");
    }
    return frame;
  }
  const std::uint64_t words = labelWordsOf(frame.dims, frame.n, frame.batch);
  if (words == 0) {
    throw ProtocolError("protocol: bad verify geometry (dims/n/batch)");
  }
  if (offset + words * 4 != payload.size()) {
    throw ProtocolError(
        "protocol: label payload is not batch * n^dims int32 words");
  }
  // Zero-copy hand-off: the receive buffer is allocator-aligned and the
  // label region starts on a 4-byte boundary, so the int32 view is valid.
  frame.labels = std::span<const int>(
      reinterpret_cast<const int*>(payload.data() + offset),
      static_cast<std::size_t>(words));
  return frame;
}

std::vector<std::uint8_t> encodeVerifyResult(const VerifyResultFrame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kVerifyResultPrefixBytes + frame.feasiblePerLabelling.size() +
              frame.violationsPerLabelling.size() * 8);
  out.push_back(frame.feasible ? 1 : 0);
  out.push_back(frame.tier);
  const std::uint8_t perLabelling = !frame.feasiblePerLabelling.empty() ? 1
                                    : !frame.violationsPerLabelling.empty()
                                        ? 2
                                        : 0;
  out.push_back(perLabelling);
  out.push_back(frame.degraded ? 1 : 0);  // flags
  wire::appendU32(out, static_cast<std::uint32_t>(frame.labellings));
  wire::appendI64(out, frame.violations);
  wire::appendU64(out, frame.fingerprint);
  wire::appendI64(out, frame.nanos);
  if (perLabelling == 1) {
    out.insert(out.end(), frame.feasiblePerLabelling.begin(),
               frame.feasiblePerLabelling.end());
  } else if (perLabelling == 2) {
    for (std::int64_t v : frame.violationsPerLabelling) {
      wire::appendI64(out, v);
    }
  }
  return out;
}

VerifyResultFrame decodeVerifyResult(std::span<const std::uint8_t> payload) {
  VerifyResultFrame frame;
  std::size_t offset = 0;
  frame.feasible = wire::readU8(payload, offset) != 0;
  frame.tier = wire::readU8(payload, offset);
  const std::uint8_t perLabelling =
      readEnum(payload, offset, 2, "per-labelling kind");
  frame.degraded = (wire::readU8(payload, offset) & 1u) != 0;  // flags
  const std::uint32_t labellings = wire::readU32(payload, offset);
  frame.labellings = labellings;
  frame.violations = wire::readI64(payload, offset);
  frame.fingerprint = wire::readU64(payload, offset);
  frame.nanos = wire::readI64(payload, offset);
  if (perLabelling == 0 && offset != payload.size()) {
    throw ProtocolError("protocol: verify result carries trailing bytes");
  }
  if (perLabelling == 1) {
    if (offset + labellings != payload.size()) {
      throw ProtocolError("protocol: verify result per-labelling mismatch");
    }
    frame.feasiblePerLabelling.assign(payload.begin() + offset,
                                      payload.end());
  } else if (perLabelling == 2) {
    if (offset + std::size_t{labellings} * 8 != payload.size()) {
      throw ProtocolError("protocol: verify result per-labelling mismatch");
    }
    frame.violationsPerLabelling.reserve(labellings);
    for (std::uint32_t i = 0; i < labellings; ++i) {
      frame.violationsPerLabelling.push_back(wire::readI64(payload, offset));
    }
  }
  return frame;
}

std::vector<std::uint8_t> encodeClassifyRequest(
    const ClassifyRequestFrame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kClassifyPrefixBytes + frame.spec.size());
  out.push_back(static_cast<std::uint8_t>(frame.problemRef));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  wire::appendU32(out, static_cast<std::uint32_t>(frame.spec.size()));
  wire::appendU64(out, frame.fingerprint);
  out.insert(out.end(), frame.spec.begin(), frame.spec.end());
  return out;
}

ClassifyRequestFrame decodeClassifyRequest(
    std::span<const std::uint8_t> payload) {
  ClassifyRequestFrame frame;
  std::size_t offset = 0;
  frame.problemRef = static_cast<ProblemRefKind>(
      readEnum(payload, offset, 1, "problem reference kind"));
  (void)wire::readU8(payload, offset);
  (void)wire::readU8(payload, offset);
  (void)wire::readU8(payload, offset);
  const std::uint32_t specLen = wire::readU32(payload, offset);
  frame.fingerprint = wire::readU64(payload, offset);
  if (offset + specLen != payload.size()) {
    throw ProtocolError("protocol: classify spec overruns the payload");
  }
  frame.spec.assign(reinterpret_cast<const char*>(payload.data()) + offset,
                    specLen);
  return frame;
}

}  // namespace lclgrid::service
