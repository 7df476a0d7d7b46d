// The verification service daemon (src/service): protocol round-trips,
// request semantics against the in-process engine, and -- the point of a
// networked daemon -- the error paths: bad magic, oversized and truncated
// frames, mid-request disconnects, unknown specs/fingerprints, the
// explicit-BUSY admission policy, and concurrent-client determinism across
// service thread counts. Every service here binds an ephemeral TCP
// loopback port (or a throwaway Unix socket), so tests can run in
// parallel.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "grid/torus2d.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"
#include "service/client.hpp"
#include "service/problem_registry.hpp"
#include "service/service.hpp"
#include "support/json.hpp"

using namespace lclgrid;
using service::JsonDebugClient;
using service::ServiceClient;
using service::ServiceConfig;
using service::VerificationService;
namespace wire = service::wire;

namespace {

ServiceConfig testConfig() {
  ServiceConfig config;
  config.serviceThreads = 2;
  config.enableTestOps = true;
  return config;
}

std::vector<int> properFourColouring(int n) {
  std::vector<int> labels(static_cast<std::size_t>(n) * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      labels[static_cast<std::size_t>(y) * n + x] = 2 * (y % 2) + (x % 2);
    }
  }
  return labels;
}

service::VerifyRequestFrame verifyFrame(const std::string& spec, int n,
                                        std::span<const int> labels,
                                        bool count = true) {
  service::VerifyRequestFrame frame;
  frame.spec = spec;
  frame.countViolations = count;
  frame.n = static_cast<std::uint32_t>(n);
  frame.labels = labels;
  return frame;
}

std::string tempName(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

}  // namespace

TEST(ServiceProtocol, HeaderAndPayloadRoundTrips) {
  std::vector<std::uint8_t> bytes;
  wire::appendHeader(bytes, wire::FrameType::kVerify, 42, 1234);
  ASSERT_EQ(bytes.size(), wire::kHeaderBytes);
  wire::FrameHeader header;
  ASSERT_TRUE(wire::decodeHeader(bytes.data(), &header));
  EXPECT_EQ(header.type, wire::FrameType::kVerify);
  EXPECT_EQ(header.requestId, 42u);
  EXPECT_EQ(header.payloadBytes, 1234u);
  bytes[0] = 'X';
  EXPECT_FALSE(wire::decodeHeader(bytes.data(), &header));

  const std::vector<int> labels = {0, 1, 2, 3};
  service::VerifyRequestFrame request;
  request.spec = "vc:4";
  request.countViolations = true;
  request.tierPin = 2;
  request.threads = 3;
  request.n = 2;
  request.labels = labels;
  const std::vector<std::uint8_t> payload = encodeVerifyRequest(request);
  const service::VerifyRequestFrame decoded = service::decodeVerifyRequest(payload);
  EXPECT_EQ(decoded.spec, "vc:4");
  EXPECT_TRUE(decoded.countViolations);
  EXPECT_EQ(decoded.tierPin, 2);
  EXPECT_EQ(decoded.threads, 3u);
  ASSERT_EQ(decoded.labels.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(decoded.labels[i], labels[i]);
  }

  service::VerifyResultFrame result;
  result.feasible = true;
  result.tier = 2;
  result.violations = 7;
  result.labellings = 3;
  result.fingerprint = 0xabcdef0102030405ull;
  result.nanos = 123456;
  result.violationsPerLabelling = {0, 7, 0};
  const service::VerifyResultFrame echoed =
      service::decodeVerifyResult(encodeVerifyResult(result));
  EXPECT_EQ(echoed.feasible, result.feasible);
  EXPECT_EQ(echoed.violations, result.violations);
  EXPECT_EQ(echoed.fingerprint, result.fingerprint);
  EXPECT_EQ(echoed.violationsPerLabelling, result.violationsPerLabelling);

  service::ClassifyRequestFrame classifyRequest;
  classifyRequest.spec = "cmis";
  const service::ClassifyRequestFrame classifyEchoed =
      service::decodeClassifyRequest(encodeClassifyRequest(classifyRequest));
  EXPECT_EQ(classifyEchoed.spec, "cmis");
}

TEST(ServiceProtocol, MalformedPayloadsThrow) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(service::decodeVerifyRequest(empty), service::ProtocolError);
  // A spec length pointing past the payload.
  service::VerifyRequestFrame request;
  request.spec = "vc:4";
  request.labelling = service::LabellingKind::kPath;
  request.path = "x";
  std::vector<std::uint8_t> payload = encodeVerifyRequest(request);
  payload[28] = 0xff;  // specLen low byte
  EXPECT_THROW(service::decodeVerifyRequest(payload), service::ProtocolError);
  // Label payload not matching batch * n^dims.
  const std::vector<int> labels = {0, 1, 2};
  service::VerifyRequestFrame wrong;
  wrong.spec = "vc:4";
  wrong.n = 2;  // needs 4 labels, has 3
  wrong.labels = labels;
  std::vector<std::uint8_t> bad;
  EXPECT_NO_THROW(bad = encodeVerifyRequest(wrong));
  EXPECT_THROW(service::decodeVerifyRequest(bad), service::ProtocolError);

  // Enum bytes outside their enumerations are errors, not aliases of a
  // valid value: problemRef (byte 0), labelling (byte 2), tierPin (byte 3).
  const std::vector<int> four = {0, 1, 2, 3};
  service::VerifyRequestFrame valid;
  valid.spec = "vc:4";
  valid.n = 2;
  valid.labels = four;
  const std::vector<std::uint8_t> good = encodeVerifyRequest(valid);
  ASSERT_NO_THROW(service::decodeVerifyRequest(good));
  for (const auto& [offset, value] :
       {std::pair{0, 2}, std::pair{2, 2}, std::pair{3, 4}}) {
    std::vector<std::uint8_t> mutated = good;
    mutated.at(static_cast<std::size_t>(offset)) =
        static_cast<std::uint8_t>(value);
    EXPECT_THROW(service::decodeVerifyRequest(mutated), service::ProtocolError)
        << "byte " << offset << " = " << value;
  }
  service::ClassifyRequestFrame classify;
  classify.spec = "cmis";
  std::vector<std::uint8_t> classifyPayload = encodeClassifyRequest(classify);
  classifyPayload[0] = 2;  // problemRef
  EXPECT_THROW(service::decodeClassifyRequest(classifyPayload),
               service::ProtocolError);
  // A result's perLabelling byte (byte 2) past 2, and trailing bytes after a
  // result that announces no per-labelling array.
  std::vector<std::uint8_t> resultPayload =
      encodeVerifyResult(service::VerifyResultFrame{});
  ASSERT_NO_THROW(service::decodeVerifyResult(resultPayload));
  std::vector<std::uint8_t> unknownKind = resultPayload;
  unknownKind[2] = 3;
  EXPECT_THROW(service::decodeVerifyResult(unknownKind),
               service::ProtocolError);
  resultPayload.push_back(0);
  EXPECT_THROW(service::decodeVerifyResult(resultPayload),
               service::ProtocolError);
}

TEST(ServiceDaemon, VerifyMatchesLocalEngine) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  EXPECT_TRUE(client.ping());

  const int n = 8;
  const Torus2D torus(n);
  const GridLcl local = problems::vertexColouring(4);
  std::vector<int> labels = properFourColouring(n);
  auto feasible = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(feasible.has_value());
  EXPECT_TRUE(feasible->feasible);
  EXPECT_EQ(feasible->violations, 0);
  EXPECT_EQ(feasible->fingerprint, local.table().fingerprint());

  labels[5] = labels[4];  // adjacent equal pair
  auto infeasible = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(infeasible.has_value());
  EXPECT_FALSE(infeasible->feasible);
  EXPECT_EQ(infeasible->violations, countViolations(torus, local, labels));
  daemon.stop();
}

TEST(ServiceDaemon, FingerprintReferenceAndUnknownFingerprint) {
  ServiceConfig config = testConfig();
  config.problemCacheCapacity = 2;
  VerificationService daemon(config);
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);
  const auto bySpec = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(bySpec.has_value());

  service::VerifyRequestFrame byFingerprint = verifyFrame("", n, labels);
  byFingerprint.problemRef = service::ProblemRefKind::kFingerprint;
  byFingerprint.fingerprint = bySpec->fingerprint;
  const auto cached = client.verify(byFingerprint);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->feasible, bySpec->feasible);

  const auto expectRemoteError = [&](const auto& send, const char* what) {
    try {
      (void)send();
      FAIL() << "expected RemoteError: " << what;
    } catch (const service::RemoteError& error) {
      EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
          << error.what();
    }
  };
  const auto verifyBy = [&](std::uint64_t fingerprint) {
    service::VerifyRequestFrame frame = byFingerprint;
    frame.fingerprint = fingerprint;
    return [&client, frame] { return client.verify(frame); };
  };
  expectRemoteError(verifyBy(bySpec->fingerprint ^ 1),
                    "unknown problem fingerprint");

  // A d-dimensional problem resolves by fingerprint too; classifying it
  // that way answers the 2D-only classification error.
  const std::vector<int> zeros(4 * 4 * 4, 0);
  service::VerifyRequestFrame frameD = verifyFrame("vcd:3:4", 4, zeros);
  frameD.dims = 3;
  const auto bySpecD = client.verify(frameD);
  ASSERT_TRUE(bySpecD.has_value());
  frameD.problemRef = service::ProblemRefKind::kFingerprint;
  frameD.fingerprint = bySpecD->fingerprint;
  frameD.spec.clear();
  const auto cachedD = client.verify(frameD);
  ASSERT_TRUE(cachedD.has_value());
  EXPECT_EQ(cachedD->violations, bySpecD->violations);
  EXPECT_EQ(cachedD->fingerprint, bySpecD->fingerprint);
  service::ClassifyRequestFrame classifyD;
  classifyD.problemRef = service::ProblemRefKind::kFingerprint;
  classifyD.fingerprint = bySpecD->fingerprint;
  expectRemoteError([&] { return client.classify(classifyD); },
                    "classification covers 2D grid and cycle problems");

  // A fingerprint reference is a use: it counts as a problem-cache hit and
  // refreshes recency, so the problem in constant use by fingerprint is not
  // the one evicted (capacity 2: vc:4, vc:3, then vc:5 evicts vc:3).
  const auto cacheHits = [&] {
    const auto stats = client.stats();
    return support::parseJson(stats.value())
        .at("service")
        .at("problem_cache")
        .at("hits")
        .asInt();
  };
  const auto vc3 = client.verify(verifyFrame("vc:3", n, labels));
  ASSERT_TRUE(vc3.has_value());
  const long long hitsBefore = cacheHits();
  ASSERT_TRUE(verifyBy(bySpec->fingerprint)().has_value());
  EXPECT_EQ(cacheHits(), hitsBefore + 1);
  ASSERT_TRUE(client.verify(verifyFrame("vc:5", n, labels)).has_value());
  const auto stillCached = verifyBy(bySpec->fingerprint)();
  ASSERT_TRUE(stillCached.has_value());
  EXPECT_EQ(stillCached->violations, bySpec->violations);
  // The evicted problem answers "resend the spec"; resending rebuilds it.
  expectRemoteError(verifyBy(vc3->fingerprint),
                    "unknown problem fingerprint");
  ASSERT_TRUE(client.verify(verifyFrame("vc:3", n, labels)).has_value());
  ASSERT_TRUE(verifyBy(vc3->fingerprint)().has_value());
  daemon.stop();
}

TEST(ServiceDaemon, BatchAndDProblemAndPathRequests) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());

  // Batch: 2 labellings, one proper and one broken.
  const int n = 6;
  std::vector<int> batch = properFourColouring(n);
  std::vector<int> broken = properFourColouring(n);
  broken[1] = broken[0];
  batch.insert(batch.end(), broken.begin(), broken.end());
  service::VerifyRequestFrame frame = verifyFrame("vc:4", n, batch);
  frame.batch = 2;
  const auto result = client.verify(frame);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->labellings, 2);
  ASSERT_EQ(result->violationsPerLabelling.size(), 2u);
  EXPECT_EQ(result->violationsPerLabelling[0], 0);
  EXPECT_GT(result->violationsPerLabelling[1], 0);

  // d-dimensional: xorParity on the 3-torus, all-zero labels are feasible
  // iff every line's parity is 0 -- all zeros: feasible.
  std::vector<int> zeros(4 * 4 * 4, 0);
  service::VerifyRequestFrame frameD = verifyFrame("xor:3", 4, zeros);
  frameD.dims = 3;
  const auto resultD = client.verify(frameD);
  ASSERT_TRUE(resultD.has_value());
  EXPECT_TRUE(resultD->feasible);

  // Path request: the daemon opens the LCLLABv1 file itself (stream tier).
  const std::string path = tempName("service_stream");
  const std::vector<int> labels = properFourColouring(8);
  writeLabellingFile(path, 4, 2, 8, labels);
  service::VerifyRequestFrame pathFrame;
  pathFrame.spec = "vc:4";
  pathFrame.countViolations = true;
  pathFrame.labelling = service::LabellingKind::kPath;
  pathFrame.path = path;
  const auto streamed = client.verify(pathFrame);
  ASSERT_TRUE(streamed.has_value());
  EXPECT_TRUE(streamed->feasible);
  EXPECT_EQ(streamed->tier, 3);  // VerifyTier::kStream
  std::remove(path.c_str());
  daemon.stop();
}

TEST(ServiceDaemon, ClassifyGridAndCycle) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());

  service::ClassifyRequestFrame cycleRequest;
  cycleRequest.spec = "cvc:3";
  const auto cycleJson = client.classify(cycleRequest);
  ASSERT_TRUE(cycleJson.has_value());
  const support::JsonValue cycleDoc = support::parseJson(*cycleJson);
  EXPECT_EQ(cycleDoc.at("engine").asString(), "cycle");
  EXPECT_FALSE(cycleDoc.at("complexity").asString().empty());

  service::ClassifyRequestFrame gridRequest;
  gridRequest.spec = "vc:2";
  const auto gridJson = client.classify(gridRequest);
  ASSERT_TRUE(gridJson.has_value());
  const support::JsonValue gridDoc = support::parseJson(*gridJson);
  EXPECT_EQ(gridDoc.at("engine").asString(), "grid");
  EXPECT_FALSE(gridDoc.at("cache_hit").asBool());

  // Second classification of the same problem: served from the report
  // cache.
  const auto cachedJson = client.classify(gridRequest);
  ASSERT_TRUE(cachedJson.has_value());
  EXPECT_TRUE(support::parseJson(*cachedJson).at("cache_hit").asBool());
  daemon.stop();
}

TEST(ServiceDaemon, ErrorPathsBadMagicOversizedTruncatedDisconnect) {
  ServiceConfig config = testConfig();
  config.maxPayloadBytes = 4096;
  VerificationService daemon(config);
  daemon.start();

  {  // Bad magic mid-stream: kError, then the daemon closes the stream.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    ASSERT_TRUE(client.ping());  // binary mode established
    std::vector<std::uint8_t> garbage(wire::kHeaderBytes, 0x5a);
    client.sendRaw(garbage);
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::FrameType::kError);
    EXPECT_FALSE(client.receive().has_value());  // connection closed
  }
  {  // Oversized frame: kError naming the limit, then close.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    client.sendFrame(wire::FrameType::kPing, 9, {});
    ASSERT_TRUE(client.receive().has_value());
    std::vector<std::uint8_t> header;
    wire::appendHeader(header, wire::FrameType::kVerify, 10, 1u << 20);
    client.sendRaw(header);
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::FrameType::kError);
    EXPECT_FALSE(client.receive().has_value());
  }
  {  // Truncated frame then disconnect: the daemon just drops the
     // connection; no crash, and it still serves new clients.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    std::vector<std::uint8_t> header;
    wire::appendHeader(header, wire::FrameType::kVerify, 11, 100);
    header.resize(header.size() + 10, 0);  // 10 of the promised 100 bytes
    client.sendRaw(header);
    client.close();
  }
  {  // Disconnect mid-request: the response hits a closed socket; the
     // daemon must shrug it off.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    std::vector<std::uint8_t> payload;
    wire::appendU32(payload, 50);  // ms
    client.sendFrame(wire::FrameType::kSleep, 12, payload);
    client.close();
  }
  ServiceClient survivor = ServiceClient::connectTcp(daemon.port());
  EXPECT_TRUE(survivor.ping());
  daemon.stop();
}

TEST(ServiceDaemon, UnknownSpecAndCycleVerifyRejected) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const std::vector<int> labels(16, 0);
  EXPECT_THROW((void)client.verify(verifyFrame("nope:1", 4, labels)),
               service::RemoteError);
  EXPECT_THROW((void)client.verify(verifyFrame("cmis", 4, labels)),
               service::RemoteError);
  service::ClassifyRequestFrame dRequest;
  dRequest.spec = "xor:3";
  EXPECT_THROW((void)client.classify(dRequest), service::RemoteError);
  daemon.stop();
}

TEST(ServiceDaemon, OverloadAnswersExplicitBusyNeverSilent) {
  ServiceConfig config = testConfig();
  config.serviceThreads = 1;
  config.maxQueuedPerClient = 1;
  VerificationService daemon(config);
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  ASSERT_TRUE(client.ping());

  // 5 sleeps back-to-back against a budget of 1: every frame must be
  // answered -- admitted ones with kPong, the excess with kBusy.
  const int frames = 5;
  for (int i = 0; i < frames; ++i) {
    std::vector<std::uint8_t> payload;
    wire::appendU32(payload, 30);
    client.sendFrame(wire::FrameType::kSleep,
                     static_cast<std::uint32_t>(100 + i), payload);
  }
  int pongs = 0;
  int busy = 0;
  for (int i = 0; i < frames; ++i) {
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value()) << "response " << i << " went missing";
    if (reply->type == wire::FrameType::kPong) ++pongs;
    if (reply->type == wire::FrameType::kBusy) ++busy;
  }
  EXPECT_EQ(pongs + busy, frames);
  EXPECT_GE(busy, 1);
  EXPECT_GE(pongs, 1);
  EXPECT_GE(daemon.counters().busyRejections, 1);

  // After the backlog drains, the client is admitted again.
  EXPECT_TRUE(client.sleepMs(1));
  daemon.stop();
}

TEST(ServiceDaemon, ConcurrentClientsDeterministicAcrossServiceThreads) {
  // Large enough to shard: with engineThreads > 1 every request (threads 0
  // = the daemon default) runs on the daemon's one shared engine pool,
  // concurrently with the other workers' requests.
  const int n = 64;
  const Torus2D torus(n);
  const GridLcl local = problems::vertexColouring(4);
  std::vector<int> broken = properFourColouring(n);
  broken[7] = broken[6];
  broken[40 * n + 63] = broken[40 * n];  // an equal pair across the wrap
  const std::int64_t expected = countViolations(torus, local, broken);
  ASSERT_GT(expected, 0);
  service::VerifyRequestFrame frame = verifyFrame("vc:4", n, broken);
  frame.threads = 0;

  for (int engineThreads : {1, 4}) {
    for (int serviceThreads : {1, 2, 8}) {
      ServiceConfig config = testConfig();
      config.serviceThreads = serviceThreads;
      config.engineThreads = engineThreads;
      VerificationService daemon(config);
      daemon.start();
      std::vector<std::thread> clients;
      std::vector<int> failures(8, 0);
      for (int c = 0; c < 8; ++c) {
        clients.emplace_back([&, c] {
          ServiceClient client = ServiceClient::connectTcp(daemon.port());
          for (int i = 0; i < 20; ++i) {
            const auto result = client.verify(frame);
            if (!result || result->violations != expected) {
              ++failures[static_cast<std::size_t>(c)];
            }
          }
        });
      }
      for (std::thread& thread : clients) thread.join();
      for (int count : failures) {
        EXPECT_EQ(count, 0) << "serviceThreads=" << serviceThreads
                            << " engineThreads=" << engineThreads;
      }
      daemon.stop();
    }
  }
}

TEST(ServiceDaemon, JsonDebugMode) {
  VerificationService daemon(testConfig());
  daemon.start();
  JsonDebugClient client = JsonDebugClient::connectTcp(daemon.port());

  const auto pong = client.request(R"({"op":"ping","id":1})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(support::parseJson(*pong).at("pong").asBool());

  const auto feasible = client.request(
      R"({"op":"verify","id":2,"problem":"vc:4","count":true,"n":2,)"
      R"("labels":[0,1,2,3]})");
  ASSERT_TRUE(feasible.has_value());
  const support::JsonValue doc = support::parseJson(*feasible);
  EXPECT_TRUE(doc.at("ok").asBool());
  EXPECT_TRUE(doc.at("feasible").asBool());
  EXPECT_EQ(doc.at("violations").asInt(), 0);

  // The steady-state idiom (docs/service.md): send back the fingerprint
  // string the spec request returned; the integer form also still works.
  const std::string fingerprint = doc.at("fingerprint").asString();
  const std::string labelsTail = R"(,"count":true,"n":2,"labels":[0,0,1,1]})";
  const auto byString = client.request(
      R"({"op":"verify","id":6,"fingerprint":")" + fingerprint + "\"" +
      labelsTail);
  ASSERT_TRUE(byString.has_value());
  const support::JsonValue byStringDoc = support::parseJson(*byString);
  ASSERT_EQ(byStringDoc.find("error"), nullptr) << *byString;
  EXPECT_EQ(byStringDoc.at("fingerprint").asString(), fingerprint);
  EXPECT_EQ(byStringDoc.at("violations").asInt(), 4);
  const auto fingerprintValue = static_cast<std::int64_t>(
      std::stoull(fingerprint.substr(2), nullptr, 16));
  const auto byInteger = client.request(
      R"({"op":"verify","id":7,"fingerprint":)" +
      std::to_string(fingerprintValue) + labelsTail);
  ASSERT_TRUE(byInteger.has_value());
  EXPECT_EQ(support::parseJson(*byInteger).at("violations").asInt(), 4)
      << *byInteger;
  // A malformed string is an error line; the connection stays usable.
  for (const char* bad : {"0x", "0xnothex", "12", "0x00000000000000001"}) {
    const auto malformed = client.request(
        R"({"op":"verify","id":8,"fingerprint":")" + std::string(bad) +
        "\"" + labelsTail);
    ASSERT_TRUE(malformed.has_value()) << bad;
    EXPECT_NE(support::parseJson(*malformed).find("error"), nullptr) << bad;
  }

  // An integer that does not fit its field is an error line, never a
  // wrapped value (4294967297 would verify as label 1, 4294967300 as n = 4);
  // the connection stays open. The checkerboard itself is feasible.
  std::vector<long long> checkerboard;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) checkerboard.push_back((x + y) % 2);
  }
  const auto labelsJson = [](const std::vector<long long>& labels) {
    std::string json = "[";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      json += (i == 0 ? "" : ",") + std::to_string(labels[i]);
    }
    return json + "]";
  };
  std::vector<long long> wideLabel = checkerboard;
  wideLabel[1] = 4294967297LL;  // 2^32 + 1; the checkerboard has 1 there
  for (const auto& [n, labels] :
       {std::pair{std::string("4"), wideLabel},
        std::pair{std::string("4294967300"), checkerboard}}) {
    const auto rejected = client.request(
        R"({"op":"verify","id":9,"problem":"vc:4","n":)" + n +
        R"(,"labels":)" + labelsJson(labels) + "}");
    ASSERT_TRUE(rejected.has_value()) << n;
    EXPECT_NE(support::parseJson(*rejected).find("error"), nullptr)
        << *rejected;
    const auto alive = client.request(R"({"op":"ping","id":10})");
    ASSERT_TRUE(alive.has_value()) << n;
    EXPECT_TRUE(support::parseJson(*alive).at("pong").asBool()) << *alive;
  }

  // Geometry whose node count overflows the torus types (65536^2 > INT_MAX,
  // 3000000^3 > LLONG_MAX) is an error line, not undefined behaviour; the
  // connection stays open.
  for (const char* huge :
       {R"({"op":"verify","id":11,"problem":"vc:4","n":65536,"labels":[0]})",
        R"({"op":"verify","id":11,"problem":"xor:3","dims":3,"n":3000000,)"
        R"("labels":[0]})"}) {
    const auto rejected = client.request(huge);
    ASSERT_TRUE(rejected.has_value()) << huge;
    EXPECT_NE(support::parseJson(*rejected).find("error"), nullptr)
        << *rejected;
    const auto alive = client.request(R"({"op":"ping","id":12})");
    ASSERT_TRUE(alive.has_value()) << huge;
    EXPECT_TRUE(support::parseJson(*alive).at("pong").asBool()) << *alive;
  }

  const auto classified =
      client.request(R"({"op":"classify","id":3,"problem":"cvc:3"})");
  ASSERT_TRUE(classified.has_value());
  EXPECT_EQ(support::parseJson(*classified)
                .at("classification")
                .at("engine")
                .asString(),
            "cycle");

  const auto stats = client.request(R"({"op":"stats","id":4})");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(support::parseJson(*stats)
                .at("stats")
                .at("service")
                .at("requests")
                .asInt(),
            3);

  const auto unknownOp = client.request(R"({"op":"frobnicate","id":5})");
  ASSERT_TRUE(unknownOp.has_value());
  EXPECT_NE(support::parseJson(*unknownOp).find("error"), nullptr);

  const auto parseError = client.request("this is not json");
  ASSERT_TRUE(parseError.has_value());
  EXPECT_NE(support::parseJson(*parseError).find("error"), nullptr);
  daemon.stop();
}

TEST(ServiceDaemon, JsonOverloadAnswersBusyLines) {
  ServiceConfig config = testConfig();
  config.serviceThreads = 1;
  config.maxQueuedPerClient = 1;
  VerificationService daemon(config);
  daemon.start();
  JsonDebugClient client = JsonDebugClient::connectTcp(daemon.port());

  // Three sleeps in one write against a budget of 1; a blank line is
  // skipped by the daemon, so request("") only reads the next response.
  std::vector<std::string> lines;
  const auto first = client.request(R"({"op":"sleep","id":1,"ms":50})"
                                    "\n"
                                    R"({"op":"sleep","id":2,"ms":50})"
                                    "\n"
                                    R"({"op":"sleep","id":3,"ms":50})");
  ASSERT_TRUE(first.has_value());
  lines.push_back(*first);
  for (int i = 0; i < 2; ++i) {
    const auto next = client.request("");
    ASSERT_TRUE(next.has_value()) << "response " << i + 1 << " went missing";
    lines.push_back(*next);
  }
  std::vector<int> answers(4, 0);
  int busy = 0;
  int pongs = 0;
  for (const std::string& line : lines) {
    const support::JsonValue doc = support::parseJson(line);
    const auto id = static_cast<std::size_t>(doc.at("id").asInt());
    ASSERT_GE(id, 1u) << line;
    ASSERT_LE(id, 3u) << line;
    ++answers[id];
    if (doc.find("busy") != nullptr) {
      EXPECT_EQ(line, R"({"id":)" + std::to_string(id) + R"(,"busy":true})");
      ++busy;
    } else {
      EXPECT_TRUE(doc.at("pong").asBool()) << line;
      ++pongs;
    }
  }
  EXPECT_EQ(answers, (std::vector<int>{0, 1, 1, 1}));
  EXPECT_GE(busy, 1);
  EXPECT_GE(pongs, 1);
  EXPECT_GE(daemon.counters().busyRejections, 1);
  daemon.stop();
}

TEST(ServiceDaemon, JsonDeadlineAnswersTimeoutLine) {
  ServiceConfig config = testConfig();
  config.serviceThreads = 1;
  config.requestDeadlineMs = 20;
  VerificationService daemon(config);
  daemon.start();
  JsonDebugClient client = JsonDebugClient::connectTcp(daemon.port());

  // The ping queues behind the sleep on the only worker and out-waits its
  // deadline: it is answered with a timeout line and never executed.
  const auto sleep = client.request(R"({"op":"sleep","id":1,"ms":100})"
                                    "\n"
                                    R"({"op":"ping","id":2})");
  ASSERT_TRUE(sleep.has_value());
  EXPECT_EQ(support::parseJson(*sleep).at("id").asInt(), 1) << *sleep;
  const auto ping = client.request("");
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(*ping, R"({"id":2,"timeout":true})");
  EXPECT_GE(daemon.counters().timeouts, 1);
  daemon.stop();
}

TEST(ServiceDaemon, StatsFrameCarriesServiceAndCacheCounters) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const std::vector<int> labels = properFourColouring(6);
  ASSERT_TRUE(client.verify(verifyFrame("vc:4", 6, labels)).has_value());
  ASSERT_TRUE(client.verify(verifyFrame("vc:4", 6, labels)).has_value());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  const support::JsonValue doc = support::parseJson(*stats);
  const support::JsonValue& svc = doc.at("service");
  EXPECT_GE(svc.at("requests").asInt(), 2);
  EXPECT_GE(svc.at("verify_requests").asInt(), 2);
  // Same spec twice: the second resolution hits the problem cache.
  EXPECT_GE(svc.at("problem_cache").at("hits").asInt(), 1);
  EXPECT_NE(doc.find("metrics"), nullptr);
  daemon.stop();
}

TEST(ServiceDaemon, UnixSocketAndShutdownRequest) {
  ServiceConfig config = testConfig();
  config.unixSocketPath = tempName("service_sock");
  VerificationService daemon(config);
  daemon.start();
  EXPECT_EQ(daemon.port(), -1);
  ServiceClient client = ServiceClient::connectUnix(config.unixSocketPath);
  EXPECT_TRUE(client.ping());
  const std::vector<int> labels = properFourColouring(6);
  EXPECT_TRUE(client.verify(verifyFrame("vc:4", 6, labels)).has_value());
  client.requestShutdown();
  daemon.waitForShutdown();  // returns because the client asked
  daemon.stop();
}
