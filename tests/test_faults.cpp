// The fault-injection framework (src/support/faultpoint) and the
// robustness machinery built on it: spec-grammar parsing, trigger
// semantics, the client's partial-I/O regression vectors, a fault matrix
// sweeping the registered service points at several service thread counts
// (every injected failure must yield a typed outcome -- never a hang, a
// crash, or a silently wrong answer), the streaming verifier's fault
// behaviour, fork-based crash-resume of the checkpointed streaming count
// at several distinct slab boundaries, queue-wait deadlines (kTimeout),
// graceful degradation under shed pressure, the retry/backoff client, and
// bounded-drain shutdown.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/thread_pool.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"
#include "service/service.hpp"
#include "support/faultpoint.hpp"
#include "verify_testing.hpp"

using namespace lclgrid;
using verify_testing::referenceCount;
using verify_testing::streamCount;
namespace fp = support::faultpoint;
using service::DisconnectError;
using service::RemoteError;
using service::RetryingClient;
using service::RetryPolicy;
using service::ServiceClient;
using service::ServiceConfig;
using service::TimeoutError;
using service::VerificationService;
namespace wire = service::wire;

namespace {

/// Every test that arms faults scopes them: leaking an armed point into
/// the next test would make the suite order-dependent.
struct FaultGuard {
  ~FaultGuard() { fp::disarmAll(); }
};

class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path_ = std::filesystem::path(::testing::TempDir()) /
            (stem + "-" + std::to_string(++counter) + ".tmp");
  }
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  std::string str() const { return path_.string(); }
  bool exists() const { return std::filesystem::exists(path_); }

 private:
  std::filesystem::path path_;
};

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

ServiceConfig testConfig(int serviceThreads) {
  ServiceConfig config;
  config.serviceThreads = serviceThreads;
  config.enableTestOps = true;
  return config;
}

}  // namespace

// --- spec grammar -----------------------------------------------------------

TEST(FaultSpecGrammar, ParsesActionsAndTriggers) {
  std::string point;
  fp::FaultSpec spec = fp::parseEntry("svc.a:errno=EPIPE@nth=3", &point);
  EXPECT_EQ(point, "svc.a");
  EXPECT_EQ(spec.action, fp::Action::kErrno);
  EXPECT_EQ(spec.errnoValue, EPIPE);
  EXPECT_EQ(spec.nth, 3);

  spec = fp::parseEntry("svc.b:errno=104", &point);
  EXPECT_EQ(spec.errnoValue, 104);

  spec = fp::parseEntry("svc.c:short=7@once", &point);
  EXPECT_EQ(spec.action, fp::Action::kShort);
  EXPECT_EQ(spec.arg, 7);
  EXPECT_TRUE(spec.oneShot);

  spec = fp::parseEntry("svc.d:delay=25", &point);
  EXPECT_EQ(spec.action, fp::Action::kDelay);
  EXPECT_EQ(spec.arg, 25);

  spec = fp::parseEntry("svc.e:drop@p=0.25@seed=42", &point);
  EXPECT_EQ(spec.action, fp::Action::kDrop);
  EXPECT_DOUBLE_EQ(spec.probability, 0.25);
  EXPECT_EQ(spec.seed, 42u);

  spec = fp::parseEntry("svc.f:abort", &point);
  EXPECT_EQ(spec.action, fp::Action::kAbort);
}

TEST(FaultSpecGrammar, MalformedEntriesThrow) {
  std::string point;
  EXPECT_THROW(fp::parseEntry("noaction", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:bogus", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:errno", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:errno=NOTANERRNO", &point),
               std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:short=-1", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:drop@p=1.5", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:drop@nth=0", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry(":drop", &point), std::invalid_argument);
  EXPECT_THROW(fp::parseEntry("p:drop@mystery=1", &point),
               std::invalid_argument);
}

TEST(FaultSpecGrammar, SpecStringArmsEveryEntry) {
  FaultGuard guard;
  EXPECT_EQ(fp::armSpecString(
                "grammar.x:errno=EIO@once,grammar.y:delay=1@p=0.5@seed=9"),
            2);
  EXPECT_THROW(fp::armSpecString("grammar.x:errno=EIO,broken"),
               std::invalid_argument);
}

// --- trigger semantics ------------------------------------------------------

TEST(FaultTriggers, NthFiresExactlyOnceThenDisarms) {
  FaultGuard guard;
  fp::armEntry("trigger.nth:errno=EIO@nth=3");
  int fired = 0;
  for (int hit = 1; hit <= 6; ++hit) {
    const auto fault = FAULT_POINT("trigger.nth");
    if (fault) {
      ++fired;
      EXPECT_EQ(hit, 3);
      EXPECT_EQ(fault.errnoValue, EIO);
    }
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fp::firedCount("trigger.nth"), 1);
  // The nth trigger disarmed the point: hits stop counting.
  EXPECT_EQ(fp::hitCount("trigger.nth"), 3);
}

TEST(FaultTriggers, OnceFiresOnFirstHit) {
  FaultGuard guard;
  fp::armEntry("trigger.once:drop@once");
  EXPECT_TRUE(static_cast<bool>(FAULT_POINT("trigger.once")));
  EXPECT_FALSE(static_cast<bool>(FAULT_POINT("trigger.once")));
  EXPECT_EQ(fp::firedCount("trigger.once"), 1);
}

TEST(FaultTriggers, ProbabilityIsSeededAndDeterministic) {
  FaultGuard guard;
  const auto run = [] {
    fp::armEntry("trigger.p:drop@p=0.5@seed=1234");
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(static_cast<bool>(FAULT_POINT("trigger.p")));
    }
    fp::disarm("trigger.p");
    return outcomes;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);  // same seed, same stream
  const long long fired = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 8);  // p=0.5 over 64 draws: wildly off means a broken RNG
  EXPECT_LT(fired, 56);
}

TEST(FaultTriggers, ReArmingResetsHitCounter) {
  FaultGuard guard;
  fp::armEntry("trigger.rearm:drop@nth=2");
  (void)FAULT_POINT("trigger.rearm");
  ASSERT_EQ(fp::hitCount("trigger.rearm"), 1);
  fp::armEntry("trigger.rearm:drop@nth=2");
  EXPECT_EQ(fp::hitCount("trigger.rearm"), 0);
}

// --- client partial-I/O regressions ----------------------------------------

TEST(ClientPartialIo, ShortWriteStillDeliversTheWholeFrame) {
  FaultGuard guard;
  VerificationService daemon(testConfig(1));
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);

  // Clamp ONE send to 3 bytes mid-request: the client's send loop must
  // finish the frame, not truncate it (a truncated frame would desync the
  // stream and the daemon would kill the connection).
  fp::armEntry("client.send:short=3@once");
  const auto result = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->feasible);
  EXPECT_EQ(result->violations, 0);
  daemon.stop();
}

TEST(ClientPartialIo, ShortReadStillAssemblesTheWholeReply) {
  FaultGuard guard;
  VerificationService daemon(testConfig(1));
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);

  fp::armEntry("client.recv:short=2@once");
  const auto result = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->feasible);
  daemon.stop();
}

TEST(ClientPartialIo, ServiceShortReadAndWriteAreAbsorbed) {
  FaultGuard guard;
  VerificationService daemon(testConfig(2));
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);

  fp::armEntry("service.read_request:short=4@once");
  auto result = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->feasible);

  fp::armEntry("service.write_response:short=8@once");
  result = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->feasible);
  daemon.stop();
}

// --- the fault matrix -------------------------------------------------------

TEST(FaultMatrix, EveryServicePointYieldsATypedOutcome) {
  // Entries paired with whether the daemon survives to serve the clean
  // follow-up on a FRESH connection (it must, for every entry).
  const std::vector<std::string> entries = {
      "service.accept:errno=ECONNRESET@once",
      "service.read_request:errno=ECONNRESET@once",
      "service.read_request:short=4@once",
      "service.dispatch:delay=2@once",
      "service.write_response:errno=EPIPE@once",
      "service.write_response:short=8@once",
      "service.write_response:drop@once",
      "client.connect:errno=ECONNREFUSED@once",
      "client.send:errno=EPIPE@once",
      "client.send:short=3@once",
      "client.recv:errno=ECONNRESET@once",
      "client.recv:errno=ETIMEDOUT@once",
      "client.recv:short=2@once",
  };
  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);
  std::vector<int> broken = labels;
  broken[0] = broken[1];  // adjacent equal labels: known violation count
  service::VerifyRequestFrame reference = verifyFrame("vc:4", n, broken);

  for (const int serviceThreads : {1, 2, 8}) {
    VerificationService daemon(testConfig(serviceThreads));
    daemon.start();

    // The uninjected truth, once per daemon.
    std::int64_t expectedViolations;
    {
      ServiceClient probe = ServiceClient::connectTcp(daemon.port());
      const auto truth = probe.verify(reference);
      ASSERT_TRUE(truth.has_value());
      ASSERT_FALSE(truth->feasible);
      expectedViolations = truth->violations;
      ASSERT_GT(expectedViolations, 0);
    }

    for (const std::string& entry : entries) {
      FaultGuard guard;
      fp::armEntry(entry);
      // Injected pass: the outcome must be TYPED -- a real result, or one
      // of the client's exception types. The deadline bounds every stall,
      // so a hang fails the test as a TimeoutError instead of wedging.
      bool sawResult = false;
      try {
        ServiceClient client = ServiceClient::connectTcp(daemon.port());
        client.setDeadlineMs(2000);
        const auto result = client.verify(reference);
        if (result.has_value()) {
          // An answer that does arrive must be the RIGHT answer.
          EXPECT_EQ(result->violations, expectedViolations)
              << entry << " threads=" << serviceThreads;
          sawResult = true;
        }
      } catch (const TimeoutError&) {
      } catch (const DisconnectError&) {
      } catch (const RemoteError&) {
      } catch (const std::runtime_error&) {
        // connect()-level failures (client.connect, refused accepts).
      }
      fp::disarmAll();

      // Clean follow-up on a fresh connection: the daemon survived and
      // still answers correctly.
      ServiceClient after = ServiceClient::connectTcp(daemon.port());
      after.setDeadlineMs(2000);
      const auto clean = after.verify(reference);
      ASSERT_TRUE(clean.has_value())
          << entry << " threads=" << serviceThreads;
      EXPECT_EQ(clean->violations, expectedViolations)
          << entry << " threads=" << serviceThreads;
      // Benign injections (delay, short) should not even cost the result.
      if (entry.find(":delay") != std::string::npos ||
          entry.find(":short") != std::string::npos) {
        EXPECT_TRUE(sawResult) << entry << " threads=" << serviceThreads;
      }
    }
    daemon.stop();
  }
}

// --- streaming verifier faults ----------------------------------------------

TEST(StreamFaults, MmapOpenFailureThrowsTyped) {
  FaultGuard guard;
  TempFile file("faults-mmap");
  writeLabellingFile(file.str(), 4, 2, 6, properFourColouring(6));
  fp::armEntry("mmap.open:errno=EIO@once");
  EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
  // Disarmed after firing: the same open now succeeds.
  StreamLabelling mapped(file.str());
  EXPECT_EQ(mapped.n(), 6);
}

TEST(StreamFaults, WriterAppendFailureThrowsTyped) {
  FaultGuard guard;
  TempFile file("faults-writer");
  StreamLabellingWriter writer(file.str(), 4, 2, 6);
  fp::armEntry("stream.writer_append:errno=ENOSPC@once");
  const std::vector<int> row(6, 0);
  EXPECT_THROW(writer.appendLabels(row), std::runtime_error);
}

TEST(StreamFaults, CheckpointWriteFailureDegradesToNoCheckpoint) {
  FaultGuard guard;
  const int n = 8;
  std::vector<int> labels = properFourColouring(n);
  labels[3] = labels[4];
  TempFile file("faults-ckpt-degrade");
  writeLabellingFile(file.str(), 4, 2, n, labels);
  StreamLabelling mapped(file.str());
  const GridLcl lcl = problems::vertexColouring(4);
  const std::int64_t reference = referenceCount(Torus2D(n), lcl, labels);

  TempFile checkpoint("faults-ckpt-degrade-ckpt");
  StreamWindow window;
  window.rows = 2;
  window.checkpointPath = checkpoint.str();
  fp::armEntry("stream.checkpoint_write:errno=EIO");  // every attempt fails
  // The count must still be exact -- a checkpoint is an optimisation, its
  // failure must never fail (or skew) verification.
  EXPECT_EQ(streamCount(mapped, lcl, window), reference);
  EXPECT_FALSE(checkpoint.exists());
}

TEST(StreamCheckpoint, RoundTripAndCorruptionRejection) {
  TempFile path("faults-ckpt-roundtrip");
  StreamCheckpoint checkpoint;
  checkpoint.functionalPhase = true;
  checkpoint.labellingFingerprint = 0x1122334455667788ull;
  checkpoint.problemFingerprint = 0x99aabbccddeeff00ull;
  checkpoint.nextRow = 12;
  checkpoint.total = 345;
  ASSERT_TRUE(writeStreamCheckpoint(path.str(), checkpoint));
  const auto loaded = loadStreamCheckpoint(path.str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->functionalPhase, checkpoint.functionalPhase);
  EXPECT_EQ(loaded->labellingFingerprint, checkpoint.labellingFingerprint);
  EXPECT_EQ(loaded->problemFingerprint, checkpoint.problemFingerprint);
  EXPECT_EQ(loaded->nextRow, checkpoint.nextRow);
  EXPECT_EQ(loaded->total, checkpoint.total);

  // One flipped byte must fail the checksum.
  {
    std::FILE* f = std::fopen(path.str().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  EXPECT_FALSE(loadStreamCheckpoint(path.str()).has_value());
  EXPECT_FALSE(loadStreamCheckpoint(path.str() + ".missing").has_value());
}

// --- fork-based crash-resume ------------------------------------------------

TEST(StreamCrashResume, BitIdenticalAcrossAbortAtSlabBoundaries) {
  const int n = 12;  // 12 rows of 12; rows=2 slabs -> 6 slab boundaries
  std::vector<int> labels = properFourColouring(n);
  // Scatter violations so partial sums differ per slab.
  labels[5] = labels[6];
  labels[40] = labels[41];
  labels[100] = labels[101];
  TempFile file("faults-resume");
  writeLabellingFile(file.str(), 4, 2, n, labels);
  const GridLcl lcl = problems::vertexColouring(4);

  const std::int64_t reference = referenceCount(Torus2D(n), lcl, labels);
  ASSERT_GT(reference, 0);
  {
    StreamLabelling mapped(file.str());
    ASSERT_EQ(streamCount(mapped, lcl), reference);
  }

  // Kill the pass immediately after its 1st, 2nd and 4th durable
  // checkpoint write -- three DISTINCT slab boundaries -- then resume,
  // serially and sharded (checkpoints record exact row-range sums, so the
  // resuming pass's thread count is free).
  for (const int killAfter : {1, 2, 4}) {
    TempFile checkpoint("faults-resume-ckpt");
    StreamWindow window;
    window.rows = 2;
    window.checkpointPath = checkpoint.str();

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // In the child: abort right after the killAfter-th checkpoint is
      // durable (the stream.checkpoint point fires AFTER the rename).
      fp::armEntry("stream.checkpoint:abort@nth=" +
                   std::to_string(killAfter));
      try {
        StreamLabelling mapped(file.str());
        (void)streamCount(mapped, lcl, window);
      } catch (...) {
      }
      _exit(0);  // reached only if the abort never fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
        << "killAfter=" << killAfter
        << ": the child finished without crashing";
    ASSERT_TRUE(checkpoint.exists()) << "killAfter=" << killAfter;

    // The resumed pass picks the cursor up mid-file and lands on the
    // EXACT uninterrupted count.
    StreamLabelling mapped(file.str());
    const int resumeThreads = killAfter == 1 ? 1 : 2 * killAfter;
    EXPECT_EQ(streamCount(mapped, lcl, window, {.threads = resumeThreads}),
              reference)
        << "killAfter=" << killAfter;
    // Completion removes the sidecar.
    EXPECT_FALSE(checkpoint.exists()) << "killAfter=" << killAfter;
  }
}

TEST(StreamCrashResume, StaleFingerprintRestartsFromScratch) {
  const int n = 8;
  std::vector<int> labels = properFourColouring(n);
  labels[9] = labels[10];
  TempFile file("faults-stale");
  writeLabellingFile(file.str(), 4, 2, n, labels);
  const GridLcl lcl = problems::vertexColouring(4);
  StreamLabelling mapped(file.str());
  const std::int64_t reference = referenceCount(Torus2D(n), lcl, labels);

  // A checkpoint from "some other file": the fingerprints cannot match,
  // so the pass must ignore it and still produce the exact count.
  TempFile checkpoint("faults-stale-ckpt");
  StreamCheckpoint stale;
  stale.labellingFingerprint = 0xdeadbeef;
  stale.problemFingerprint = 0xfeedface;
  stale.nextRow = 4;
  stale.total = 9999;
  ASSERT_TRUE(writeStreamCheckpoint(checkpoint.str(), stale));

  StreamWindow window;
  window.rows = 2;
  window.checkpointPath = checkpoint.str();
  EXPECT_EQ(streamCount(mapped, lcl, window), reference);
  EXPECT_FALSE(checkpoint.exists());
}

// --- deadlines and kTimeout -------------------------------------------------

TEST(ServiceDeadline, ExpiredQueueWaitAnswersTimeout) {
  ServiceConfig config = testConfig(1);
  config.requestDeadlineMs = 50;
  VerificationService daemon(config);
  daemon.start();

  // Occupy the single worker, then queue a ping that will out-wait its
  // deadline. Raw frames: a blocking call() would serialise the client.
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  std::vector<std::uint8_t> sleepPayload;
  wire::appendU32(sleepPayload, 300);
  client.sendFrame(wire::FrameType::kSleep, 1, sleepPayload);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.sendFrame(wire::FrameType::kPing, 2, {});

  const auto first = client.receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, wire::FrameType::kPong);
  EXPECT_EQ(first->requestId, 1u);
  const auto second = client.receive();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, wire::FrameType::kTimeout);
  EXPECT_EQ(second->requestId, 2u);
  EXPECT_GE(daemon.counters().timeouts, 1);
  daemon.stop();
}

TEST(ServiceDeadline, ClientSurfacesKTimeoutAsTimeoutError) {
  ServiceConfig config = testConfig(1);
  config.requestDeadlineMs = 30;
  VerificationService daemon(config);
  daemon.start();

  ServiceClient blocker = ServiceClient::connectTcp(daemon.port());
  std::vector<std::uint8_t> sleepPayload;
  wire::appendU32(sleepPayload, 250);
  blocker.sendFrame(wire::FrameType::kSleep, 1, sleepPayload);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ServiceClient verifier = ServiceClient::connectTcp(daemon.port());
  const std::vector<int> labels = properFourColouring(6);
  EXPECT_THROW(verifier.verify(verifyFrame("vc:4", 6, labels)), TimeoutError);
  // A daemon-side kTimeout leaves the stream framed: the SAME connection
  // works again once the worker frees up.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto after = verifier.verify(verifyFrame("vc:4", 6, labels));
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->feasible);
  daemon.stop();
}

// --- graceful degradation ---------------------------------------------------

TEST(ServiceDegradation, ShedDowngradesOptedInCountsToVerify) {
  ServiceConfig config = testConfig(1);
  config.shedQueueDepth = 1;  // shed as soon as anything queues
  VerificationService daemon(config);
  daemon.start();

  const int n = 6;
  std::vector<int> broken = properFourColouring(n);
  broken[0] = broken[1];
  service::VerifyRequestFrame frame = verifyFrame("vc:4", n, broken);
  frame.allowDegrade = true;

  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  std::vector<std::uint8_t> sleepPayload;
  wire::appendU32(sleepPayload, 200);
  client.sendFrame(wire::FrameType::kSleep, 1, sleepPayload);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Two queued requests keep the depth at the threshold when the first
  // verify dispatches, so it sees shed pressure.
  const std::vector<std::uint8_t> payload =
      service::encodeVerifyRequest(frame);
  client.sendFrame(wire::FrameType::kVerify, 2, payload);
  client.sendFrame(wire::FrameType::kVerify, 3, payload);

  ASSERT_TRUE(client.receive().has_value());  // pong for the sleep
  const auto first = client.receive();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->type, wire::FrameType::kVerifyResult);
  const auto result = service::decodeVerifyResult(first->payload);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.feasible);  // the downgrade keeps the verdict exact
  ASSERT_TRUE(client.receive().has_value());
  EXPECT_GE(daemon.counters().shedDowngrades, 1);
  daemon.stop();
}

TEST(ServiceDegradation, NoDegradeWithoutOptInOrWhenDisabled) {
  for (const bool shedEnabled : {true, false}) {
    ServiceConfig config = testConfig(1);
    config.shedQueueDepth = 1;
    config.shedEnabled = shedEnabled;
    VerificationService daemon(config);
    daemon.start();

    const int n = 6;
    std::vector<int> broken = properFourColouring(n);
    broken[0] = broken[1];
    service::VerifyRequestFrame frame = verifyFrame("vc:4", n, broken);
    frame.allowDegrade = !shedEnabled;  // opted in, but shedding is off

    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    std::vector<std::uint8_t> sleepPayload;
    wire::appendU32(sleepPayload, 150);
    client.sendFrame(wire::FrameType::kSleep, 1, sleepPayload);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::vector<std::uint8_t> payload =
        service::encodeVerifyRequest(frame);
    client.sendFrame(wire::FrameType::kVerify, 2, payload);
    client.sendFrame(wire::FrameType::kVerify, 3, payload);

    ASSERT_TRUE(client.receive().has_value());
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, wire::FrameType::kVerifyResult);
    const auto result = service::decodeVerifyResult(reply->payload);
    EXPECT_FALSE(result.degraded);
    EXPECT_GT(result.violations, 0);  // the exact count survived
    ASSERT_TRUE(client.receive().has_value());
    daemon.stop();
  }
}

// --- retry / backoff --------------------------------------------------------

TEST(Retry, BackoffScheduleIsSeededBoundedAndDecorrelated) {
  VerificationService daemon(testConfig(1));
  daemon.start();
  RetryPolicy policy;
  policy.baseDelayMs = 2;
  policy.maxDelayMs = 50;
  policy.jitterSeed = 77;
  RetryingClient a(ServiceClient::connectTcp(daemon.port()), policy);
  RetryingClient b(ServiceClient::connectTcp(daemon.port()), policy);
  std::vector<int> draws;
  for (int i = 0; i < 16; ++i) {
    const int sleepA = a.drawBackoffMs();
    EXPECT_EQ(sleepA, b.drawBackoffMs());  // same seed, same schedule
    EXPECT_GE(sleepA, policy.baseDelayMs);
    EXPECT_LE(sleepA, policy.maxDelayMs);
    draws.push_back(sleepA);
  }
  // Decorrelated jitter is not a deterministic doubling ladder.
  EXPECT_GT(std::set<int>(draws.begin(), draws.end()).size(), 3u);
  daemon.stop();
}

TEST(Retry, ReconnectsAndSucceedsAfterInjectedDisconnect) {
  FaultGuard guard;
  VerificationService daemon(testConfig(2));
  daemon.start();
  RetryPolicy policy;
  policy.baseDelayMs = 1;
  policy.maxDelayMs = 5;
  RetryingClient client(ServiceClient::connectTcp(daemon.port()), policy);

  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);
  fp::armEntry("client.recv:errno=ECONNRESET@once");
  const auto result = client.verify(verifyFrame("vc:4", n, labels));
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(client.retryStats().disconnects, 1);
  EXPECT_EQ(client.retryStats().reconnects, 1);
  EXPECT_GE(client.retryStats().attempts, 2);
  daemon.stop();
}

TEST(Retry, ClientDeadlineExpiryRetriesThroughReconnect) {
  FaultGuard guard;
  VerificationService daemon(testConfig(2));
  daemon.start();
  RetryPolicy policy;
  policy.baseDelayMs = 1;
  policy.maxDelayMs = 5;
  ServiceClient raw = ServiceClient::connectTcp(daemon.port());
  raw.setDeadlineMs(1000);
  RetryingClient client(std::move(raw), policy);

  // ETIMEDOUT from recv is exactly what a tripped SO_RCVTIMEO looks like:
  // the client must close (stream desynchronised) and the retry must
  // reconnect before the next attempt.
  fp::armEntry("client.recv:errno=ETIMEDOUT@once");
  const auto result =
      client.verify(verifyFrame("vc:4", 6, properFourColouring(6)));
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(client.retryStats().timeouts, 1);
  EXPECT_EQ(client.retryStats().reconnects, 1);
  daemon.stop();
}

TEST(Retry, ExhaustionRethrowsTheTypedFailure) {
  FaultGuard guard;
  VerificationService daemon(testConfig(1));
  daemon.start();
  RetryPolicy policy;
  policy.maxAttempts = 3;
  policy.baseDelayMs = 0;
  policy.maxDelayMs = 1;
  RetryingClient client(ServiceClient::connectTcp(daemon.port()), policy);

  fp::armEntry("client.recv:errno=ECONNRESET");  // every attempt dies
  EXPECT_THROW(
      client.verify(verifyFrame("vc:4", 6, properFourColouring(6))),
      DisconnectError);
  EXPECT_EQ(client.retryStats().attempts, 3);
  daemon.stop();
}

TEST(Retry, DaemonErrorsNeverRetry) {
  VerificationService daemon(testConfig(1));
  daemon.start();
  RetryPolicy policy;
  RetryingClient client(ServiceClient::connectTcp(daemon.port()), policy);
  const std::vector<int> labels = properFourColouring(6);  // outlives `bad`
  service::VerifyRequestFrame bad = verifyFrame("no-such-problem", 6, labels);
  EXPECT_THROW(client.verify(bad), RemoteError);
  EXPECT_EQ(client.retryStats().attempts, 1);  // one try, no retry storm
  daemon.stop();
}

// --- bounded-drain shutdown -------------------------------------------------

TEST(ServiceDrain, QueuedRemainderAnswersTimeoutNotSilence) {
  ServiceConfig config = testConfig(1);
  config.drainTimeoutMs = 0;  // cancel the queue immediately on stop()
  VerificationService daemon(config);
  daemon.start();

  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  std::vector<std::uint8_t> sleepPayload;
  wire::appendU32(sleepPayload, 200);
  client.sendFrame(wire::FrameType::kSleep, 1, sleepPayload);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.sendFrame(wire::FrameType::kPing, 2, {});
  client.sendFrame(wire::FrameType::kPing, 3, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread stopper([&daemon] { daemon.stop(); });
  // The executing sleep completes (never preempted); the queued pings are
  // answered kTimeout -- typed, not dropped, not executed.
  const auto first = client.receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, wire::FrameType::kPong);
  const auto second = client.receive();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, wire::FrameType::kTimeout);
  const auto third = client.receive();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->type, wire::FrameType::kTimeout);
  stopper.join();
  EXPECT_EQ(daemon.counters().timeouts, 2);
}

TEST(ServiceDrain, DrainWindowLetsQueuedWorkFinish) {
  ServiceConfig config = testConfig(1);
  config.drainTimeoutMs = 2000;
  VerificationService daemon(config);
  daemon.start();

  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  std::vector<std::uint8_t> sleepPayload;
  wire::appendU32(sleepPayload, 50);
  client.sendFrame(wire::FrameType::kSleep, 1, sleepPayload);
  client.sendFrame(wire::FrameType::kPing, 2, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  std::thread stopper([&daemon] { daemon.stop(); });
  const auto first = client.receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, wire::FrameType::kPong);
  const auto second = client.receive();
  ASSERT_TRUE(second.has_value());
  // Inside the drain window the queued ping executes normally.
  EXPECT_EQ(second->type, wire::FrameType::kPong);
  stopper.join();
  EXPECT_EQ(daemon.counters().timeouts, 0);
}

// --- registry coverage ------------------------------------------------------

TEST(FaultRegistry, EveryHardenedPointIsRegistered) {
  // Drive each instrumented subsystem once so the lazy function-local
  // registrations have all run, then assert the registry knows the full
  // set docs/robustness.md documents.
  {
    VerificationService daemon(testConfig(1));
    daemon.start();
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    (void)client.ping();
    (void)client.verify(verifyFrame("vc:4", 6, properFourColouring(6)));
    daemon.stop();
  }
  {
    TempFile file("faults-registry");
    writeLabellingFile(file.str(), 4, 2, 6, properFourColouring(6));
    StreamLabelling mapped(file.str());
    TempFile checkpoint("faults-registry-ckpt");
    StreamWindow window;
    window.rows = 2;
    window.checkpointPath = checkpoint.str();
    (void)streamCount(mapped, problems::vertexColouring(4), window);
  }
  {
    // pool.task fires before every chunk of a posted batch, on whichever
    // lane claims it; only a multi-chunk call on a multi-lane pool posts
    // one (anything else runs inline).
    engine::ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(0, 8, /*grain=*/1, [&ran](std::int64_t, std::int64_t) {
      ran.fetch_add(1);
    });
    ASSERT_EQ(ran.load(), 8);
  }

  std::vector<std::string> names;
  for (const auto& point : fp::registeredPoints()) {
    names.push_back(point.name);
  }
  for (const char* expected :
       {"client.connect", "client.recv", "client.send", "mmap.open",
        "pool.task", "service.accept", "service.dispatch",
        "service.read_request", "service.write_response", "stream.checkpoint",
        "stream.checkpoint_write", "stream.slab", "stream.writer_append"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing fault point: " << expected;
  }
}
