// The verification service daemon (docs/service.md): a long-lived process
// hosting the compiled-table engine behind a socket, so repeated
// verification / classification requests amortise table compilation,
// bit-slice plan construction and oracle runs across calls instead of
// paying them per process.
//
// Architecture (one object, in-process embeddable -- the tests and
// bench_service run the daemon in the same process; lclgrid_serve wraps it
// in a binary):
//
//  * an acceptor thread listens on a Unix socket or TCP loopback and spawns
//    one reader thread per connection (bounded by maxConnections);
//  * readers turn every request into one (type, request id, payload) task
//    -- a binary frame as read, or a newline-JSON debug line translated
//    into the frame it stands for (the framing is detected on the first
//    bytes of the connection) -- and admit it into a central queue,
//    bounding each client to maxQueuedPerClient admitted requests: an
//    over-limit request is answered kBusy and not executed, never dropped;
//  * serviceThreads worker threads drain the queue and execute requests
//    through the front doors verify(VerifyRequest) and engine::classify();
//  * one writer sends every response: the frame, or on a JSON connection
//    the line rendered from it;
//  * problems resolve through a fingerprint-indexed LRU cache of compiled
//    problems (spec -> GridLcl/GridLclD, and each fingerprint -> the spec
//    that built it, for 2D and d-dimensional problems alike) and oracle
//    reports reuse an engine::ReportCache, both capacity-bounded;
//  * inline label batches are handed to the engine zero-copy: the int32
//    region of the receive buffer is spanned directly into
//    VerifyRequest::labels (the wire layout 4-byte-aligns it).
//
// The engine pool: one engine::ThreadPool of config.engineThreads lanes,
// built with the daemon and shared by every request that runs on more than
// one lane; a one-lane request runs serially on its worker. The default 1
// keeps the daemon's parallelism across requests (serviceThreads), the
// high-QPS regime; engineThreads > 1 parallelises single large requests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "service/protocol.hpp"
#include "support/lru_cache.hpp"

namespace lclgrid::service {

struct ServiceConfig {
  /// Listen on this Unix socket path when non-empty; else TCP on loopback.
  std::string unixSocketPath;
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int tcpPort = 0;
  /// Worker threads executing requests (>= 1).
  int serviceThreads = 2;
  /// Lanes of the shared engine pool; caps a request's wire `threads`.
  int engineThreads = 1;
  /// Admitted (queued + executing) requests per client before kBusy.
  int maxQueuedPerClient = 8;
  /// Compiled problems kept by the spec/fingerprint LRU.
  std::size_t problemCacheCapacity = 64;
  /// Oracle reports kept by the classification LRU.
  std::size_t reportCacheCapacity = 64;
  /// Frames above this payload size are a framing error (connection
  /// closes); bounds a client's buffer demand.
  std::size_t maxPayloadBytes = std::size_t{64} << 20;
  /// Concurrent connections; further accepts are closed immediately.
  int maxConnections = 64;
  /// Enables wire::FrameType::kSleep (tests drive the BUSY path with it).
  bool enableTestOps = false;
  /// Per-request deadline: a request still queued this many ms after
  /// admission is answered kTimeout instead of executed (0 = no deadline).
  /// Bounds queue-wait latency; an already-executing request is never
  /// preempted (docs/robustness.md).
  int requestDeadlineMs = 0;
  /// SO_SNDTIMEO on every connection socket: bounds a worker blocked
  /// writing a response to a wedged peer (0 = no bound).
  int sendTimeoutMs = 5000;
  /// stop() drains admitted requests for this long, then answers the still
  /// queued remainder with kTimeout -- a typed shed, never a silent drop.
  /// The request currently executing on each worker still completes.
  int drainTimeoutMs = 2000;
  /// Load shedding engages while the queue is at least this deep
  /// (0 = auto: 4 * serviceThreads). Under shed: countViolations requests
  /// that set allowDegrade run as early-exit verify, and the per-client
  /// admission budget halves.
  int shedQueueDepth = 0;
  /// Master switch for the shedding policy (the overload bench A/Bs it).
  bool shedEnabled = true;
};

/// Point-in-time service counters (plain values, available regardless of
/// whether telemetry is compiled in). counters() and the stats frame's
/// "service" object are their only exporters.
struct ServiceCounters {
  std::int64_t requests = 0;
  std::int64_t verifyRequests = 0;
  std::int64_t classifyRequests = 0;
  std::int64_t busyRejections = 0;
  /// Every kError (or JSON error line) written, framing errors included.
  std::int64_t errors = 0;
  std::int64_t connectionsAccepted = 0;
  std::int64_t connectionsRejected = 0;
  std::int64_t queueDepth = 0;      // now
  std::int64_t queuePeakDepth = 0;  // high-water mark
  /// kTimeout responses: queue-wait deadline expiries plus requests shed
  /// while draining. Never silently dropped -- every one was answered.
  std::int64_t timeouts = 0;
  /// countViolations requests downgraded to early-exit verify under shed
  /// pressure (the request allowed it; the result carried degraded).
  std::int64_t shedDowngrades = 0;
  /// kBusy rejections attributable to the halved shed-mode admission
  /// budget (also counted in busyRejections).
  std::int64_t shedAdmission = 0;
};

class VerificationService {
 public:
  explicit VerificationService(ServiceConfig config);
  ~VerificationService();  // stop()s if still running
  VerificationService(const VerificationService&) = delete;
  VerificationService& operator=(const VerificationService&) = delete;

  /// Binds, listens and spawns the acceptor + workers; throws
  /// std::runtime_error on socket failures.
  void start();
  /// Graceful teardown: stops accepting, unblocks readers/workers, joins
  /// every thread. Idempotent.
  void stop();
  /// Blocks until a client's kShutdown request, noteSignalShutdown() or
  /// stop().
  void waitForShutdown();
  /// Async-signal-safe shutdown request (the daemon binary's SIGINT /
  /// SIGTERM handler): one atomic store, observed by waitForShutdown's
  /// bounded waits.
  void noteSignalShutdown() { shutdownRequested_.store(true); }

  /// The resolved TCP port (after start(); -1 on a Unix socket).
  int port() const { return port_; }
  const ServiceConfig& config() const { return config_; }

  ServiceCounters counters() const;
  /// The stats document served by kStats: {"metrics": <telemetry
  /// metrics_snapshot>, "service": {counters, queue, caches}}.
  std::string statsJson() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex writeMutex;
    std::atomic<int> inflight{0};
    /// Set by the reader on exit; the side that observes inflight == 0
    /// afterwards closes the fd (reader or the last worker, whichever is
    /// later -- responses to a disconnected client must not write a
    /// recycled descriptor).
    std::atomic<bool> closeRequested{false};
    bool jsonMode = false;  // responses are rendered as JSON lines
  };
  /// One request, whichever framing it arrived in.
  struct Task {
    std::shared_ptr<Connection> conn;
    wire::FrameType type = wire::FrameType::kPing;
    std::uint32_t requestId = 0;
    std::vector<std::uint8_t> payload;
    /// Admission time; the worker enforces requestDeadlineMs against it.
    std::chrono::steady_clock::time_point admitted;
  };
  /// ServiceCounters' home: relaxed atomics; queuePeakDepth under queueMutex_.
  struct LiveCounters {
    std::atomic<std::int64_t> requests{0}, verifyRequests{0},
        classifyRequests{0}, busyRejections{0}, errors{0},
        connectionsAccepted{0}, connectionsRejected{0}, queuePeakDepth{0},
        timeouts{0}, shedDowngrades{0}, shedAdmission{0};
  };

  /// Compiled problems by spec string (one LRU per grid family), with an
  /// index from each cached problem's fingerprint to the spec that built
  /// it, kept consistent through the LRUs' eviction callbacks. A
  /// fingerprint reference resolves to that spec and continues as a spec
  /// reference -- a hit that refreshes the problem's recency -- except that
  /// it never builds: it resolves only while its problem is cached.
  class ProblemCache {
   public:
    /// One cached problem: lcl for a 2D spec, lclD for a d-dimensional one.
    struct Problem {
      std::shared_ptr<const GridLcl> lcl;
      std::shared_ptr<const GridLclD> lclD;
    };
    explicit ProblemCache(std::size_t capacity);
    /// The problem a request names: by grid spec (built on a miss) or by
    /// fingerprint (an unknown or evicted one throws
    /// std::invalid_argument).
    Problem get(ProblemRefKind ref, const std::string& spec,
                std::uint64_t fingerprint);
    support::LruStats stats() const;

   private:
    /// The cached problem of `spec`, built on a miss when `build` (an empty
    /// Problem otherwise). Runs under mutex_.
    Problem lookup(const std::string& spec, bool build);

    mutable std::mutex mutex_;
    support::LruCache<std::string, std::shared_ptr<const GridLcl>> specs_;
    support::LruCache<std::string, std::shared_ptr<const GridLclD>> specsD_;
    std::unordered_map<std::uint64_t, std::string> fingerprints_;
  };

  void acceptLoop();
  void connectionLoop(std::shared_ptr<Connection> conn);
  void binaryLoop(const std::shared_ptr<Connection>& conn);
  void jsonLoop(const std::shared_ptr<Connection>& conn);
  /// Admission, shared by both framings: acknowledges kShutdown, answers
  /// kBusy over the client's budget, or enqueues the task.
  void admit(Task task);
  void workerLoop();
  void execute(Task& task);
  void requestShutdown();
  void closeConnection(Connection& conn);
  /// True while the shedding policy is engaged (queue at/over threshold).
  bool sheddingNow() const;

  VerifyResultFrame runVerify(const VerifyRequestFrame& frame,
                              bool shedActive);
  std::string runClassify(const ClassifyRequestFrame& frame);

  /// The one response writer: the frame, or on a JSON connection its line.
  void respond(Connection& conn, wire::FrameType type,
               std::uint32_t requestId,
               std::span<const std::uint8_t> payload);
  /// Counts an error and responds kError with `message`.
  void sendError(Connection& conn, std::uint32_t requestId,
                 const std::string& message);

  ServiceConfig config_;
  engine::ThreadPool enginePool_;  // see the header comment
  int listenFd_ = -1;
  int port_ = -1;
  int shedThreshold_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdownRequested_{false};
  /// stop() is draining: admissions answer kBusy, keeping the drain bound.
  std::atomic<bool> draining_{false};
  /// The drain deadline expired: workers answer queued tasks kTimeout.
  std::atomic<bool> cancelQueued_{false};
  /// Queue depth, stored under queueMutex_ at every push and pop and read
  /// lock-free by the shed checks and counters().
  std::atomic<std::int64_t> queueDepthAtomic_{0};
  /// Requests currently executing on workers (the drain wait's second
  /// condition next to an empty queue).
  std::atomic<int> executing_{0};
  std::mutex shutdownMutex_;
  std::condition_variable shutdownCv_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex connectionsMutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> connectionThreads_;
  std::atomic<int> liveConnections_{0};

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<Task> queue_;

  ProblemCache problems_;
  engine::ReportCache reports_;

  LiveCounters counters_;
};

}  // namespace lclgrid::service
