#include "service/service.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/verify_api.hpp"
#include "service/problem_registry.hpp"
#include "support/faultpoint.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace lclgrid::service {

namespace {

namespace fp = support::faultpoint;

using support::JsonWriter;
using support::JsonValue;

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("service: " + what + ": " + std::strerror(errno));
}

/// Blocking read of exactly `bytes`, looping over EINTR and partial
/// recvs; false on EOF or a hard error (the connection is then treated as
/// disconnected, mid-frame or not). The service.read_request fault point
/// injects a hard recv error (errno) or clamps one recv to a partial read
/// (short), which the loop must absorb.
bool readFully(int fd, void* data, std::size_t bytes) {
  long long shortClamp = 0;
  {
    const auto fault = FAULT_POINT("service.read_request");
    if (fault.action == fp::Action::kErrno) {
      errno = fault.errnoValue;
      return false;
    }
    if (fault.action == fp::Action::kShort) shortClamp = fault.arg;
  }
  auto* out = static_cast<std::uint8_t*>(data);
  while (bytes > 0) {
    std::size_t ask = bytes;
    if (shortClamp > 0) {
      ask = std::min(ask, static_cast<std::size_t>(shortClamp));
      shortClamp = 0;
    }
    const ssize_t got = ::recv(fd, out, ask, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Best-effort blocking write, looping over EINTR and partial sends; a
/// failure (client went away mid-response, or send timed out against
/// SO_SNDTIMEO) is deliberately ignored -- the reader side notices the
/// disconnect. The service.write_response fault point drops the whole
/// frame (the client's deadline turns that into a typed timeout), injects
/// a hard send error, or clamps one send short.
void writeFully(int fd, const void* data, std::size_t bytes) {
  long long shortClamp = 0;
  {
    const auto fault = FAULT_POINT("service.write_response");
    if (fault.action == fp::Action::kDrop ||
        fault.action == fp::Action::kErrno) {
      return;
    }
    if (fault.action == fp::Action::kShort) shortClamp = fault.arg;
  }
  const auto* in = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    std::size_t ask = bytes;
    if (shortClamp > 0) {
      ask = std::min(ask, static_cast<std::size_t>(shortClamp));
      shortClamp = 0;
    }
    const ssize_t put = ::send(fd, in, ask, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return;
    }
    in += put;
    bytes -= static_cast<std::size_t>(put);
  }
}

std::uint8_t tierPinOf(const std::string& name) {
  if (name == "auto") return 0;
  if (name == "functional") return 1;
  if (name == "table") return 2;
  if (name == "bitsliced") return 3;
  throw std::invalid_argument("service: unknown tier pin \"" + name + "\"");
}

/// A JSON integer field narrowed to T. Out-of-range values throw (an error
/// line) instead of wrapping: label 4294967297 must not verify as label 1.
template <typename T>
T jsonIntAs(const JsonValue& value, const char* field) {
  const long long raw = value.asInt();
  if (!std::in_range<T>(raw)) {
    throw std::invalid_argument(std::string("service: \"") + field +
                                "\" value " + std::to_string(raw) +
                                " is out of range");
  }
  return static_cast<T>(raw);
}

/// A JSON request's problem fingerprint: an integer, or the "0x" + hex
/// string every response carries (JsonWriter::hex), so a client can send
/// back what it was given.
std::uint64_t fingerprintOf(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::String) {
    return static_cast<std::uint64_t>(value.asInt());
  }
  const std::string& text = value.asString();
  const bool prefixed =
      text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  if (!prefixed || text.size() > 18 ||
      text.find_first_not_of("0123456789abcdefABCDEF", 2) !=
          std::string::npos) {
    throw std::invalid_argument(
        "service: fingerprint must be an integer or a 0x-prefixed hex string "
        "of at most 16 digits");
  }
  return std::stoull(text.substr(2), nullptr, 16);
}

/// A JSON request's problem: "fingerprint" when present, else "problem".
template <typename Frame>
void readProblemRef(const JsonValue& request, Frame& frame) {
  if (const JsonValue* fingerprint = request.find("fingerprint")) {
    frame.problemRef = ProblemRefKind::kFingerprint;
    frame.fingerprint = fingerprintOf(*fingerprint);
  } else {
    frame.spec = request.at("problem").asString();
  }
}

/// Translates a JSON debug request into the frame a binary client would
/// have sent: fills `payload` and returns the frame type. From here on the
/// request takes the binary path, decoder checks included. Throws on a
/// missing, ill-typed or out-of-range field.
wire::FrameType frameOfJson(const JsonValue& request,
                            std::vector<std::uint8_t>& payload) {
  const std::string& op = request.at("op").asString();
  if (op == "ping") return wire::FrameType::kPing;
  if (op == "stats") return wire::FrameType::kStats;
  if (op == "shutdown") return wire::FrameType::kShutdown;
  if (op == "sleep") {
    const JsonValue* millis = request.find("ms");
    wire::appendU32(payload,
                    millis ? jsonIntAs<std::uint32_t>(*millis, "ms") : 0);
    return wire::FrameType::kSleep;
  }
  if (op == "classify") {
    ClassifyRequestFrame frame;
    readProblemRef(request, frame);
    payload = encodeClassifyRequest(frame);
    return wire::FrameType::kClassify;
  }
  if (op != "verify") {
    throw std::invalid_argument("service: unknown op \"" + op + "\"");
  }
  VerifyRequestFrame frame;
  std::vector<int> labels;  // owns what the frame's span views
  readProblemRef(request, frame);
  if (const JsonValue* count = request.find("count")) {
    frame.countViolations = count->asBool();
  }
  if (const JsonValue* degrade = request.find("allow_degrade")) {
    frame.allowDegrade = degrade->asBool();
  }
  if (const JsonValue* tier = request.find("tier")) {
    frame.tierPin = tierPinOf(tier->asString());
  }
  if (const JsonValue* threads = request.find("threads")) {
    frame.threads = jsonIntAs<std::uint32_t>(*threads, "threads");
  }
  if (const JsonValue* path = request.find("path")) {
    frame.labelling = LabellingKind::kPath;
    frame.path = path->asString();
  } else {
    const std::vector<JsonValue>& array = request.at("labels").asArray();
    labels.reserve(array.size());
    for (const JsonValue& label : array) {
      labels.push_back(jsonIntAs<int>(label, "labels"));
    }
    frame.labels = labels;
    frame.n = jsonIntAs<std::uint32_t>(request.at("n"), "n");
    if (const JsonValue* dims = request.find("dims")) {
      frame.dims = jsonIntAs<std::uint32_t>(*dims, "dims");
    }
    if (const JsonValue* batch = request.find("batch")) {
      frame.batch = jsonIntAs<std::uint32_t>(*batch, "batch");
    }
  }
  payload = encodeVerifyRequest(frame);
  return wire::FrameType::kVerify;
}

/// The JSON debug line answering a request: rendered from the response
/// frame a binary client would have received.
std::string jsonLineOf(wire::FrameType type, std::uint32_t requestId,
                       std::span<const std::uint8_t> payload) {
  const std::string_view text(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  if (type == wire::FrameType::kClassifyResult ||
      type == wire::FrameType::kStatsResult) {
    // The payload is a JSON document already; nest it verbatim.
    const char* key =
        type == wire::FrameType::kStatsResult ? "stats" : "classification";
    return "{\"id\":" + std::to_string(requestId) + ",\"ok\":true,\"" + key +
           "\":" + std::string(text) + "}";
  }
  JsonWriter json;
  json.beginObject();
  json.key("id").value(static_cast<long long>(requestId));
  switch (type) {
    case wire::FrameType::kBusy:
      json.key("busy").value(true);
      break;
    case wire::FrameType::kTimeout:
      json.key("timeout").value(true);
      break;
    case wire::FrameType::kError:
      json.key("error").value(text);
      break;
    case wire::FrameType::kShutdownAck:
      json.key("ok").value(true);
      json.key("shutdown").value(true);
      break;
    case wire::FrameType::kVerifyResult: {
      const VerifyResultFrame result = decodeVerifyResult(payload);
      json.key("ok").value(true);
      json.key("feasible").value(result.feasible);
      if (result.degraded) json.key("degraded").value(true);
      json.key("violations").value(static_cast<long long>(result.violations));
      json.key("labellings").value(static_cast<long long>(result.labellings));
      json.key("tier").value(
          verifyTierName(static_cast<VerifyTier>(result.tier)));
      json.key("fingerprint").value(JsonWriter::hex(result.fingerprint));
      json.key("nanos").value(static_cast<long long>(result.nanos));
      if (!result.feasiblePerLabelling.empty()) {
        json.key("feasible_per_labelling").beginArray();
        for (std::uint8_t feasible : result.feasiblePerLabelling) {
          json.value(feasible != 0);
        }
        json.endArray();
      }
      if (!result.violationsPerLabelling.empty()) {
        json.key("violations_per_labelling").beginArray();
        for (std::int64_t violations : result.violationsPerLabelling) {
          json.value(static_cast<long long>(violations));
        }
        json.endArray();
      }
      break;
    }
    default:  // kPong
      json.key("ok").value(true);
      json.key("pong").value(true);
      break;
  }
  json.endObject();
  return json.str();
}

std::span<const std::uint8_t> bytesOf(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

void bump(std::atomic<std::int64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// --- ProblemCache -----------------------------------------------------------

VerificationService::ProblemCache::ProblemCache(std::size_t capacity)
    : specs_(capacity, "service.problem_cache"),
      specsD_(capacity, "service.problem_cache_d") {
  // Keep the fingerprint index consistent with the LRUs: an evicted problem
  // must stop resolving by fingerprint (the index would otherwise grow
  // without bound).
  const auto unindex = [this](const std::string& spec, const auto& lcl) {
    if (!lcl->hasTable()) return;
    const auto it = fingerprints_.find(lcl->table().fingerprint());
    if (it != fingerprints_.end() && it->second == spec) {
      fingerprints_.erase(it);
    }
  };
  specs_.setEvictionCallback(unindex);
  specsD_.setEvictionCallback(unindex);
}

VerificationService::ProblemCache::Problem
VerificationService::ProblemCache::lookup(const std::string& spec,
                                          bool build) {
  Problem problem;
  if (isProblemDSpec(spec)) {
    if (std::optional hit = specsD_.get(spec)) {
      problem.lclD = *hit;
    } else if (build) {
      problem.lclD = std::make_shared<const GridLclD>(buildProblemD(spec));
      specsD_.put(spec, problem.lclD);
    }
  } else if (std::optional hit = specs_.get(spec)) {
    problem.lcl = *hit;
  } else if (build) {
    problem.lcl = std::make_shared<const GridLcl>(buildProblem(spec));
    specs_.put(spec, problem.lcl);
  }
  return problem;
}

VerificationService::ProblemCache::Problem
VerificationService::ProblemCache::get(ProblemRefKind ref,
                                       const std::string& spec,
                                       std::uint64_t fingerprint) {
  std::lock_guard lock(mutex_);
  if (ref == ProblemRefKind::kFingerprint) {
    const auto it = fingerprints_.find(fingerprint);
    if (it == fingerprints_.end()) {
      throw std::invalid_argument(
          "service: unknown problem fingerprint (not in the cache; send the "
          "spec once first)");
    }
    return lookup(it->second, /*build=*/false);
  }
  Problem problem = lookup(spec, /*build=*/true);
  // Indexed on every spec reference, not only on a build: two specs may
  // compile to one relation (vc:4 and vcd:2:4, whose d = 2 forms share a
  // fingerprint), and the index follows the one named last. Uncompiled
  // problems have no fingerprint; with capacity 0 nothing is cached, so
  // nothing is indexed.
  const GridLclD& lifted =
      problem.lcl ? problem.lcl->asGridLclD() : *problem.lclD;
  if (lifted.hasTable() && specs_.capacity() > 0) {
    fingerprints_.insert_or_assign(lifted.table().fingerprint(), spec);
  }
  return problem;
}

support::LruStats VerificationService::ProblemCache::stats() const {
  std::lock_guard lock(mutex_);
  const support::LruStats a = specs_.stats();
  const support::LruStats b = specsD_.stats();
  return {a.hits + b.hits, a.misses + b.misses, a.evictions + b.evictions,
          a.entries + b.entries};
}

// --- lifecycle --------------------------------------------------------------

VerificationService::VerificationService(ServiceConfig config)
    : config_(std::move(config)),
      enginePool_(std::max(1, config_.engineThreads)),
      problems_(config_.problemCacheCapacity),
      reports_(config_.reportCacheCapacity, "service.report_cache") {
  config_.serviceThreads = std::max(1, config_.serviceThreads);
  config_.engineThreads = enginePool_.lanes();
  config_.maxQueuedPerClient = std::max(1, config_.maxQueuedPerClient);
  config_.maxConnections = std::max(1, config_.maxConnections);
  shedThreshold_ = config_.shedQueueDepth > 0 ? config_.shedQueueDepth
                                              : 4 * config_.serviceThreads;
}

VerificationService::~VerificationService() { stop(); }

void VerificationService::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("service: already started");
  }
  shutdownRequested_.store(false);
  draining_.store(false);
  cancelQueued_.store(false);
  if (!config_.unixSocketPath.empty()) {
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      running_.store(false);
      throwErrno("socket(AF_UNIX)");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unixSocketPath.size() >= sizeof(addr.sun_path)) {
      ::close(listenFd_);
      listenFd_ = -1;
      running_.store(false);
      throw std::runtime_error("service: unix socket path too long");
    }
    std::strncpy(addr.sun_path, config_.unixSocketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unixSocketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listenFd_);
      listenFd_ = -1;
      running_.store(false);
      throwErrno("bind(" + config_.unixSocketPath + ")");
    }
    port_ = -1;
  } else {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      running_.store(false);
      throwErrno("socket(AF_INET)");
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcpPort));
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listenFd_);
      listenFd_ = -1;
      running_.store(false);
      throwErrno("bind(loopback)");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listenFd_, 64) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    running_.store(false);
    throwErrno("listen");
  }
  workers_.reserve(static_cast<std::size_t>(config_.serviceThreads));
  for (int i = 0; i < config_.serviceThreads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  acceptor_ = std::thread([this] { acceptLoop(); });
}

void VerificationService::stop() {
  // Phase 0: new admissions answer kBusy from here on, so the drain below
  // is a race against a bounded backlog, not a live request stream.
  draining_.store(true);
  if (!running_.exchange(false)) return;
  {
    std::lock_guard lock(shutdownMutex_);
  }
  shutdownCv_.notify_all();
  if (listenFd_ >= 0) {
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listenFd_ = -1;
  // Phase 1: bounded drain -- give admitted requests drainTimeoutMs to
  // finish (connections stay open so their responses still land). Workers
  // keep popping because the queue is non-empty; they exit once it drains.
  queueCv_.notify_all();
  const auto drainDeadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(0, config_.drainTimeoutMs));
  while (std::chrono::steady_clock::now() < drainDeadline) {
    if (queueDepthAtomic_.load(std::memory_order_relaxed) == 0 &&
        executing_.load(std::memory_order_relaxed) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Phase 2: deadline expired (or drain done) -- remaining queued requests
  // are answered kTimeout by the workers, typed rather than dropped. The
  // flush is quick (no execution), so wait for it unboundedly short of the
  // executing requests, which cannot be preempted.
  cancelQueued_.store(true);
  queueCv_.notify_all();
  const auto flushDeadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while ((queueDepthAtomic_.load(std::memory_order_relaxed) > 0 ||
          executing_.load(std::memory_order_relaxed) > 0) &&
         std::chrono::steady_clock::now() < flushDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear the connections down and join everything.
  {
    std::lock_guard lock(connectionsMutex_);
    for (const auto& conn : connections_) {
      std::lock_guard writeLock(conn->writeMutex);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  // The acceptor is joined, so no new connection threads appear.
  for (auto& thread : connectionThreads_) {
    if (thread.joinable()) thread.join();
  }
  queueCv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  for (const auto& conn : connections_) closeConnection(*conn);
  connections_.clear();
  connectionThreads_.clear();
  if (!config_.unixSocketPath.empty()) {
    ::unlink(config_.unixSocketPath.c_str());
  }
  draining_.store(false);
  cancelQueued_.store(false);
}

void VerificationService::waitForShutdown() {
  // Bounded waits, not a plain wait: noteSignalShutdown() runs in a signal
  // handler and can only store the flag, never touch the cv.
  std::unique_lock lock(shutdownMutex_);
  while (!shutdownCv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
    return shutdownRequested_.load() || !running_.load();
  })) {
  }
}

void VerificationService::requestShutdown() {
  shutdownRequested_.store(true);
  {
    std::lock_guard lock(shutdownMutex_);
  }
  shutdownCv_.notify_all();
}

void VerificationService::closeConnection(Connection& conn) {
  std::lock_guard lock(conn.writeMutex);
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

// --- accept / read side -----------------------------------------------------

void VerificationService::acceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    {
      // Injected accept failure: the connection is refused (closed before
      // any frame) -- connection-level, so the client sees a reset, not a
      // silent request drop.
      const auto fault = FAULT_POINT("service.accept");
      if (fault.action == fp::Action::kErrno ||
          fault.action == fp::Action::kDrop) {
        ::close(fd);
        bump(counters_.connectionsRejected);
        continue;
      }
    }
    if (liveConnections_.fetch_add(1) >= config_.maxConnections) {
      liveConnections_.fetch_sub(1);
      ::close(fd);
      bump(counters_.connectionsRejected);
      continue;
    }
    bump(counters_.connectionsAccepted);
    if (config_.sendTimeoutMs > 0) {
      // Bounds a worker blocked in send() against a wedged peer; a timed
      // out response write is absorbed like a disconnect.
      timeval tv{};
      tv.tv_sec = config_.sendTimeoutMs / 1000;
      tv.tv_usec = (config_.sendTimeoutMs % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard lock(connectionsMutex_);
    connections_.push_back(conn);
    connectionThreads_.emplace_back(
        [this, conn] { connectionLoop(conn); });
  }
}

void VerificationService::connectionLoop(std::shared_ptr<Connection> conn) {
  // Framing detection: peek the first 4 bytes -- the binary magic selects
  // length-prefixed frames, anything else the newline-JSON debug mode.
  std::uint8_t probe[4];
  ssize_t got;
  do {
    got = ::recv(conn->fd, probe, sizeof(probe), MSG_PEEK | MSG_WAITALL);
  } while (got < 0 && errno == EINTR);
  if (got == static_cast<ssize_t>(sizeof(probe))) {
    conn->jsonMode = std::memcmp(probe, wire::kMagic, sizeof(probe)) != 0;
    if (conn->jsonMode) {
      jsonLoop(conn);
    } else {
      binaryLoop(conn);
    }
  }
  liveConnections_.fetch_sub(1);
  // Close now unless a worker still owes this client responses; the last
  // such worker closes instead (both sides re-check, so the close cannot
  // be lost between the two).
  conn->closeRequested.store(true, std::memory_order_release);
  if (conn->inflight.load(std::memory_order_acquire) == 0) {
    closeConnection(*conn);
  }
}

void VerificationService::binaryLoop(const std::shared_ptr<Connection>& conn) {
  std::uint8_t header[wire::kHeaderBytes];
  while (running_.load()) {
    if (!readFully(conn->fd, header, sizeof(header))) return;
    wire::FrameHeader frame;
    if (!wire::decodeHeader(header, &frame)) {
      // The stream cannot be re-synchronised after a framing error; report
      // and close (docs/service.md).
      sendError(*conn, 0, "service: bad frame magic");
      return;
    }
    if (frame.payloadBytes > config_.maxPayloadBytes) {
      sendError(*conn, frame.requestId,
                "service: frame payload exceeds the configured size limit");
      return;
    }
    Task task;
    task.payload.resize(frame.payloadBytes);
    if (!readFully(conn->fd, task.payload.data(), task.payload.size())) {
      return;  // disconnect mid-frame
    }
    task.conn = conn;
    task.type = frame.type;
    task.requestId = frame.requestId;
    admit(std::move(task));
  }
}

void VerificationService::jsonLoop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  while (running_.load()) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      Task task;
      task.conn = conn;
      try {
        const JsonValue request = support::parseJson(line);
        if (const JsonValue* id = request.find("id")) {
          task.requestId = jsonIntAs<std::uint32_t>(*id, "id");
        }
        task.type = frameOfJson(request, task.payload);
      } catch (const std::exception& error) {
        sendError(*conn, task.requestId, error.what());
        continue;
      }
      admit(std::move(task));
    }
    if (buffer.size() > config_.maxPayloadBytes) {
      sendError(*conn, 0, "service: request line too long");
      return;
    }
    ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

void VerificationService::admit(Task task) {
  Connection& conn = *task.conn;
  if (task.type == wire::FrameType::kShutdown) {
    respond(conn, wire::FrameType::kShutdownAck, task.requestId, {});
    requestShutdown();
    return;
  }
  // Shed mode halves the per-client budget: a client holding half its
  // normal allotment already contributes its fair share of an overloaded
  // queue. Draining means stop() is waiting for the queue to empty -- every
  // new admission would extend the drain, so all of them answer kBusy.
  const bool shedBudget = sheddingNow();
  const int budget =
      draining_.load(std::memory_order_acquire)
          ? 0
          : (shedBudget ? std::max(1, config_.maxQueuedPerClient / 2)
                        : config_.maxQueuedPerClient);
  // Only this connection's reader increments, so load-then-add is not a
  // race against other admissions for the same client.
  const int inflight = conn.inflight.load(std::memory_order_acquire);
  if (inflight >= budget) {
    bump(counters_.busyRejections);
    if (shedBudget && inflight < config_.maxQueuedPerClient) {
      // Would have been admitted under the full budget: this rejection is
      // attributable to shedding, not the client's own backlog.
      bump(counters_.shedAdmission);
    }
    respond(conn, wire::FrameType::kBusy, task.requestId, {});
    return;
  }
  conn.inflight.fetch_add(1, std::memory_order_acq_rel);
  task.admitted = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(queueMutex_);
    queue_.push_back(std::move(task));
    const auto depth = static_cast<std::int64_t>(queue_.size());
    queueDepthAtomic_.store(depth, std::memory_order_relaxed);
    if (depth > counters_.queuePeakDepth.load(std::memory_order_relaxed)) {
      counters_.queuePeakDepth.store(depth, std::memory_order_relaxed);
    }
  }
  queueCv_.notify_one();
}

// --- worker side ------------------------------------------------------------

void VerificationService::workerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock lock(queueMutex_);
      queueCv_.wait(lock, [this] {
        return !queue_.empty() || !running_.load() ||
               cancelQueued_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (!running_.load()) return;  // spurious wake with no work
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queueDepthAtomic_.store(static_cast<std::int64_t>(queue_.size()),
                              std::memory_order_relaxed);
      // Incremented under the queue lock so stop()'s drain wait can never
      // observe queue == 0 && executing == 0 while a popped task is still
      // between the pop and its execution.
      executing_.fetch_add(1, std::memory_order_relaxed);
    }
    // Typed shed paths: a task still queued when the drain deadline
    // expired, or whose queue-wait deadline passed, is answered kTimeout --
    // the request was never executed, so a retry is always safe.
    const bool cancelled = cancelQueued_.load(std::memory_order_acquire);
    const bool expired =
        config_.requestDeadlineMs > 0 &&
        std::chrono::steady_clock::now() - task.admitted >=
            std::chrono::milliseconds(config_.requestDeadlineMs);
    if (cancelled || expired) {
      bump(counters_.timeouts);
      respond(*task.conn, wire::FrameType::kTimeout, task.requestId, {});
    } else {
      (void)FAULT_POINT("service.dispatch");
      execute(task);
    }
    executing_.fetch_sub(1, std::memory_order_relaxed);
    Connection& conn = *task.conn;
    if (conn.inflight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        conn.closeRequested.load(std::memory_order_acquire)) {
      closeConnection(conn);
    }
  }
}

void VerificationService::execute(Task& task) {
  Connection& conn = *task.conn;
  bump(counters_.requests);
  if (task.type == wire::FrameType::kVerify) bump(counters_.verifyRequests);
  if (task.type == wire::FrameType::kClassify) bump(counters_.classifyRequests);
  try {
    switch (task.type) {
      case wire::FrameType::kPing:
        respond(conn, wire::FrameType::kPong, task.requestId, {});
        break;
      case wire::FrameType::kSleep: {
        if (!config_.enableTestOps) {
          throw std::invalid_argument(
              "service: sleep is a test-only operation");
        }
        std::size_t offset = 0;
        const std::uint32_t millis = wire::readU32(task.payload, offset);
        std::this_thread::sleep_for(std::chrono::milliseconds(millis));
        respond(conn, wire::FrameType::kPong, task.requestId, {});
        break;
      }
      case wire::FrameType::kVerify: {
        const VerifyRequestFrame request = decodeVerifyRequest(task.payload);
        const VerifyResultFrame result = runVerify(request, sheddingNow());
        const std::vector<std::uint8_t> payload = encodeVerifyResult(result);
        respond(conn, wire::FrameType::kVerifyResult, task.requestId, payload);
        break;
      }
      case wire::FrameType::kClassify: {
        const ClassifyRequestFrame request =
            decodeClassifyRequest(task.payload);
        const std::string json = runClassify(request);
        respond(conn, wire::FrameType::kClassifyResult, task.requestId,
                bytesOf(json));
        break;
      }
      case wire::FrameType::kStats: {
        const std::string json = statsJson();
        respond(conn, wire::FrameType::kStatsResult, task.requestId,
                bytesOf(json));
        break;
      }
      default:
        throw std::invalid_argument("service: unknown request frame type");
    }
  } catch (const std::exception& error) {
    sendError(conn, task.requestId, error.what());
  }
}

// --- request execution ------------------------------------------------------

bool VerificationService::sheddingNow() const {
  return config_.shedEnabled &&
         queueDepthAtomic_.load(std::memory_order_relaxed) >=
             static_cast<std::int64_t>(shedThreshold_);
}

VerifyResultFrame VerificationService::runVerify(
    const VerifyRequestFrame& frame, bool shedActive) {
  if (frame.problemRef == ProblemRefKind::kSpec && isCycleSpec(frame.spec)) {
    throw std::invalid_argument(
        "service: cycle problems take classify requests, not verify");
  }
  // The shared_ptrs keep the cached problem alive across a concurrent
  // eviction for the duration of the call.
  const ProblemCache::Problem held =
      problems_.get(frame.problemRef, frame.spec, frame.fingerprint);
  VerifyRequest request;
  request.problem = held.lcl.get();
  request.problemD = held.lclD.get();
  request.options.tier = static_cast<TierPin>(frame.tierPin);
  request.options.countViolations = frame.countViolations;
  // Graceful degradation: under shed pressure a countViolations request
  // that opted in runs as early-exit verify instead -- same feasibility
  // verdict, but the count becomes a lower bound; the result says so.
  bool degraded = false;
  if (shedActive && frame.allowDegrade && frame.countViolations) {
    request.options.countViolations = false;
    degraded = true;
    bump(counters_.shedDowngrades);
  }
  // Lanes: 0 on the wire asks for the daemon default, anything else is
  // capped at engineThreads. A multi-lane request runs on the shared pool;
  // a one-lane request runs serially on this worker.
  const int lanes =
      frame.threads == 0
          ? config_.engineThreads
          : static_cast<int>(std::min(
                frame.threads,
                static_cast<std::uint32_t>(config_.engineThreads)));
  request.options.engine.threads = lanes;
  if (lanes > 1) request.options.engine.pool = &enginePool_;

  std::optional<Torus2D> torus;
  std::optional<TorusD> torusD;
  if (frame.labelling == LabellingKind::kPath) {
    request.labellingPath = frame.path;
  } else {
    if (request.problemD != nullptr) {
      torusD.emplace(static_cast<int>(frame.dims), static_cast<int>(frame.n));
      request.torusD = &*torusD;
    } else {
      if (frame.dims != 2) {
        throw std::invalid_argument("service: 2D problems need dims == 2");
      }
      torus.emplace(static_cast<int>(frame.n));
      request.torus = &*torus;
    }
    request.labels = frame.labels;
  }

  VerifyResult result = verify(request);
  VerifyResultFrame out;
  out.degraded = degraded;
  out.feasible = result.feasible;
  out.tier = static_cast<std::uint8_t>(result.tier);
  out.violations = result.violations;
  out.labellings = result.labellings;
  out.fingerprint = result.fingerprint;
  out.nanos = result.nanos;
  out.feasiblePerLabelling = std::move(result.feasiblePerLabelling);
  out.violationsPerLabelling = std::move(result.violationsPerLabelling);
  return out;
}

std::string VerificationService::runClassify(
    const ClassifyRequestFrame& frame) {
  engine::ClassifyOptions options;
  options.reportCache = &reports_;
  engine::ClassifyResult result;
  const char* engineName = "grid";
  const bool bySpec = frame.problemRef == ProblemRefKind::kSpec;
  if (bySpec && isCycleSpec(frame.spec)) {
    result = engine::classify(buildCycleProblem(frame.spec), options);
    engineName = "cycle";
  } else {
    // A d-dimensional spec is refused before it is built; a fingerprint
    // once it has resolved to one.
    const ProblemCache::Problem held =
        bySpec && isProblemDSpec(frame.spec)
            ? ProblemCache::Problem{}
            : problems_.get(frame.problemRef, frame.spec, frame.fingerprint);
    if (held.lcl == nullptr) {
      throw std::invalid_argument(
          "service: classification covers 2D grid and cycle problems");
    }
    result = engine::classify(*held.lcl, options);
  }
  JsonWriter json;
  json.beginObject();
  json.key("problem").value(result.problem);
  json.key("engine").value(engineName);
  json.key("complexity").value(result.complexity);
  json.key("fingerprint").value(JsonWriter::hex(result.fingerprint));
  json.key("cache_hit").value(result.cacheHit);
  json.key("seconds").value(result.seconds);
  if (result.grid) {
    json.key("trivial_label").value(result.grid->trivialLabel);
    json.key("attempts").value(
        static_cast<long long>(result.grid->attempts.size()));
  }
  if (result.cycle) {
    json.key("flexible_node").value(result.cycle->flexibleNode);
    json.key("flexibility").value(result.cycle->flexibility);
    json.key("has_self_loop").value(result.cycle->hasSelfLoop);
    json.key("has_cycle").value(result.cycle->hasCycle);
  }
  json.endObject();
  return json.str();
}

// --- stats ------------------------------------------------------------------

ServiceCounters VerificationService::counters() const {
  const auto read = [](const std::atomic<std::int64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const LiveCounters& c = counters_;
  return {.requests = read(c.requests),
          .verifyRequests = read(c.verifyRequests),
          .classifyRequests = read(c.classifyRequests),
          .busyRejections = read(c.busyRejections),
          .errors = read(c.errors),
          .connectionsAccepted = read(c.connectionsAccepted),
          .connectionsRejected = read(c.connectionsRejected),
          .queueDepth = read(queueDepthAtomic_),
          .queuePeakDepth = read(c.queuePeakDepth),
          .timeouts = read(c.timeouts),
          .shedDowngrades = read(c.shedDowngrades),
          .shedAdmission = read(c.shedAdmission)};
}

std::string VerificationService::statsJson() const {
  const ServiceCounters counters = this->counters();
  const support::LruStats problemStats = problems_.stats();
  const support::LruStats reportStats = reports_.stats();
  JsonWriter service;
  service.beginObject();
  service.key("requests").value(static_cast<long long>(counters.requests));
  service.key("verify_requests")
      .value(static_cast<long long>(counters.verifyRequests));
  service.key("classify_requests")
      .value(static_cast<long long>(counters.classifyRequests));
  service.key("busy_rejections")
      .value(static_cast<long long>(counters.busyRejections));
  service.key("errors").value(static_cast<long long>(counters.errors));
  service.key("connections_accepted")
      .value(static_cast<long long>(counters.connectionsAccepted));
  service.key("connections_rejected")
      .value(static_cast<long long>(counters.connectionsRejected));
  service.key("queue_depth").value(static_cast<long long>(counters.queueDepth));
  service.key("queue_peak_depth")
      .value(static_cast<long long>(counters.queuePeakDepth));
  service.key("timeouts").value(static_cast<long long>(counters.timeouts));
  service.key("shed_downgrades")
      .value(static_cast<long long>(counters.shedDowngrades));
  service.key("shed_admission")
      .value(static_cast<long long>(counters.shedAdmission));
  const auto cacheObject = [&service](const char* name,
                                      const support::LruStats& stats) {
    service.key(name).beginObject();
    service.key("hits").value(static_cast<long long>(stats.hits));
    service.key("misses").value(static_cast<long long>(stats.misses));
    service.key("evictions").value(static_cast<long long>(stats.evictions));
    service.key("entries").value(static_cast<long long>(stats.entries));
    service.endObject();
  };
  cacheObject("problem_cache", problemStats);
  cacheObject("report_cache", reportStats);
  service.endObject();
  // The telemetry snapshot is already a complete JSON document; splice it
  // in verbatim ("null" when telemetry is compiled out).
  std::string metrics = telemetry::metricsJson();
  if (metrics.empty()) metrics = "null";
  return "{\"metrics\":" + metrics + ",\"service\":" + service.str() + "}";
}

// --- response writers -------------------------------------------------------

void VerificationService::respond(Connection& conn, wire::FrameType type,
                                  std::uint32_t requestId,
                                  std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> bytes;
  if (conn.jsonMode) {
    const std::string line = jsonLineOf(type, requestId, payload);
    bytes.assign(line.begin(), line.end());
    bytes.push_back('\n');
  } else {
    bytes.reserve(wire::kHeaderBytes + payload.size());
    wire::appendHeader(bytes, type, requestId,
                       static_cast<std::uint32_t>(payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  std::lock_guard lock(conn.writeMutex);
  if (conn.fd < 0) return;
  writeFully(conn.fd, bytes.data(), bytes.size());
}

void VerificationService::sendError(Connection& conn, std::uint32_t requestId,
                                    const std::string& message) {
  bump(counters_.errors);
  respond(conn, wire::FrameType::kError, requestId, bytesOf(message));
}

}  // namespace lclgrid::service
