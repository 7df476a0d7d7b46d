// The `verify_bulk` phase: in-process verify(VerifyRequest) calls in count
// mode with automatic tier choice, on one shared nproc-lane ThreadPool.
//
//  * every 2D problem -- vc:4 (fused pair planes), nh1p (generic pair
//    network), mis (nibble LUT), mm (row-pointer table, sigma = 5) -- at
//    128^2, 512^2, 2048^2 and 8192^2: from dispatch-bound to beyond cache;
//  * vcd:3:4 at 64^3 and vcd:4:4 at 22^4, which stage bit-planes;
//  * a streaming pass over one vc:4 LCLLABv1 file of side 17408 (1.2 GB,
//    4x a 300 MiB LLC; 256 MiB at the side size), or of the largest side
//    that fits the file-size limit, the only user of the streaming tier and
//    of support's mmap_file. Its peak RSS is taken from a helper process that
//    holds nothing but the mapping.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "engine/thread_pool.hpp"
#include "labellings.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"
#include "support/mmap_file.hpp"
#include "support/telemetry.hpp"
#include "support/timing.hpp"

namespace perfbench {
namespace {

using namespace lclgrid;
namespace telemetry = lclgrid::support::telemetry;

const char* const kGroups[] = {"small", "mid", "large", "dn"};

struct Sizes {
  std::vector<int> small, mid, large;
  int d3 = 0, d4 = 0;
  int stream = 0;
};

/// The largest side up to `side`, a multiple of 64, whose stream file fits
/// the file-size limit (ulimit -f). A process writing past the limit is
/// killed by SIGXFSZ: a 1 GiB limit, for one, cannot hold the full-size file.
int fittedStreamSide(int side) {
  const std::uint64_t limit = fileSizeLimit();
  const auto bytes = [](std::uint64_t n) { return stream_format::kHeaderBytes + 4 * n * n; };
  while (side > 64 && bytes(static_cast<std::uint64_t>(side)) > limit) side -= 64;
  return side;
}

Sizes sizesFor(Size size) {
  // The side size streams a 256 MiB file: passes over the 64 MiB smoke file
  // took ~8 ms and their rate moved by up to 1.6x from run to run.
  Sizes sizes = size == Size::kFull
                    ? Sizes{{128}, {512}, {2048, 8192}, 64, 22, 17408}
                    : Sizes{{32}, {64}, {128, 256}, 16, 8, size == Size::kSide ? 8192 : 4096};
  sizes.stream = fittedStreamSide(sizes.stream);
  return sizes;
}

/// The compiled problems (setup builds them: table and bit-slice plan).
struct Problems {
  GridLcl vc4 = problems::vertexColouring(4);
  GridLcl nh1p = problems::noHorizontalOnePair();
  GridLcl mis = problems::maximalIndependentSet();
  GridLcl mm = problems::maximalMatching();
  GridLclD vcd3 = problems_d::vertexColouring(3, 4);
  GridLclD vcd4 = problems_d::vertexColouring(4, 4);

  const GridLcl& byName(const std::string& name) const {
    if (name == "vc4") return vc4;
    if (name == "nh1p") return nh1p;
    if (name == "mis") return mis;
    return mm;
  }
};

const char* const kProblems2D[][2] = {
    {"vc4", "vc:4"}, {"nh1p", "nh1p"}, {"mis", "mis"}, {"mm", "mm"}};

struct Request {
  int group = 0;  // index into kGroups
  std::string problem;
  int dims = 2;
  Instance instance;
  std::unique_ptr<Torus2D> torus;
  std::unique_ptr<TorusD> torusD;
  long long nodes() const { return static_cast<long long>(instance.labels.size()); }
};

std::int64_t counterValue(const telemetry::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

const char* const kTelemetryCounters[] = {
    "verify.calls.functional", "verify.calls.table",  "verify.calls.bitsliced",
    "verify.calls.stream",     "verify.nodes.functional", "verify.nodes.table",
    "verify.nodes.bitsliced",  "verify.nodes.stream", "pool.tasks_submitted",
    "pool.steals",             "stream.slabs",        "stream.rows_dropped"};

class VerifyBulkPhase : public Phase {
 public:
  explicit VerifyBulkPhase(Size size) : sizes_(sizesFor(size)) {}

  double setup(Run& run) override {
    if (requests_.empty()) prepareInputs(run);
    streamPath_ = run.dataDir + "/stream-" + std::to_string(sizes_.stream) + ".lab";
    double seconds = 0;
    auto start = Clock::now();
    problems_.emplace();
    pool_ = std::make_unique<engine::ThreadPool>(lanes_);
    seconds += secondsSince(start);

    // Only the writer's calls are timed; generating the rows is input
    // preparation, not program work.
    std::vector<int> row(static_cast<std::size_t>(stream_->n()));
    double writeSeconds = 0;
    {
      start = Clock::now();
      StreamLabellingWriter writer(streamPath_, 4, 2, stream_->n());
      writeSeconds += secondsSince(start);
      for (int y = 0; y < stream_->n(); ++y) {
        stream_->row(y, row);
        start = Clock::now();
        writer.appendLabels(row);
        writeSeconds += secondsSince(start);
      }
      start = Clock::now();
      writer.close();
      writeSeconds += secondsSince(start);
    }
    // Flush the file to disk outside the timed calls, so its write-back does
    // not run under the measurements that follow.
    const int fd = open(streamPath_.c_str(), O_RDONLY);
    if (fd < 0 || fsync(fd) != 0) throw std::runtime_error("cannot flush " + streamPath_);
    close(fd);
    writerMbPerS_ = 4e-6 * static_cast<double>(stream_->n()) * stream_->n() / writeSeconds;
    // Map the stream file once, before timing, and reuse the mapping for
    // every pass: re-opening it per 1-s run made the sharded stream range
    // from 5.7e8 to 1.76e9 nodes/s on a 4-vCPU KVM guest.
    start = Clock::now();
    streamFile_ = std::make_unique<StreamLabelling>(streamPath_);
    streamOpenSeconds_ = secondsSince(start);
    return seconds + writeSeconds + streamOpenSeconds_;
  }

  void teardown() override {
    streamFile_.reset();
    pool_.reset();
    problems_.reset();
  }

  void measure(Run& run, double seconds) override {
    const telemetry::MetricsSnapshot before = telemetry::snapshotMetrics();
    engine::EngineOptions shared;
    shared.threads = lanes_;
    shared.pool = pool_.get();

    // In-core rounds take 60% of the slice, streaming passes the rest. Each
    // part groups its rounds or passes into windows of about kWindowSeconds
    // (bench.hpp); a window's rate is its nodes over its verify time. A round
    // or pass starts while at least half of the last one still fits in the
    // part, so a part overruns by at most half a round.
    const auto fits = [](auto end, double last) {
      return Clock::now() + std::chrono::duration<double>(last / 2) <= end;
    };
    const auto inCoreEnd = Clock::now() + std::chrono::duration<double>(0.6 * seconds);
    do {
      const StealClock window;
      double nodes[4] = {0, 0, 0, 0};
      double spent[4] = {0, 0, 0, 0};
      do {
        const auto start = Clock::now();
        for (Request& request : requests_) {
          spent[request.group] += timedVerify(run, request, shared, "e2e.verify");
          nodes[request.group] += static_cast<double>(request.nodes());
        }
        lastRound_ = secondsSince(start);
      } while (window.seconds() < kWindowSeconds && fits(inCoreEnd, lastRound_));
      const double steal = window.steal();
      for (int g = 0; g < 4; ++g) rates_[g].add(nodes[g] / spent[g], steal);
    } while (fits(inCoreEnd, lastRound_));
    const auto streamEnd = Clock::now() + std::chrono::duration<double>(0.4 * seconds);
    do {
      const StealClock window;
      double nodes = 0, spent = 0;
      do {
        lastPass_ = timedStream(run, shared);
        spent += lastPass_;
        nodes += static_cast<double>(streamFile_->size());
      } while (window.seconds() < kWindowSeconds && fits(streamEnd, lastPass_));
      streamRates_.add(nodes / spent, window.steal());
    } while (fits(streamEnd, lastPass_));

    const telemetry::MetricsSnapshot after = telemetry::snapshotMetrics();
    for (const char* name : kTelemetryCounters) {
      telemetryDelta_[name] +=
          static_cast<double>(counterValue(after, name) - counterValue(before, name));
    }
  }

  double calmShare() const override {
    // The four groups share their windows.
    return std::min(rates_[0].calmShare(), streamRates_.calmShare());
  }

  void report(Run& run, Metrics& out) override {
    for (int g = 0; g < 4; ++g) {
      groupRate_[g] = rates_[g].median();
      out[std::string("bulk_") + kGroups[g] + "_nodes_per_s"] = {groupRate_[g], "nodes/s"};
    }
    streamRate_ = streamRates_.median();
    countWindows(rates_[0].kept());  // the four groups share their windows
    countWindows(streamRates_.kept());
    out["stream_nodes_per_s"] = {streamRate_, "nodes/s"};
    out["stream_peak_rss_mib"] = {peakStreamRssMib(run), "MiB"};
    std::fprintf(stderr, "verify_bulk: %zu in-core windows, %zu stream windows of %lld-node passes\n",
                 rates_[0].size(), streamRates_.size(), streamFile_->size());
    for (Series& rates : rates_) rates.clear();
    streamRates_.clear();
  }

  void layers(Run& run) override {
    run.layer("lcl.compile_ms", 1e3 * medianOf(3, "lcl.compile", [] { Problems compiled; }), "ms");

    engine::EngineOptions serial;
    serial.threads = 1;
    for (int g = 0; g < 4; ++g) {
      double nodes = 0, seconds = 0;
      for (Request& request : requests_) {
        if (request.group != g) continue;
        seconds += timedVerify(run, request, serial, "lcl.verify_serial");
        nodes += static_cast<double>(request.nodes());
      }
      run.layer(std::string("lcl.serial_nodes_per_s.") + kGroups[g], nodes / seconds, "nodes/s");
      run.layer(std::string("engine.shard_gain.") + kGroups[g], groupRate_[g] / (nodes / seconds),
                "ratio");
    }
    run.layer("engine.pool_dispatch_us", 1e6 * medianOf(2000, "engine.pool_dispatch", [&] {
                pool_->parallelFor(0, lanes_, 1, [](std::int64_t, std::int64_t) {});
              }),
              "us");

    // Tier pins at the mid size, one lane.
    for (Request& request : requests_) {
      if (request.group != 1 || request.dims != 2 || request.instance.n != sizes_.mid.front()) {
        continue;
      }
      const GridLcl& lcl = problems_->byName(request.problem);
      for (const auto& [pin, name] : {std::pair{TierPin::kTable, "table"},
                                      std::pair{TierPin::kBitsliced, "bitsliced"}}) {
        if (pin == TierPin::kBitsliced && lcl.table().bitslicePlan() == nullptr) continue;
        VerifyRequest pinned = makeRequest(request, serial);
        pinned.options.tier = pin;
        const double seconds = medianOf(5, "lcl.verify_pinned", [&] { check(run, request, verify(pinned)); });
        run.layer(std::string("lcl.pinned_nodes_per_s.") + name + "." + request.problem,
                  static_cast<double>(request.nodes()) / seconds, "nodes/s");
      }
    }

    // Plane staging over the d = 3/4 labellings.
    double stageSeconds = 0, stageNodes = 0;
    for (Request& request : requests_) {
      if (request.dims == 2) continue;
      const int n = request.instance.n;
      const long long rows = request.nodes() / n;
      LabelPlanes planes(n, rows, bitslice::planeCount(4));
      stageSeconds += bestOf(5, "lcl.stage_planes", [&] { planes.setRows(request.instance.labels, 0, rows); });
      stageNodes += static_cast<double>(request.nodes());
    }
    run.layer("lcl.stage_ns_per_node", 1e9 * stageSeconds / stageNodes, "ns/node");

    // Computed, not measured: nodes/s x 4 bytes per int32 label.
    run.layer("lcl.label_gb_per_s.mid", 4e-9 * groupRate_[1], "GB/s");
    run.layer("lcl.label_gb_per_s.large", 4e-9 * groupRate_[2], "GB/s");
    run.layer("lcl.label_gb_per_s.stream", 4e-9 * streamRate_, "GB/s");
    run.layer("lcl.writer_mb_per_s", writerMbPerS_, "MB/s");
    run.layer("lcl.stream_open_ms", 1e3 * streamOpenSeconds_, "ms");

    // The page-in floor: one word per page of the file, no kernel.
    const double touch = medianOf(3, "support.mmap_touch", [&] {
      const support::MmapFile file(streamPath_);
      const auto* bytes = reinterpret_cast<const volatile unsigned char*>(file.data());
      unsigned sum = 0;
      for (std::size_t offset = 0; offset < file.size(); offset += 4096) sum += bytes[offset];
      touchSink_ += sum;
    });
    run.layer("support.mmap_touch_gb_per_s",
              1e-9 * static_cast<double>(std::filesystem::file_size(streamPath_)) / touch, "GB/s");
    run.layer("lcl.stream_serial_nodes_per_s",
              static_cast<double>(streamFile_->size()) / timedStream(run, serial, "lcl.stream_serial"),
              "nodes/s");
    for (const auto& [name, value] : telemetryDelta_) run.layer(name, value, "count");
  }

 private:
  void prepareInputs(Run& run) {
    lanes_ = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const Problems problems;
    auto add = [&](int group, const std::string& problem, int dims, int n) {
      Request request;
      request.group = group;
      request.problem = problem;
      request.dims = dims;
      request.instance.n = n;
      if (dims == 2) request.torus = std::make_unique<Torus2D>(n);
      if (dims > 2) request.torusD = std::make_unique<TorusD>(dims, n);
      requests_.push_back(std::move(request));
    };
    for (const auto& [group, sides] :
         {std::pair{0, sizes_.small}, std::pair{1, sizes_.mid}, std::pair{2, sizes_.large}}) {
      for (int n : sides) {
        for (const auto& names : kProblems2D) add(group, names[0], 2, n);
      }
    }
    add(3, "vcd3", 3, sizes_.d3);
    add(3, "vcd4", 4, sizes_.d4);

    // The labellings are generated on every lane, each from its own stream
    // of the seed (the 8192^2 ones take seconds each).
    std::atomic<std::size_t> next{0};
    std::exception_ptr failure;
    std::mutex failureMutex;
    std::vector<std::thread> workers;
    for (int lane = 0; lane < lanes_; ++lane) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < requests_.size(); i = next++) {
          Request& request = requests_[i];
          SplitMix64 rng(run.seed ^ (0xb01cb01cull + 0x9e3779b97f4a7c15ull * i));
          const int n = request.instance.n;
          try {
            if (request.dims == 2) {
              const char* spec = "";
              for (const auto& names : kProblems2D) {
                if (request.problem == names[0]) spec = names[1];
              }
              request.instance = makeInstance2D(spec, problems.byName(request.problem), n,
                                                std::clamp(n / 16, 4, 64), rng);
            } else {
              request.instance = makeInstanceD(request.dims == 3 ? problems.vcd3 : problems.vcd4,
                                               request.dims, n, 8, rng);
            }
          } catch (...) {
            const std::lock_guard<std::mutex> lock(failureMutex);
            failure = std::current_exception();
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    if (failure) std::rethrow_exception(failure);
    SplitMix64 rng(run.seed ^ 0x57e4a357e4a3ull);
    stream_.emplace(problems.vc4, sizes_.stream, 32, rng);
  }

  VerifyRequest makeRequest(const Request& request, const engine::EngineOptions& engine) const {
    VerifyRequest verifyRequest;
    if (request.dims == 2) {
      verifyRequest.problem = &problems_->byName(request.problem);
      verifyRequest.torus = request.torus.get();
    } else {
      verifyRequest.problemD = request.dims == 3 ? &problems_->vcd3 : &problems_->vcd4;
      verifyRequest.torusD = request.torusD.get();
    }
    verifyRequest.labels = request.instance.labels;
    verifyRequest.options.countViolations = true;
    verifyRequest.options.engine = engine;
    return verifyRequest;
  }

  static void check(Run& run, const Request& request, const VerifyResult& result) {
    run.attempt(result.violations == request.instance.expected);
    if (result.violations != request.instance.expected) {
      run.wrong(request.problem + " at n=" + std::to_string(request.instance.n) + ": " +
                std::to_string(result.violations) + " violations, expected " +
                std::to_string(request.instance.expected));
    }
  }

  double timedVerify(Run& run, const Request& request, const engine::EngineOptions& engine,
                     const char* span) {
    const VerifyRequest verifyRequest = makeRequest(request, engine);
    VerifyResult result;
    const double seconds = timed(span, [&] { result = verify(verifyRequest); });
    check(run, request, result);
    return seconds;
  }

  double timedStream(Run& run, const engine::EngineOptions& engine,
                     const char* span = "e2e.verify_stream") {
    VerifyRequest request;
    request.problem = &problems_->vc4;
    request.file = streamFile_.get();
    request.options.countViolations = true;
    request.options.engine = engine;
    VerifyResult result;
    const double seconds = timed(span, [&] { result = verify(request); });
    run.attempt(result.violations == stream_->expected());
    if (result.violations != stream_->expected()) {
      run.wrong("stream pass: " + std::to_string(result.violations) + " violations, expected " +
                std::to_string(stream_->expected()));
    }
    return seconds;
  }

  /// Peak resident set of the helper process while it streams the file at
  /// nproc lanes -- no in-core labelling is resident there.
  double peakStreamRssMib(Run& run) {
    double peakMib = 0;
    const bool ok = stream_probe::run(streamPath_, lanes_, stream_->expected(), &peakMib);
    run.attempt(ok);
    if (!ok) run.wrong("the RSS probe's stream pass failed");
    return peakMib;
  }

  Sizes sizes_;
  int lanes_ = 1;
  std::vector<Request> requests_;
  std::optional<StreamedColouring> stream_;
  std::string streamPath_;
  std::optional<Problems> problems_;
  std::unique_ptr<engine::ThreadPool> pool_;
  std::unique_ptr<StreamLabelling> streamFile_;
  double writerMbPerS_ = 0;
  double streamOpenSeconds_ = 0;
  Series rates_[4];  // per in-core window, by group
  Series streamRates_;
  double lastRound_ = 0, lastPass_ = 0;  // seconds
  double groupRate_[4] = {0, 0, 0, 0};
  double streamRate_ = 0;
  /// Counter increments over the measured slices (process-wide counters).
  std::map<std::string, double> telemetryDelta_;
  unsigned touchSink_ = 0;
};

}  // namespace

std::unique_ptr<Phase> makeVerifyBulkPhase(Size size) {
  return std::make_unique<VerifyBulkPhase>(size);
}

namespace stream_probe {
namespace {

int commandFd = -1;
int replyFd = -1;
pid_t helper = -1;

bool streamOnce(const std::string& path, int lanes, std::int64_t expected) {
  const GridLcl vc4 = problems::vertexColouring(4);
  engine::ThreadPool pool(lanes);
  const StreamLabelling file(path);
  VerifyRequest request;
  request.problem = &vc4;
  request.file = &file;
  request.options.countViolations = true;
  request.options.engine.threads = lanes;
  request.options.engine.pool = &pool;
  return verify(request).violations == expected;
}

/// The helper's loop: one "<lanes> <expected> <path>" line per request,
/// answered with "<ok> <peak KiB>"; EOF ends it.
[[noreturn]] void serve(int in, int out) {
  FILE* commands = fdopen(in, "r");
  char line[4096];
  while (commands != nullptr && std::fgets(line, sizeof line, commands) != nullptr) {
    int lanes = 0;
    long long expected = 0;
    int consumed = 0;
    bool ok = std::sscanf(line, "%d %lld %n", &lanes, &expected, &consumed) == 2;
    std::string path = line + consumed;
    while (!path.empty() && path.back() == '\n') path.pop_back();
    try {
      ok = ok && streamOnce(path, lanes, expected);
    } catch (const std::exception&) {
      ok = false;
    }
    const std::string reply =
        std::to_string(ok ? 1 : 0) + " " + std::to_string(support::peakRssKb()) + "\n";
    if (write(out, reply.data(), reply.size()) != static_cast<ssize_t>(reply.size())) break;
  }
  _exit(0);
}

}  // namespace

void start() {
  int toHelper[2];
  int fromHelper[2];
  if (pipe(toHelper) != 0 || pipe(fromHelper) != 0) {
    throw std::runtime_error("stream_probe: pipe failed");
  }
  std::fflush(nullptr);
  helper = fork();
  if (helper < 0) throw std::runtime_error("stream_probe: fork failed");
  if (helper == 0) {
    close(toHelper[1]);
    close(fromHelper[0]);
    serve(toHelper[0], fromHelper[1]);
  }
  close(toHelper[0]);
  close(fromHelper[1]);
  commandFd = toHelper[1];
  replyFd = fromHelper[0];
}

bool run(const std::string& path, int lanes, std::int64_t expected, double* peakMib) {
  const std::string command =
      std::to_string(lanes) + " " + std::to_string(expected) + " " + path + "\n";
  if (commandFd < 0 ||
      write(commandFd, command.data(), command.size()) != static_cast<ssize_t>(command.size())) {
    return false;
  }
  std::string reply;
  char c = 0;
  while (read(replyFd, &c, 1) == 1 && c != '\n') reply.push_back(c);
  int ok = 0;
  long long peakKib = 0;
  if (std::sscanf(reply.c_str(), "%d %lld", &ok, &peakKib) != 2 || peakKib <= 0) return false;
  *peakMib = static_cast<double>(peakKib) / 1024.0;
  return ok == 1;
}

void stop() {
  if (helper <= 0) return;
  close(commandFd);
  close(replyFd);
  commandFd = replyFd = -1;
  int status = 0;
  while (waitpid(helper, &status, 0) < 0 && errno == EINTR) {
  }
  helper = -1;
}

}  // namespace stream_probe

}  // namespace perfbench
