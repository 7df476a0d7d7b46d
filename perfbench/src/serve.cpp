// The `serve` phase: an in-process VerificationService on loopback TCP
// (2 service threads, engineThreads = 2) under two closed-loop phases on
// one daemon -- ServiceClient is blocking, so every client waits for its
// reply before sending the next request.
//
//  * small: 3 clients, each repeating a 32-request mix of 29 vc:4 32x32
//    count-mode verifies by fingerprint (the first by spec), 2 cvc:3
//    classifies and 1 stats request. The per-request path is the cost.
//  * bulk: 2 clients sending n x n inline vc:4 count-mode verifies at the
//    daemon's default lanes: a 1 MiB frame per request at n = 512.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "labellings.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "service/client.hpp"
#include "service/problem_registry.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/json.hpp"

namespace perfbench {
namespace {

using namespace lclgrid;
using service::ServiceClient;

// On a 4-vCPU KVM guest, 2 small-phase clients gave a bimodal p99 (76-158 us
// across runs) while 3 kept QPS, p50 and p99 within +-5%. Keep 3.
constexpr int kSmallClients = 3;
constexpr int kBulkClients = 2;
constexpr int kSmallN = 32;
constexpr int kPlants = 4;

enum class Op : std::uint8_t { kVerify, kClassify, kStats };

struct Sample {
  double at;  // seconds since the slice started
  double us;  // round trip
  Op op;
};

/// A kWindowSeconds stretch of a slice, with its steal share (bench.hpp).
struct Window {
  double seconds = 0;
  double steal = 0;
  std::vector<Sample> samples;
};

std::vector<double> steals(const std::vector<Window>& windows) {
  std::vector<double> values;
  for (const Window& window : windows) values.push_back(window.steal);
  return values;
}

/// The samples of the windows a summary keeps, pooled, and their seconds.
std::vector<Sample> keptSamples(const std::vector<Window>& windows, double* seconds) {
  const std::vector<bool> kept = keptWindows(steals(windows));
  countWindows(kept);
  std::vector<Sample> samples;
  *seconds = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (!kept[i]) continue;
    samples.insert(samples.end(), windows[i].samples.begin(), windows[i].samples.end());
    *seconds += windows[i].seconds;
  }
  return samples;
}

/// Round-trip percentile of one op over pooled samples.
double latency(const std::vector<Sample>& samples, Op op, double q) {
  std::vector<double> us;
  for (const Sample& sample : samples) {
    if (sample.op == op) us.push_back(sample.us);
  }
  return percentile(std::move(us), q);
}

class ServePhase : public Phase {
 public:
  explicit ServePhase(Size size) : bulkN_(size == Size::kFull ? 512 : 128) {}

  double setup(Run& run) override {
    if (small_.empty()) prepareInputs(run);
    service::ServiceConfig config;
    config.serviceThreads = 2;
    config.engineThreads = 2;
    const auto start = Clock::now();
    daemon_ = std::make_unique<service::VerificationService>(config);
    daemon_->start();
    return secondsSince(start);
  }

  void teardown() override {
    if (daemon_) daemon_->stop();
    daemon_.reset();
  }

  void measure(Run& run, double seconds) override {
    const int port = daemon_->port();
    runClients(smallWindows_, kSmallClients, 0.6 * seconds,
               [&](int index, auto start, double length) {
                 return smallClient(run, port, index, start, length);
               });
    runClients(bulkWindows_, kBulkClients, 0.4 * seconds,
               [&](int index, auto start, double length) {
                 return bulkClient(run, port, index, start, length);
               });
  }

  double calmShare() const override {
    return std::min(perfbench::calmShare(steals(smallWindows_)),
                    perfbench::calmShare(steals(bulkWindows_)));
  }

  void report(Run&, Metrics& out) override {
    // Every metric pools the requests of all kept windows, so a stall that
    // hits any of them shows in the tail.
    double smallSeconds = 0, bulkSeconds = 0;
    const std::vector<Sample> small = keptSamples(smallWindows_, &smallSeconds);
    const std::vector<Sample> bulk = keptSamples(bulkWindows_, &bulkSeconds);
    smallP50_ = latency(small, Op::kVerify, 0.5);
    bulkP50_ = latency(bulk, Op::kVerify, 0.5);
    bulkP99_ = latency(bulk, Op::kVerify, 0.99);
    out["serve_small_qps"] = {static_cast<double>(small.size()) / smallSeconds, "req/s"};
    out["serve_small_p50_us"] = {smallP50_, "us"};
    out["serve_small_p99_us"] = {latency(small, Op::kVerify, 0.99), "us"};
    out["serve_classify_p50_us"] = {latency(small, Op::kClassify, 0.5), "us"};
    out["serve_bulk_p50_us"] = {bulkP50_, "us"};
    std::fprintf(stderr,
                 "serve: %zu small-phase requests in %.1f s of kept windows (%zu windows), %zu bulk "
                 "verifies at %dx%d in %.1f s (%zu windows), bulk p99 %.1f us\n",
                 small.size(), smallSeconds, smallWindows_.size(), bulk.size(), bulkN_, bulkN_,
                 bulkSeconds, bulkWindows_.size(), bulkP99_);
    smallWindows_.clear();
    bulkWindows_.clear();
  }

  void layers(Run& run) override {
    const GridLcl vc4 = problems::vertexColouring(4);
    // Codec calls on the frames the two phases send.
    service::VerifyRequestFrame smallFrame = fingerprintFrame(small_[0]);
    service::VerifyRequestFrame bulkFrame = inlineFrame(bulk_[0]);
    struct Codec {
      const char* tag;
      service::VerifyRequestFrame* frame;
      int reps;
      double encode = 0, decode = 0;
    };
    Codec codecs[] = {{"small", &smallFrame, 400}, {"bulk", &bulkFrame, 30}};
    for (Codec& codec : codecs) {
      std::vector<std::uint8_t> payload;
      codec.encode = medianOf(codec.reps, "service.encode_request", [&] {
        payload = service::encodeVerifyRequest(*codec.frame);
      });
      codec.decode = medianOf(codec.reps, "service.decode_request", [&] {
        const auto decoded = service::decodeVerifyRequest(payload);
        if (decoded.labels.size() != codec.frame->labels.size()) {
          run.wrong("decodeVerifyRequest changed the label count");
        }
      });
      run.layer(std::string("service.encode_request_us.") + codec.tag, 1e6 * codec.encode, "us");
      run.layer(std::string("service.decode_request_us.") + codec.tag, 1e6 * codec.decode, "us");
    }
    service::VerifyResultFrame result;
    result.violations = small_[0].expected;
    result.fingerprint = vc4.table().fingerprint();
    const double codec = medianOf(400, "service.result_codec", [&] {
      const auto bytes = service::encodeVerifyResult(result);
      if (service::decodeVerifyResult(bytes).violations != result.violations) {
        run.wrong("verify result codec round trip");
      }
    });
    run.layer("service.result_codec_us", 1e6 * codec, "us");
    run.layer("service.resolve_us",
              1e6 * medianOf(50, "service.resolve", [] { (void)service::buildProblem("vc:4"); }),
              "us");
    std::string stats;
    run.layer("service.stats_json_us",
              1e6 * medianOf(50, "service.stats_json", [&] { stats = daemon_->statsJson(); }),
              "us");

    // verify() on the same labellings at the daemon's lane counts: 1 for the
    // small frames (threads = 1), engineThreads = 2 for the bulk ones (a
    // private pool per call, as the daemon pays it).
    auto verifyAt = [&](const Instance& instance, const Torus2D& torus, int threads) {
      VerifyRequest request;
      request.problem = &vc4;
      request.torus = &torus;
      request.labels = instance.labels;
      request.options.countViolations = true;
      request.options.engine.threads = threads;
      return [&run, request, &instance] {
        if (verify(request).violations != instance.expected) {
          run.wrong("in-process verify count");
        }
      };
    };
    const Torus2D smallTorus(kSmallN);
    const Torus2D bulkTorus(bulkN_);
    const double verifySmall = medianOf(400, "engine.verify", verifyAt(small_[0], smallTorus, 1));
    const double verifyBulk = medianOf(30, "engine.verify", verifyAt(bulk_[0], bulkTorus, 2));
    run.layer("engine.verify_us.small", 1e6 * verifySmall, "us");
    run.layer("engine.verify_us.bulk", 1e6 * verifyBulk, "us");
    run.layer("engine.pool_create_us",
              1e6 * medianOf(50, "engine.pool_create", [] { engine::ThreadPool pool(2); }),
              "us");
    run.layer("service.outside_engine_us.small",
              smallP50_ - 1e6 * (codecs[0].encode + codecs[0].decode + verifySmall + codec), "us");
    run.layer("service.outside_engine_us.bulk",
              bulkP50_ - 1e6 * (codecs[1].encode + codecs[1].decode + verifyBulk + codec), "us");
    run.layer("service.bulk_p99_us", bulkP99_, "us");

    run.layer("cycle.classify_us", 1e6 * medianOf(50, "cycle.classify", [&] {
                if (engine::classify(service::buildCycleProblem("cvc:3")).complexity !=
                    classifyComplexity_) {
                  run.wrong("cvc:3 classification changed");
                }
              }),
              "us");

    const service::ServiceCounters counters = daemon_->counters();
    run.layer("service.requests", static_cast<double>(counters.requests), "count");
    run.layer("service.busy", static_cast<double>(counters.busyRejections), "count");
    run.layer("service.errors", static_cast<double>(counters.errors), "count");
    run.layer("service.timeouts", static_cast<double>(counters.timeouts), "count");
    run.layer("service.queue_peak_depth", static_cast<double>(counters.queuePeakDepth), "count");
    const support::JsonValue doc = support::parseJson(stats);
    const support::JsonValue& cache = doc.at("service").at("problem_cache");
    run.layer("service.problem_cache_hits", static_cast<double>(cache.at("hits").asInt()), "count");
    run.layer("service.problem_cache_misses", static_cast<double>(cache.at("misses").asInt()),
              "count");
  }

 private:
  void prepareInputs(Run& run) {
    SplitMix64 rng(run.seed ^ 0x5e27e5e27eull);
    const GridLcl vc4 = problems::vertexColouring(4);
    for (int i = 0; i < kSmallClients; ++i) {
      small_.push_back(makeInstance2D("vc:4", vc4, kSmallN, kPlants, rng));
    }
    for (int i = 0; i < kBulkClients; ++i) {
      bulk_.push_back(makeInstance2D("vc:4", vc4, bulkN_, 2 * kPlants, rng));
    }
    classifyComplexity_ = engine::classify(service::buildCycleProblem("cvc:3")).complexity;
  }

  static service::VerifyRequestFrame inlineFrame(const Instance& instance) {
    service::VerifyRequestFrame frame;
    frame.spec = "vc:4";
    frame.countViolations = true;
    frame.n = static_cast<std::uint32_t>(instance.n);
    frame.labels = instance.labels;
    return frame;
  }

  service::VerifyRequestFrame fingerprintFrame(const Instance& instance) const {
    service::VerifyRequestFrame frame = inlineFrame(instance);
    frame.problemRef = service::ProblemRefKind::kFingerprint;
    frame.fingerprint = problems::vertexColouring(4).table().fingerprint();
    frame.spec.clear();
    return frame;
  }

  /// Runs `count` client threads for `seconds` from a common start, while
  /// this thread closes a window every kWindowSeconds; appends the windows.
  template <typename F>
  static void runClients(std::vector<Window>& windows, int count, double seconds, F&& body) {
    const int windowCount = std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
    const double length = seconds / windowCount;
    std::vector<std::vector<Sample>> logs(static_cast<std::size_t>(count));
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (int i = 0; i < count; ++i) {
      threads.emplace_back([&, i] { logs[static_cast<std::size_t>(i)] = body(i, start, seconds); });
    }
    const std::size_t first = windows.size();
    for (int w = 0; w < windowCount; ++w) {
      const StealClock clock;
      std::this_thread::sleep_until(start + std::chrono::duration<double>(length * (w + 1)));
      windows.push_back(Window{length, clock.steal(), {}});
    }
    for (std::thread& thread : threads) thread.join();
    for (const auto& log : logs) {
      for (const Sample& sample : log) {
        // A request that overran the slice counts in its last window.
        const int w = std::min(windowCount - 1, static_cast<int>(sample.at / length));
        windows[first + static_cast<std::size_t>(w)].samples.push_back(sample);
      }
    }
  }

  bool checkVerify(Run& run, const std::optional<service::VerifyResultFrame>& reply,
                   const Instance& instance) {
    if (!reply) {
      run.attempt(false);  // kBusy
      return false;
    }
    run.attempt(true);
    if (reply->violations != instance.expected || reply->feasible != (instance.expected == 0) ||
        reply->degraded) {
      run.wrong("daemon verify count " + std::to_string(reply->violations) + ", expected " +
                std::to_string(instance.expected));
      return false;
    }
    return true;
  }

  std::vector<Sample> smallClient(Run& run, int port, int index, Clock::time_point phaseStart,
                                  double seconds) {
    std::vector<Sample> log;
    const Instance& instance = small_[static_cast<std::size_t>(index)];
    const std::uint64_t idBase = (static_cast<std::uint64_t>(index) + 1) << 40;
    try {
      ServiceClient client = ServiceClient::connectTcp(port);
      const auto first = client.verify(inlineFrame(instance));
      if (!checkVerify(run, first, instance)) return log;
      service::VerifyRequestFrame byFingerprint = fingerprintFrame(instance);
      byFingerprint.fingerprint = first->fingerprint;
      service::ClassifyRequestFrame classify;
      classify.spec = "cvc:3";
      const auto deadline = phaseStart + std::chrono::duration<double>(seconds);
      for (std::uint64_t i = 1; Clock::now() < deadline; ++i) {
        const std::uint64_t slot = i % 32;
        const Op op = slot == 5 || slot == 21 ? Op::kClassify : slot == 11 ? Op::kStats : Op::kVerify;
        Span span("e2e.client_rtt", idBase + i);
        const auto start = Clock::now();
        bool ok = false;
        try {
          if (op == Op::kClassify) {
            const auto reply = client.classify(classify);
            ok = reply && support::parseJson(*reply).at("complexity").asString() ==
                              classifyComplexity_;
            if (reply && !ok) run.wrong("daemon cvc:3 classification");
            run.attempt(ok);
          } else if (op == Op::kStats) {
            const auto reply = client.stats();
            ok = reply && support::parseJson(*reply).find("service") != nullptr;
            run.attempt(ok);
          } else {
            ok = checkVerify(run, client.verify(byFingerprint), instance);
          }
        } catch (const service::RemoteError&) {
          run.attempt(false);  // kError, kTimeout or a dropped connection
          if (!client.connected()) client.reconnect();
        }
        if (ok) {
          log.push_back({std::chrono::duration<double>(start - phaseStart).count(),
                         1e6 * secondsSince(start), op});
        }
      }
    } catch (const std::exception& error) {
      run.attempt(false);
      std::fprintf(stderr, "lclbench: small client %d: %s\n", index, error.what());
    }
    return log;
  }

  std::vector<Sample> bulkClient(Run& run, int port, int index, Clock::time_point phaseStart,
                                 double seconds) {
    std::vector<Sample> log;
    const Instance& instance = bulk_[static_cast<std::size_t>(index)];
    const std::uint64_t idBase = (static_cast<std::uint64_t>(index) + 8) << 40;
    try {
      ServiceClient client = ServiceClient::connectTcp(port);
      service::VerifyRequestFrame frame = inlineFrame(instance);
      frame.threads = 0;  // the daemon's engineThreads
      const auto deadline = phaseStart + std::chrono::duration<double>(seconds);
      for (std::uint64_t i = 1; Clock::now() < deadline || i <= 20; ++i) {
        Span span("e2e.client_rtt", idBase + i);
        const auto start = Clock::now();
        try {
          if (checkVerify(run, client.verify(frame), instance)) {
            log.push_back({std::chrono::duration<double>(start - phaseStart).count(),
                           1e6 * secondsSince(start), Op::kVerify});
          }
        } catch (const service::RemoteError&) {
          run.attempt(false);
          if (!client.connected()) client.reconnect();
        }
      }
    } catch (const std::exception& error) {
      run.attempt(false);
      std::fprintf(stderr, "lclbench: bulk client %d: %s\n", index, error.what());
    }
    return log;
  }

  int bulkN_;
  std::vector<Window> smallWindows_;
  std::vector<Window> bulkWindows_;
  std::vector<Instance> small_;
  std::vector<Instance> bulk_;
  std::string classifyComplexity_;
  std::unique_ptr<service::VerificationService> daemon_;
  double smallP50_ = 0;
  double bulkP50_ = 0;
  double bulkP99_ = 0;
};

}  // namespace

std::unique_ptr<Phase> makeServePhase(Size size) {
  return std::make_unique<ServePhase>(size);
}

}  // namespace perfbench
