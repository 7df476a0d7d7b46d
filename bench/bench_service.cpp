// Service daemon throughput: an in-process VerificationService on a TCP
// loopback socket, hammered by concurrent blocking clients with the mixed
// request stream the daemon exists for -- verification (fingerprint-
// referenced after a first by-spec request, inline labels handed to the
// engine zero-copy), classification (report-cache hits after the first)
// and stats polls. Reports per-op requests / qps / p50 / p99 latency as
// JSON in the repo-wide {name, config, results[]} schema -- the qps and
// p99_us columns are what scripts/check_bench_json.py gates and the perf
// trajectory plots (docs/service.md).
//
// Soak mode additionally drives the overload path on purpose: each client
// periodically bursts more kSleep requests than its admission budget, so
// the daemon must answer the excess with explicit kBusy frames (never a
// silent drop, never a crash) while the other clients' traffic continues.
// CI runs the soak under AddressSanitizer; the run fails if any burst
// response goes missing or the expected kBusy rejections never occur.
//
// Chaos mode (--soak S --chaos, docs/robustness.md) additionally arms
// probabilistic fault points across the whole stack (dropped response
// frames, injected connection resets, scheduling jitter, short I/O) and
// swaps the clients for retrying clients with deadlines; every few dozen
// requests a client abandons its connection mid-request (a simulated
// client kill). The run exits non-zero if any request is LOST (retries
// exhausted) or answered WRONG (a verify result that disagrees with the
// known labelling) -- under chaos every failure must stay typed and
// recoverable.
//
// Overload mode (--overload) A/Bs the graceful-degradation policy: each
// client keeps 2x its admission budget of allowDegrade countViolations
// requests pipelined against a small shed threshold, once with shedding
// enabled and once without; the two rows' p99 latencies are the bounded-
// degradation acceptance numbers quoted in docs/robustness.md.
//
// Usage: bench_service [--smoke] [--soak S] [--chaos] [--overload]
//                      [--seconds S] [--clients N]
//                      [--service-threads N] [--engine-threads N]
//                      [--trace-out F] [--metrics-out F]
//   --smoke            CI sizes: 2 clients, ~0.3 s
//   --soak S           run S seconds with overload bursts (implies
//                      test-ops and a small admission budget)
//   --chaos            (with --soak) arm probabilistic faults + retrying
//                      clients + random client kills
//   --overload         run the shed on/off degradation A/B instead of the
//                      throughput run
//   --seconds S        measurement window (default 2.0)
//   --clients N        concurrent client connections (default 4)
//   --service-threads N  daemon worker threads (default 2)
//   --engine-threads N   lanes of the daemon's shared engine pool; every
//                        verify frame asks for all of them (default 1)
//   --trace-out F    enable span tracing, write Chrome trace JSON to F
//   --metrics-out F  write the telemetry metrics snapshot to F
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/retry.hpp"
#include "service/service.hpp"
#include "support/faultpoint.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"

using namespace lclgrid;
using service::RetryingClient;
using service::ServiceClient;
namespace fp = lclgrid::support::faultpoint;

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Proper 4-colouring of the even-sided torus: colour = 2*(y%2) + (x%2),
/// so both axes flip a distinct bit between neighbours.
std::vector<int> fourColouring(int n) {
  std::vector<int> labels(static_cast<std::size_t>(n) * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      labels[static_cast<std::size_t>(y) * n + x] = 2 * (y % 2) + (x % 2);
    }
  }
  return labels;
}

struct OpStats {
  std::int64_t requests = 0;
  std::vector<double> latenciesUs;
};

struct ClientStats {
  OpStats verify;
  OpStats classify;
  OpStats stats;
  std::int64_t burstRequests = 0;
  std::int64_t busy = 0;
  std::int64_t missingResponses = 0;  // burst replies that never arrived
  std::int64_t lost = 0;   // chaos: retries exhausted, request abandoned
  std::int64_t wrong = 0;  // chaos: a verdict disagreed with the labelling
  std::int64_t kills = 0;  // chaos: simulated client kills
  service::RetryStats retry;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(std::ceil(q * double(sorted.size())) - 1));
  return sorted[index];
}

void clientLoop(int port, double seconds, bool soak, int burstSize,
                ClientStats* out) {
  ServiceClient client = ServiceClient::connectTcp(port);
  const int n = 32;
  const std::vector<int> labels = fourColouring(n);

  service::VerifyRequestFrame bySpec;
  bySpec.spec = "vc:4";
  bySpec.countViolations = true;
  bySpec.threads = 0;  // the daemon's --engine-threads
  bySpec.n = static_cast<std::uint32_t>(n);
  bySpec.labels = labels;
  const auto first = client.verify(bySpec);
  if (!first) return;  // busy on the very first request: nothing to measure
  ++out->verify.requests;

  // The steady-state request: fingerprint-referenced (no spec resolution,
  // the daemon's cache hot path).
  service::VerifyRequestFrame byFingerprint = bySpec;
  byFingerprint.problemRef = service::ProblemRefKind::kFingerprint;
  byFingerprint.fingerprint = first->fingerprint;
  byFingerprint.spec.clear();

  service::ClassifyRequestFrame classifyFrame;
  classifyFrame.spec = "cvc:3";

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  std::int64_t iteration = 0;
  while (Clock::now() < deadline) {
    ++iteration;
    if (soak && iteration % 8 == 0) {
      // Deliberate overload: more sleeps than the admission budget,
      // back-to-back. Every frame must be answered -- kPong or kBusy.
      for (int i = 0; i < burstSize; ++i) {
        std::vector<std::uint8_t> payload;
        service::wire::appendU32(payload, 2);  // ms
        client.sendFrame(service::wire::FrameType::kSleep,
                         1000u + static_cast<std::uint32_t>(i), payload);
      }
      out->burstRequests += burstSize;
      for (int i = 0; i < burstSize; ++i) {
        const auto reply = client.receive();
        if (!reply) {
          ++out->missingResponses;
          return;
        }
        if (reply->type == service::wire::FrameType::kBusy) ++out->busy;
      }
      continue;
    }
    // Offsets chosen to never collide with the soak burst branch above.
    if (iteration % 16 == 5) {
      const auto start = Clock::now();
      if (client.classify(classifyFrame)) {
        out->classify.latenciesUs.push_back(microsSince(start));
        ++out->classify.requests;
      } else {
        ++out->busy;
      }
      continue;
    }
    if (iteration % 32 == 11 || out->stats.requests == 0) {
      const auto start = Clock::now();
      if (client.stats()) {
        out->stats.latenciesUs.push_back(microsSince(start));
        ++out->stats.requests;
      } else {
        ++out->busy;
      }
      continue;
    }
    const auto start = Clock::now();
    if (client.verify(byFingerprint)) {
      out->verify.latenciesUs.push_back(microsSince(start));
      ++out->verify.requests;
    } else {
      ++out->busy;
    }
  }
}

void emitOpRow(support::JsonWriter& json, const char* op, OpStats& stats,
               double elapsedSeconds, std::int64_t busy, std::int64_t shed,
               std::int64_t timeouts, std::int64_t retries) {
  std::sort(stats.latenciesUs.begin(), stats.latenciesUs.end());
  json.beginObject();
  json.key("op").value(op);
  json.key("requests").value(static_cast<long long>(stats.requests));
  json.key("busy").value(static_cast<long long>(busy));
  json.key("qps").value(double(stats.requests) / elapsedSeconds);
  json.key("p50_us").value(percentile(stats.latenciesUs, 0.50));
  json.key("p99_us").value(percentile(stats.latenciesUs, 0.99));
  // Robustness columns gated by scripts/check_bench_json.py: degradation
  // downgrades, kTimeout answers and absorbed retryable failures.
  json.key("shed").value(static_cast<long long>(shed));
  json.key("timeouts").value(static_cast<long long>(timeouts));
  json.key("retries").value(static_cast<long long>(retries));
  json.endObject();
}

// --- chaos mode --------------------------------------------------------------

/// The probabilistic fault mix armed for --chaos. Fixed seeds keep the
/// schedule reproducible for a given request interleaving; every entry is
/// an outcome the hardening layers must absorb as a typed, retryable
/// failure -- never a hang, crash or wrong answer.
constexpr const char* kChaosFaults =
    "service.write_response:drop@p=0.004@seed=101,"       // lost responses
    "service.read_request:errno=ECONNRESET@p=0.003@seed=102,"  // conn resets
    "service.dispatch:delay=1@p=0.02@seed=103,"           // scheduling jitter
    "pool.task:delay=1@p=0.01@seed=104,"                  // engine jitter
    "client.send:short=5@p=0.02@seed=105,"                // partial sends
    "client.recv:short=3@p=0.02@seed=106";                // partial recvs

void chaosClientLoop(int port, double seconds, int index, ClientStats* out) {
  service::RetryPolicy policy;
  policy.maxAttempts = 6;
  policy.baseDelayMs = 1;
  policy.maxDelayMs = 40;
  policy.jitterSeed =
      0x9e3779b97f4a7c15ull + 977ull * static_cast<unsigned>(index + 1);
  ServiceClient raw = ServiceClient::connectTcp(port);
  // The client deadline is what turns a dropped response frame into a
  // typed TimeoutError instead of a hang; it bounds every stall below.
  raw.setDeadlineMs(250);
  RetryingClient client(std::move(raw), policy);

  const int n = 24;
  // frame.labels is a zero-copy span; the backing vector must outlive
  // every verify call below.
  const std::vector<int> labels = fourColouring(n);
  service::VerifyRequestFrame bySpec;
  bySpec.spec = "vc:4";
  bySpec.countViolations = true;
  bySpec.threads = 0;  // the daemon's --engine-threads
  bySpec.n = static_cast<std::uint32_t>(n);
  bySpec.labels = labels;

  service::ClassifyRequestFrame classifyFrame;
  classifyFrame.spec = "cvc:3";

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  std::int64_t iteration = 0;
  while (Clock::now() < deadline) {
    ++iteration;
    if (iteration % 29 == 13) {
      // Simulated client kill: abandon the connection with a request in
      // flight. The daemon's worker must cope with the dead socket; the
      // client reconnects and carries on as a fresh connection.
      std::vector<std::uint8_t> payload;
      service::wire::appendU32(payload, 1);  // ms
      try {
        client.client().sendFrame(service::wire::FrameType::kSleep, 4096u,
                                  payload);
      } catch (const std::exception&) {
        // The kill is the point; a send failure just means it died earlier.
      }
      client.client().close();
      ++out->kills;
      for (int attempt = 0; attempt < 8 && !client.client().connected();
           ++attempt) {
        try {
          client.client().reconnect();
        } catch (const std::exception&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      if (!client.client().connected()) {
        ++out->lost;
        break;
      }
      continue;
    }
    try {
      if (iteration % 16 == 5) {
        const auto start = Clock::now();
        (void)client.classify(classifyFrame);
        out->classify.latenciesUs.push_back(microsSince(start));
        ++out->classify.requests;
      } else if (iteration % 32 == 11) {
        const auto start = Clock::now();
        (void)client.stats();
        out->stats.latenciesUs.push_back(microsSince(start));
        ++out->stats.requests;
      } else {
        const auto start = Clock::now();
        const auto result = client.verify(bySpec);
        out->verify.latenciesUs.push_back(microsSince(start));
        ++out->verify.requests;
        // The labelling is a proper 4-colouring; any other verdict is a
        // silent wrong answer, which chaos must never produce.
        if (!result.feasible || result.violations != 0) ++out->wrong;
      }
    } catch (const std::exception&) {
      // Retries exhausted (or a non-retryable error): the request is LOST.
      ++out->lost;
      if (!client.client().connected()) {
        try {
          client.client().reconnect();
        } catch (const std::exception&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    }
  }
  out->retry = client.retryStats();
}

// --- overload mode -----------------------------------------------------------

struct OverloadClient {
  OpStats lat;
  std::int64_t busy = 0;
  std::int64_t timeouts = 0;
  std::int64_t degraded = 0;
  std::int64_t exact = 0;
};

/// Keeps 2x the admission budget of allowDegrade countViolations requests
/// pipelined on one connection; classifies every response frame. Latency is
/// measured from the start of each pipelined round to each response.
void overloadClientLoop(int port, double seconds, int window,
                        const std::vector<std::uint8_t>* payload,
                        OverloadClient* out) {
  ServiceClient client = ServiceClient::connectTcp(port);
  client.setDeadlineMs(10000);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  std::uint32_t id = 1;
  try {
    while (Clock::now() < deadline) {
      const auto start = Clock::now();
      for (int i = 0; i < window; ++i) {
        client.sendFrame(service::wire::FrameType::kVerify, id++, *payload);
      }
      for (int i = 0; i < window; ++i) {
        const auto reply = client.receive();
        if (!reply) return;
        if (reply->type == service::wire::FrameType::kBusy) {
          ++out->busy;
        } else if (reply->type == service::wire::FrameType::kTimeout) {
          ++out->timeouts;
        } else if (reply->type == service::wire::FrameType::kVerifyResult) {
          out->lat.latenciesUs.push_back(microsSince(start));
          ++out->lat.requests;
          const auto result = service::decodeVerifyResult(reply->payload);
          if (result.degraded) {
            ++out->degraded;
          } else {
            ++out->exact;
          }
        }
      }
    }
  } catch (const std::exception&) {
    // A deadline or framing failure ends this client's contribution; the
    // remaining clients keep the pass meaningful.
  }
}

struct OverloadPass {
  OpStats lat;
  std::int64_t busy = 0;
  std::int64_t timeouts = 0;
  std::int64_t degraded = 0;
  std::int64_t exact = 0;
  std::int64_t shedDowngrades = 0;
  std::int64_t daemonTimeouts = 0;
  double elapsed = 0;
};

OverloadPass runOverloadPass(bool shedOn, double seconds, int clients,
                             int serviceThreads, int engineThreads) {
  service::ServiceConfig config;
  config.serviceThreads = serviceThreads;
  config.engineThreads = engineThreads;
  config.maxQueuedPerClient = 8;
  config.shedEnabled = shedOn;
  config.shedQueueDepth = std::max(2, serviceThreads);
  service::VerificationService daemon(config);
  daemon.start();

  // A labelling with an adjacent clash at the origin: early-exit verify
  // (the degraded form) finds it almost immediately, while an exact count
  // still scans all n^2 cells -- the asymmetry shedding exists to exploit.
  const int n = 256;
  std::vector<int> labels = fourColouring(n);
  labels[1] = labels[0];
  service::VerifyRequestFrame frame;
  frame.spec = "vc:4";
  frame.countViolations = true;
  frame.allowDegrade = true;
  frame.threads = 0;  // the daemon's --engine-threads
  frame.n = static_cast<std::uint32_t>(n);
  frame.labels = labels;  // span: `labels` stays alive past the encode
  const std::vector<std::uint8_t> payload =
      service::encodeVerifyRequest(frame);

  const int window = 2 * config.maxQueuedPerClient;  // 2x admission budget
  std::vector<OverloadClient> perClient(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto started = Clock::now();
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back(overloadClientLoop, daemon.port(), seconds, window,
                         &payload, &perClient[static_cast<std::size_t>(i)]);
  }
  for (std::thread& thread : threads) thread.join();
  OverloadPass pass;
  pass.elapsed =
      std::chrono::duration<double>(Clock::now() - started).count();
  daemon.stop();
  const service::ServiceCounters counters = daemon.counters();
  pass.shedDowngrades = counters.shedDowngrades;
  pass.daemonTimeouts = counters.timeouts;
  for (OverloadClient& client : perClient) {
    pass.lat.requests += client.lat.requests;
    pass.lat.latenciesUs.insert(pass.lat.latenciesUs.end(),
                                client.lat.latenciesUs.begin(),
                                client.lat.latenciesUs.end());
    pass.busy += client.busy;
    pass.timeouts += client.timeouts;
    pass.degraded += client.degraded;
    pass.exact += client.exact;
  }
  return pass;
}

void emitOverloadRow(support::JsonWriter& json, const char* op,
                     OverloadPass& pass) {
  std::sort(pass.lat.latenciesUs.begin(), pass.lat.latenciesUs.end());
  json.beginObject();
  json.key("op").value(op);
  json.key("requests").value(static_cast<long long>(pass.lat.requests));
  json.key("busy").value(static_cast<long long>(pass.busy));
  json.key("qps").value(double(pass.lat.requests) / pass.elapsed);
  json.key("p50_us").value(percentile(pass.lat.latenciesUs, 0.50));
  json.key("p99_us").value(percentile(pass.lat.latenciesUs, 0.99));
  json.key("shed").value(static_cast<long long>(pass.shedDowngrades));
  json.key("timeouts").value(static_cast<long long>(pass.daemonTimeouts));
  json.key("retries").value(0LL);
  json.key("degraded").value(static_cast<long long>(pass.degraded));
  json.key("exact").value(static_cast<long long>(pass.exact));
  json.endObject();
}

int runOverload(double seconds, int clients, int serviceThreads,
                int engineThreads) {
  OverloadPass shedOn =
      runOverloadPass(true, seconds, clients, serviceThreads, engineThreads);
  OverloadPass shedOff =
      runOverloadPass(false, seconds, clients, serviceThreads, engineThreads);

  support::JsonWriter json;
  json.beginObject();
  json.key("name").value("bench_service");
  json.key("config").beginObject();
  json.key("mode").value("overload");
  json.key("clients").value(clients);
  json.key("service_threads").value(serviceThreads);
  json.key("engine_threads").value(engineThreads);
  json.key("seconds").value(shedOn.elapsed + shedOff.elapsed);
  json.key("window_per_client").value(2 * 8);
  json.endObject();
  json.key("results").beginArray();
  emitOverloadRow(json, "overload_shed_on", shedOn);
  emitOverloadRow(json, "overload_shed_off", shedOff);
  json.endArray();
  json.endObject();
  std::printf("%s\n", json.str().c_str());

  // Acceptance: the shed-on pass must actually have downgraded work
  // (otherwise the A/B measured nothing), the shed-off pass must stay
  // exact, and both passes must have completed requests.
  if (shedOn.lat.requests == 0 || shedOff.lat.requests == 0) {
    std::fprintf(stderr, "bench_service: an overload pass saw no results\n");
    return 1;
  }
  if (shedOn.shedDowngrades == 0 || shedOn.degraded == 0) {
    std::fprintf(stderr,
                 "bench_service: overload never engaged degradation\n");
    return 1;
  }
  if (shedOff.degraded != 0) {
    std::fprintf(stderr,
                 "bench_service: shed-off pass produced degraded results\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 2.0;
  int clients = 4;
  int serviceThreads = 2;
  int engineThreads = 1;
  bool smoke = false;
  bool soak = false;
  bool chaos = false;
  bool overload = false;
  std::string traceOut;
  std::string metricsOut;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--soak") == 0 && i + 1 < argc) {
      soak = true;
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-threads") == 0 &&
               i + 1 < argc) {
      serviceThreads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--engine-threads") == 0 && i + 1 < argc) {
      engineThreads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      traceOut = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metricsOut = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--soak S] [--chaos] [--overload] "
                   "[--seconds S] "
                   "[--clients N] [--service-threads N] [--engine-threads N] "
                   "[--trace-out F] [--metrics-out F]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    seconds = std::min(seconds, 0.3);
    clients = std::min(clients, 2);
  }
  if (clients < 1 || serviceThreads < 1 || seconds <= 0) {
    std::fprintf(stderr, "bench_service: bad arguments\n");
    return 2;
  }
  if (chaos && !soak) {
    std::fprintf(stderr, "bench_service: --chaos requires --soak\n");
    return 2;
  }
  if (overload) {
    return runOverload(seconds, clients, serviceThreads, engineThreads);
  }
  if (!traceOut.empty()) telemetry::setTraceEnabled(true);

  service::ServiceConfig config;
  config.serviceThreads = serviceThreads;
  config.engineThreads = engineThreads;
  if (soak) {
    config.enableTestOps = true;
    config.maxQueuedPerClient = 2;  // small budget: bursts must draw kBusy
  }
  if (chaos) {
    // A modest queue-wait deadline keeps the kTimeout path live under the
    // injected scheduling jitter; the retrying clients absorb it.
    config.requestDeadlineMs = 100;
    // LCLGRID_CHAOS_FAULTS overrides the default mix (fault triage: run
    // the chaos harness against a single entry at a time).
    const char* overrideSpec = std::getenv("LCLGRID_CHAOS_FAULTS");
    fp::armSpecString(overrideSpec != nullptr ? overrideSpec : kChaosFaults);
  }
  const int burstSize = config.maxQueuedPerClient + 4;
  service::VerificationService daemon(config);
  daemon.start();

  std::vector<ClientStats> perClient(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto started = Clock::now();
  for (int i = 0; i < clients; ++i) {
    if (chaos) {
      threads.emplace_back(chaosClientLoop, daemon.port(), seconds, i,
                           &perClient[static_cast<std::size_t>(i)]);
    } else {
      threads.emplace_back(clientLoop, daemon.port(), seconds, soak,
                           burstSize, &perClient[static_cast<std::size_t>(i)]);
    }
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - started).count();
  daemon.stop();
  const service::ServiceCounters daemonCounters = daemon.counters();
  std::int64_t faultsFired = 0;
  if (chaos) {
    for (const auto& point : fp::registeredPoints()) faultsFired += point.fired;
    fp::disarmAll();
  }

  OpStats verify;
  OpStats classify;
  OpStats stats;
  OpStats all;
  std::int64_t busy = 0;
  std::int64_t burstRequests = 0;
  std::int64_t missing = 0;
  std::int64_t lost = 0;
  std::int64_t wrong = 0;
  std::int64_t kills = 0;
  std::int64_t retries = 0;
  for (ClientStats& client : perClient) {
    const auto merge = [&all](OpStats& into, OpStats& from) {
      into.requests += from.requests;
      all.requests += from.requests;
      all.latenciesUs.insert(all.latenciesUs.end(), from.latenciesUs.begin(),
                             from.latenciesUs.end());
      into.latenciesUs.insert(into.latenciesUs.end(),
                              from.latenciesUs.begin(),
                              from.latenciesUs.end());
    };
    merge(verify, client.verify);
    merge(classify, client.classify);
    merge(stats, client.stats);
    all.requests += client.burstRequests;
    burstRequests += client.burstRequests;
    busy += client.busy;
    missing += client.missingResponses;
    lost += client.lost;
    wrong += client.wrong;
    kills += client.kills;
    // Absorbed retryable failures: every one cost an extra attempt.
    retries += client.retry.busy + client.retry.timeouts +
               client.retry.disconnects;
  }

  support::JsonWriter json;
  json.beginObject();
  json.key("name").value("bench_service");
  json.key("config").beginObject();
  json.key("clients").value(clients);
  json.key("service_threads").value(serviceThreads);
  json.key("engine_threads").value(engineThreads);
  json.key("seconds").value(elapsed);
  json.key("smoke").value(smoke);
  json.key("soak").value(soak);
  json.key("chaos").value(chaos);
  json.key("max_queued_per_client").value(config.maxQueuedPerClient);
  json.key("burst_requests").value(static_cast<long long>(burstRequests));
  json.key("busy_rejections").value(static_cast<long long>(busy));
  json.key("missing_responses").value(static_cast<long long>(missing));
  json.key("client_kills").value(static_cast<long long>(kills));
  json.key("lost_responses").value(static_cast<long long>(lost));
  json.key("wrong_responses").value(static_cast<long long>(wrong));
  json.key("faults_fired").value(static_cast<long long>(faultsFired));
  json.endObject();
  json.key("results").beginArray();
  emitOpRow(json, "verify", verify, elapsed, 0, 0, 0, 0);
  emitOpRow(json, "classify", classify, elapsed, 0, 0, 0, 0);
  emitOpRow(json, "stats", stats, elapsed, 0, 0, 0, 0);
  emitOpRow(json, "all", all, elapsed, busy, daemonCounters.shedDowngrades,
            daemonCounters.timeouts, retries);
  json.endArray();
  json.endObject();
  std::printf("%s\n", json.str().c_str());

  if (!traceOut.empty() && !telemetry::writeTraceFile(traceOut)) {
    std::fprintf(stderr, "bench_service: failed to write %s\n",
                 traceOut.c_str());
  }
  if (!metricsOut.empty() && !telemetry::writeMetricsFile(metricsOut)) {
    std::fprintf(stderr, "bench_service: failed to write %s\n",
                 metricsOut.c_str());
  }

  // Soak acceptance: every burst frame answered, and the overload path
  // actually exercised (a soak where kBusy never fires measured nothing).
  if (missing != 0) {
    std::fprintf(stderr, "bench_service: %lld burst responses missing\n",
                 static_cast<long long>(missing));
    return 1;
  }
  if (soak && burstRequests > 0 && busy == 0) {
    std::fprintf(stderr,
                 "bench_service: soak drove %lld burst requests but saw no "
                 "kBusy rejection\n",
                 static_cast<long long>(burstRequests));
    return 1;
  }
  // Chaos acceptance: every request eventually answered correctly (no lost
  // or wrong responses), and the armed faults actually fired -- a chaos
  // run where nothing went wrong on purpose validated nothing.
  if (chaos) {
    if (lost != 0 || wrong != 0) {
      std::fprintf(stderr,
                   "bench_service: chaos lost %lld and mis-answered %lld "
                   "requests\n",
                   static_cast<long long>(lost), static_cast<long long>(wrong));
      return 1;
    }
    if (faultsFired == 0) {
      std::fprintf(stderr,
                   "bench_service: chaos armed faults but none fired\n");
      return 1;
    }
  }
  return 0;
}
