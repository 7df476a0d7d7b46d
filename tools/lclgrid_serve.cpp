// The verification service daemon binary (docs/service.md): hosts
// service::VerificationService on a Unix socket or TCP loopback and blocks
// until a client sends a kShutdown frame (or the process receives SIGINT /
// SIGTERM). Clients speak the binary framing of service/protocol.hpp, or
// plain newline JSON for debugging:
//
//   printf '{"op":"stats","id":1}\n' | nc 127.0.0.1 <port>
//
// Usage: lclgrid_serve [--unix PATH | --port N] [--threads N]
//                      [--engine-threads N] [--max-queued N] [--cache N]
//                      [--report-cache N] [--max-payload BYTES]
//                      [--max-connections N] [--test-ops]
//                      [--drain-timeout-ms N] [--deadline-ms N]
//                      [--send-timeout-ms N] [--shed | --no-shed]
//                      [--shed-depth N]
//   --unix PATH        listen on a Unix socket (default: TCP loopback)
//   --port N           TCP port (default 0 = ephemeral; resolved port is
//                      printed on stdout)
//   --threads N        service worker threads (default 2)
//   --engine-threads N lanes of the engine pool shared by multi-lane
//                      requests (default 1)
//   --max-queued N     admitted requests per client before kBusy (default 8)
//   --cache N          compiled-problem LRU capacity (default 64)
//   --report-cache N   oracle-report LRU capacity (default 64)
//   --max-payload B    frame payload size limit in bytes (default 64 MiB)
//   --max-connections N  concurrent connections (default 64)
//   --test-ops         enable the kSleep test operation
//   --drain-timeout-ms N  shutdown drains admitted requests this long, then
//                      answers the queued remainder kTimeout (default 2000)
//   --deadline-ms N    per-request queue-wait deadline; expired requests
//                      answer kTimeout, never execute (default 0 = none)
//   --send-timeout-ms N  SO_SNDTIMEO per connection (default 5000)
//   --shed / --no-shed enable / disable load shedding (default on)
//   --shed-depth N     queue depth where shedding engages (default
//                      4 * threads)
//
// Fault injection (docs/robustness.md): set LCLGRID_FAULTS, e.g.
//   LCLGRID_FAULTS='service.write_response:drop@nth=3' lclgrid_serve ...
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "service/service.hpp"

namespace {

lclgrid::service::VerificationService* gService = nullptr;

void onSignal(int) {
  // stop() is not async-signal-safe; just flip the daemon's shutdown flag
  // the same way a client kShutdown frame would. The write below is safe:
  // requestShutdown only touches atomics + a cv (worst case the signal
  // lands before gService is set and the default exit applies next time).
  if (gService != nullptr) gService->noteSignalShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  lclgrid::service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const auto intArg = [&](const char* flag, int* out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *out = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    int value = 0;
    if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      config.unixSocketPath = argv[++i];
    } else if (intArg("--port", &config.tcpPort) ||
               intArg("--threads", &config.serviceThreads) ||
               intArg("--engine-threads", &config.engineThreads) ||
               intArg("--max-queued", &config.maxQueuedPerClient) ||
               intArg("--max-connections", &config.maxConnections) ||
               intArg("--drain-timeout-ms", &config.drainTimeoutMs) ||
               intArg("--deadline-ms", &config.requestDeadlineMs) ||
               intArg("--send-timeout-ms", &config.sendTimeoutMs) ||
               intArg("--shed-depth", &config.shedQueueDepth)) {
      // parsed in place
    } else if (std::strcmp(argv[i], "--shed") == 0) {
      config.shedEnabled = true;
    } else if (std::strcmp(argv[i], "--no-shed") == 0) {
      config.shedEnabled = false;
    } else if (intArg("--cache", &value)) {
      config.problemCacheCapacity = static_cast<std::size_t>(value);
    } else if (intArg("--report-cache", &value)) {
      config.reportCacheCapacity = static_cast<std::size_t>(value);
    } else if (intArg("--max-payload", &value)) {
      config.maxPayloadBytes = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--test-ops") == 0) {
      config.enableTestOps = true;
    } else {
      std::fprintf(stderr, "lclgrid_serve: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  lclgrid::service::VerificationService service(config);
  try {
    service.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lclgrid_serve: %s\n", error.what());
    return 1;
  }
  gService = &service;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  if (config.unixSocketPath.empty()) {
    std::printf("listening on 127.0.0.1:%d\n", service.port());
  } else {
    std::printf("listening on %s\n", config.unixSocketPath.c_str());
  }
  std::fflush(stdout);
  service.waitForShutdown();
  service.stop();
  std::printf("%s\n", service.statsJson().c_str());
  return 0;
}
