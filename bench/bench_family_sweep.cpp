// Family sweep throughput: the engine's concurrent oracle driver over the
// X-orientation family of Theorem 22 (all 32 subsets X of {0..4}) plus the
// vertex-colouring ladder -- the multi-instance classification workload of
// the ROADMAP, the kind of machine classification that problem-family
// surveys lean on. Reports the sweep wall time serial vs. threaded and the
// fingerprint-cache statistics, as JSON in the repo-wide
// {name, config, results[]} schema.
//
// Usage: bench_family_sweep [--threads N] [--smoke]
//                            [--trace-out F] [--metrics-out F]
//   --threads N  lanes for the concurrent sweep (default: hw concurrency)
//   --smoke      tiny family / budgets, for CI bit-rot checks
//   --trace-out F    enable span tracing, write Chrome trace JSON to F
//   --metrics-out F  write the telemetry metrics snapshot to F
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "lcl/problems.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"

using namespace lclgrid;

int main(int argc, char** argv) {
  int threads = engine::defaultThreads();
  bool smoke = false;
  std::string traceOut;
  std::string metricsOut;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      traceOut = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metricsOut = argv[++i];
    }
  }
  if (threads < 1) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--smoke] [--trace-out F] "
                 "[--metrics-out F] (N >= 1)\n",
                 argv[0]);
    return 2;
  }
  if (!traceOut.empty()) telemetry::setTraceEnabled(true);

  // The family: every X-orientation (32 subsets), the vertex-colouring
  // ladder, and a deliberate duplicate relation (weak-2-colouring-4 is
  // proper 2-colouring) to exercise the fingerprint cache. Smoke mode keeps
  // a representative slice.
  std::vector<GridLcl> family;
  const int maskStep = smoke ? 8 : 1;
  for (int mask = 0; mask < 32; mask += maskStep) {
    std::set<int> x;
    for (int v = 0; v <= 4; ++v) {
      if (mask & (1 << v)) x.insert(v);
    }
    family.push_back(problems::orientation(x));
  }
  for (int k = 2; k <= (smoke ? 3 : 5); ++k) {
    family.push_back(problems::vertexColouring(k));
  }
  family.push_back(problems::weakColouring(2, 4));

  engine::SweepOptions options;
  options.oracle.synthesis.maxK = 1;
  // One odd and one even probe. A side that an F_2 or F_3 counting argument
  // rules out (Lemma 24's parity for {1,3}) is decided by the linear
  // certificate before CDCL; the other probes at these sizes are small
  // CDCL instances.
  options.oracle.probeSizes = smoke ? std::vector<int>{3} : std::vector<int>{3, 4};
  options.oracle.probeConflictBudget = smoke ? 50'000 : 300'000;

  options.engine.threads = 1;
  auto serial = engine::sweepFamily(family, options);

  options.engine.threads = threads;
  auto sweep = engine::sweepFamily(family, options);

  std::string json = engine::sweepReportJson(sweep, options);
  // Splice the serial-vs-threaded comparison into the top-level object;
  // guard the shape assumption so a report format change can never emit
  // silently corrupt JSON to the perf-trajectory tooling.
  if (json.empty() || json.back() != '}') {
    std::fprintf(stderr, "FAIL: sweep report is not a JSON object\n");
    return 1;
  }
  support::JsonWriter extra;
  extra.beginObject();
  extra.key("serial_seconds").value(serial.seconds);
  extra.key("threaded_seconds").value(sweep.seconds);
  extra.key("sweep_speedup").value(serial.seconds / sweep.seconds);
  extra.key("smoke").value(smoke);
  extra.endObject();
  json.back() = ',';
  json += extra.str().substr(1);
  std::printf("%s\n", json.c_str());

  if (!traceOut.empty() && !telemetry::writeTraceFile(traceOut)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 traceOut.c_str());
  }
  if (!metricsOut.empty() && !telemetry::writeMetricsFile(metricsOut)) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n",
                 metricsOut.c_str());
  }

  // Shape check: the cache must have collapsed the duplicate relation
  // (vertex-2-colouring appears again as weak-2-colouring-4).
  if (sweep.cacheHits < 1) {
    std::fprintf(stderr, "FAIL: fingerprint cache never hit\n");
    return 1;
  }
  for (std::size_t i = 0; i < family.size(); ++i) {
    if (serial.entries[i].report->complexity !=
        sweep.entries[i].report->complexity) {
      std::fprintf(stderr, "FAIL: serial and threaded verdicts disagree\n");
      return 1;
    }
  }
  return 0;
}
