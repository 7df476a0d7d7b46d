// lclbench: the repository benchmark's entry point (see perfbench/run.py).
//
//   lclbench --workload serve|verify_bulk|synth --seed N --seconds S
//            --trace 0|1 --data-dir D [--smoke]
//
// Every run drives all three phases -- serve, verify_bulk and synth -- so
// that it reports every end-to-end metric. The workload's own phase runs at
// full size and takes 60% of the --seconds window (75% for synth, whose
// sweeps and ladder rounds take seconds each); the other two run at the side
// size in the rest (bench.hpp). The window is measured in twelve rounds, each
// giving every phase a twelfth of its share, so every metric samples the
// whole run. --smoke runs all three phases at the smoke size.
//
// A metric is summarised over measurement windows with the windows that lost
// more than 2% of the CPU to the hypervisor dropped (bench.hpp); a phase
// with fewer than half of its windows calm measures extra slices, for up to
// half its share again. setup_s is the median of three complete set-ups.
//
// A traced run (--trace 1) measures each phase twice, untraced then traced,
// on half the window each, then replays the per-layer calls; it prints the
// per-layer metrics, each module's self time and the tracing overhead of
// every end-to-end metric, and writes the spans to
// D/trace-<workload>-<seed>.json.
//
// stdout: one JSON line with the machine and build record, then the result
// line {"correct", "attempted", "failed", "metrics"}. Exit status 0 iff every
// output checked was correct.
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "lcl/label_planes.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"serve", "verify_bulk", "synth"};
const char* const kModules[] = {"service", "engine", "lcl",       "support",
                                "cycle",   "sat",    "synthesis", "tiles"};
constexpr int kSetups = 3;
constexpr int kSlices = 12;
constexpr double kMinCalmShare = 0.5;

std::string jsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void printMachineRecord() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long pageSize = sysconf(_SC_PAGESIZE);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const char* const simd[] = {"scalar", "avx2", "avx512"};
  // The file-size limit sets the stream files' sizes (verify_bulk.cpp).
  const std::uint64_t fileLimit = fileSizeLimit();
  std::printf(
      "{\"machine\": {\"nproc\": %u, \"llc_bytes\": %ld, \"ram_bytes\": %lld, "
      "\"simd_tier\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"telemetry_compiled_in\": %s, \"file_size_limit_bytes\": %lld}}\n",
      std::thread::hardware_concurrency(), llc,
      static_cast<long long>(pages) * pageSize,
      simd[static_cast<int>(lclgrid::bitslice::simdTier())], LCLBENCH_COMPILER,
      LCLBENCH_BUILD_TYPE,
      lclgrid::support::telemetry::kCompiledIn ? "true" : "false",
      fileLimit == UINT64_MAX ? -1LL : static_cast<long long>(fileLimit));
}

void printResult(const Run& run, const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") + (run.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted()) +
                     ", \"failed\": " + std::to_string(run.failed()) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + jsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve|verify_bulk|synth --seed N --seconds S "
               "--trace 0|1 --data-dir D [--smoke]\n",
               argv0);
  return 2;
}

int runBenchmark(Run& run) {
  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<double> budgets;
  for (const char* name : kWorkloads) {
    const bool own = run.workload == name;
    const Size size = run.smoke ? Size::kSmoke : own ? Size::kFull : Size::kSide;
    const std::string phase = name;
    if (phase == "serve") phases.push_back(makeServePhase(size));
    if (phase == "verify_bulk") phases.push_back(makeVerifyBulkPhase(size));
    if (phase == "synth") phases.push_back(makeSynthPhase(size));
    // The synth phase takes more than the others: its full-size sweeps and
    // ladder rounds take 8 s and 3.5 s each, its side-size sweeps 2.5 s, and
    // each summary needs two or three of them.
    const double share = run.smoke                    ? 1.0 / 3
                         : own && phase == "synth"    ? 0.75
                         : own                        ? 0.6
                         : phase == "synth"           ? 0.25
                         : run.workload == "synth"    ? 0.125
                                                      : 0.15;
    budgets.push_back(run.seconds * share);
  }

  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (rep > 0) {
      for (auto& phase : phases) phase->teardown();
    }
    const auto start = Clock::now();
    double seconds = 0;
    for (auto& phase : phases) seconds += phase->setup(run);
    setups.push_back(seconds);
    std::fprintf(stderr, "lclbench: set-up %d: %.3f s in program calls, %.1f s wall\n", rep + 1,
                 seconds, secondsSince(start));
  }
  run.e2e("setup_s", median(setups), "s");

  // Alternating slices of every phase; `share` scales the window.
  const auto measureAll = [&](Metrics& out, double share) {
    for (int slice = 0; slice < kSlices; ++slice) {
      for (std::size_t i = 0; i < phases.size(); ++i) {
        phases[i]->measure(run, share * budgets[i] / kSlices);
      }
    }
    // A phase whose windows were mostly stolen measures more slices, for up
    // to half its budget again: steal comes in bursts, and calm windows after
    // a burst keep the summary off the calmest-quarter fallback.
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const auto start = Clock::now();
      while (phases[i]->calmShare() < kMinCalmShare &&
             secondsSince(start) < 0.5 * share * budgets[i]) {
        phases[i]->measure(run, share * budgets[i] / kSlices);
      }
    }
    for (auto& phase : phases) phase->report(run, out);
  };
  if (!run.traced) {
    measureAll(run.endToEnd, 1.0);
  } else {
    Metrics traced;
    setTracing(true);
    for (auto& phase : phases) phase->teardown();
    double tracedSetup = 0;
    {
      Span span("bench.setup");
      for (auto& phase : phases) tracedSetup += phase->setup(run);
    }
    traced["setup_s"] = {tracedSetup, "s"};
    setTracing(false);
    measureAll(run.endToEnd, 0.5);
    setTracing(true);
    measureAll(traced, 0.5);
    for (auto& phase : phases) phase->layers(run);
    setTracing(false);
    for (const auto& [name, metric] : run.endToEnd) {
      run.layer("overhead." + name, traced[name].value - metric.value, metric.unit.c_str());
    }
    const std::vector<SpanRecord> spans = spanRecords();
    const std::map<std::string, double> self = selfSecondsByModule(spans);
    for (const char* module : kModules) {
      const auto it = self.find(module);
      run.layer(std::string("self_s.") + module, it == self.end() ? 0.0 : it->second, "s");
    }
    run.layer("bench.windows_dropped", static_cast<double>(windowsDropped()), "count");
    run.layer("bench.windows_kept", static_cast<double>(windowsKept()), "count");
    const std::string path =
        run.dataDir + "/trace-" + run.workload + "-" + std::to_string(run.seed) + ".json";
    if (!writeSpans(spans, path)) std::fprintf(stderr, "lclbench: could not write %s\n", path.c_str());
  }
  for (auto& phase : phases) phase->teardown();
  std::fprintf(stderr, "lclbench: %zu of %zu measurement windows dropped for steal above %.0f%%\n",
               windowsDropped(), windowsDropped() + windowsKept(), 100 * kMaxSteal);

  const Metrics& reported = run.traced ? run.layers : run.endToEnd;
  for (const auto& [name, metric] : reported) {
    if (!std::isfinite(metric.value)) run.wrong("metric " + name + " is not a finite number");
  }
  printResult(run, reported);
  return run.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--smoke") {
      run.smoke = true;
    } else if (arg == "--workload" && hasValue) {
      run.workload = argv[++i];
      for (const char* name : kWorkloads) haveWorkload = haveWorkload || run.workload == name;
    } else if (arg == "--seed" && hasValue) {
      run.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      run.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && hasValue) {
      run.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--data-dir" && hasValue) {
      run.dataDir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!haveWorkload || run.seconds <= 0 || run.dataDir.empty()) return usage(argv[0]);
  std::filesystem::create_directories(run.dataDir);
  // A write past the file-size limit then fails with an error the run
  // reports, instead of killing the process with no result.
  std::signal(SIGXFSZ, SIG_IGN);

  stream_probe::start();
  printMachineRecord();
  int status = 1;
  try {
    status = runBenchmark(run);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lclbench: %s\n", error.what());
  }
  stream_probe::stop();
  return status;
}
