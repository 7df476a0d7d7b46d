// Tests for the telemetry layer (support/telemetry.hpp): counter-merge
// determinism across thread counts, span nesting, trace-JSON structure,
// retired-thread fold-in, and the disabled-build no-op contract. Every
// expectation branches on telemetry::kCompiledIn so the same suite passes
// under -DLCLGRID_TELEMETRY=OFF (where all probes compile to empty inline
// bodies and the snapshots are empty).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"
#include "support/telemetry.hpp"

namespace lclgrid {
namespace {

std::int64_t counterValue(const telemetry::MetricsSnapshot& snapshot,
                          const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return -1;
}

TEST(TelemetryCounter, AddAndSnapshot) {
  const telemetry::Counter c = telemetry::counter("test.basic_counter");
  c.add(5);
  c.increment();
  const auto snapshot = telemetry::snapshotMetrics();
  if (!telemetry::kCompiledIn) {
    EXPECT_TRUE(snapshot.counters.empty());
    return;
  }
  EXPECT_GE(counterValue(snapshot, "test.basic_counter"), 6);
}

TEST(TelemetryCounter, SameNameSameSlot) {
  const telemetry::Counter a = telemetry::counter("test.shared_slot");
  const telemetry::Counter b = telemetry::counter("test.shared_slot");
  a.add(3);
  b.add(4);
  const auto snapshot = telemetry::snapshotMetrics();
  if (!telemetry::kCompiledIn) return;
  // Both handles feed one slot; its total moved by exactly 7.
  EXPECT_GE(counterValue(snapshot, "test.shared_slot"), 7);
}

// The tentpole determinism claim: the merged total is exact whenever the
// instrumented threads are quiescent, independent of how the increments
// were spread over pool lanes.
TEST(TelemetryCounter, MergeDeterministicAcrossThreadCounts) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::Counter c = telemetry::counter("test.merge_determinism");
  const std::int64_t before =
      counterValue(telemetry::snapshotMetrics(), "test.merge_determinism");
  constexpr std::int64_t kItems = 10000;
  std::int64_t expected = before < 0 ? 0 : before;
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    pool.parallelFor(0, kItems, /*grain=*/64,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) c.add(1);
                     });
    expected += kItems;
    // parallelFor has returned, so every lane is quiescent: the merge of
    // live shards + retired totals must be exact, at every thread count.
    EXPECT_EQ(
        counterValue(telemetry::snapshotMetrics(), "test.merge_determinism"),
        expected)
        << "threads=" << threads;
  }
}

TEST(TelemetryCounter, RetiredThreadsFoldIn) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::Counter c = telemetry::counter("test.retired_fold");
  const std::int64_t before =
      counterValue(telemetry::snapshotMetrics(), "test.retired_fold");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() { c.add(100); });
  }
  for (auto& thread : threads) thread.join();
  // The shards died with their threads; the retired accumulator keeps the
  // counts.
  EXPECT_EQ(counterValue(telemetry::snapshotMetrics(), "test.retired_fold"),
            (before < 0 ? 0 : before) + 400);
}

TEST(TelemetryGauge, SetAndMax) {
  const telemetry::Gauge g = telemetry::gauge("test.gauge");
  g.set(10);
  g.max(5);   // below: no effect
  g.max(42);  // above: raises
  const auto snapshot = telemetry::snapshotMetrics();
  if (!telemetry::kCompiledIn) {
    EXPECT_TRUE(snapshot.gauges.empty());
    return;
  }
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "test.gauge") {
      EXPECT_EQ(gauge.value, 42);
      return;
    }
  }
  FAIL() << "gauge not in snapshot";
}

TEST(TelemetryHistogram, CountSumMinMax) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::Histogram h = telemetry::histogram("test.histogram");
  h.record(1);
  h.record(7);
  h.record(100);
  const auto snapshot = telemetry::snapshotMetrics();
  for (const auto& hist : snapshot.histograms) {
    if (hist.name == "test.histogram") {
      EXPECT_GE(hist.count, 3);
      EXPECT_GE(hist.sum, 108);
      EXPECT_LE(hist.min, 1);
      EXPECT_GE(hist.max, 100);
      return;
    }
  }
  FAIL() << "histogram not in snapshot";
}

TEST(TelemetrySpan, DisabledRecordsNothing) {
  telemetry::setTraceEnabled(false);
  telemetry::clearTrace();
  {
    telemetry::ScopedSpan span("test/disabled");
    telemetry::ScopedSpan dynamic(std::string("test/disabled_dynamic"));
  }
  EXPECT_TRUE(telemetry::snapshotTrace().empty());
}

TEST(TelemetrySpan, NestingIsLaminar) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  {
    telemetry::ScopedSpan outer("test/outer");
    {
      telemetry::ScopedSpan inner("test/inner");
    }
    {
      telemetry::ScopedSpan sibling(std::string("test/sibling"));
    }
  }
  telemetry::setTraceEnabled(false);
  const auto trace = telemetry::snapshotTrace();
  ASSERT_EQ(trace.size(), 3u);
  const telemetry::TraceEvent* outer = nullptr;
  const telemetry::TraceEvent* inner = nullptr;
  const telemetry::TraceEvent* sibling = nullptr;
  for (const auto& event : trace) {
    if (event.name == "test/outer") outer = &event;
    if (event.name == "test/inner") inner = &event;
    if (event.name == "test/sibling") sibling = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  // Children are contained in the parent interval...
  EXPECT_GE(inner->startNs, outer->startNs);
  EXPECT_LE(inner->startNs + inner->durNs, outer->startNs + outer->durNs);
  EXPECT_GE(sibling->startNs, outer->startNs);
  EXPECT_LE(sibling->startNs + sibling->durNs,
            outer->startNs + outer->durNs);
  // ...and siblings do not overlap.
  EXPECT_GE(sibling->startNs, inner->startNs + inner->durNs);
}

TEST(TelemetrySpan, WorkerThreadsGetDistinctTids) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  std::thread worker([]() { telemetry::ScopedSpan span("test/worker"); });
  worker.join();
  {
    telemetry::ScopedSpan span("test/main");
  }
  telemetry::setTraceEnabled(false);
  const auto trace = telemetry::snapshotTrace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_NE(trace[0].tid, trace[1].tid);
}

// verify.range_fallbacks answers why the functional tier ran: a count
// request whose kernel met an out-of-range label (in-core or streamed)
// bumps it by exactly one, an in-range request leaves it alone.
TEST(TelemetryCounter, RangeFallbacksCountFunctionalRecounts) {
  const auto fallbacks = [] {
    return std::max<std::int64_t>(
        0, counterValue(telemetry::snapshotMetrics(), "verify.range_fallbacks"));
  };
  const int expectedBump = telemetry::kCompiledIn ? 1 : 0;
  const Torus2D torus(16);
  const GridLcl problem = problems::vertexColouring(4);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (v % 16 + 2 * (v / 16)) % 4;
  }
  VerifyRequest request;
  request.problem = &problem;
  request.torus = &torus;
  request.labels = labels;
  request.options.countViolations = true;

  std::int64_t before = fallbacks();
  EXPECT_EQ(verify(request).violations, 0);
  EXPECT_EQ(fallbacks() - before, 0);

  labels[37] = problem.sigma();
  before = fallbacks();
  const VerifyResult recounted = verify(request);
  EXPECT_EQ(recounted.tier, VerifyTier::kFunctional);
  EXPECT_GE(recounted.violations, 1);
  EXPECT_EQ(fallbacks() - before, expectedBump);

  const char* dir = std::getenv("TMPDIR");
  const std::string path = std::string(dir != nullptr ? dir : "/tmp") +
                           "/telemetry_fallback." +
                           std::to_string(::getpid());
  writeLabellingFile(path, problem.sigma(), 2, torus.n(), labels);
  VerifyRequest streamed;
  streamed.problem = &problem;
  streamed.labellingPath = path;
  streamed.options.countViolations = true;
  before = fallbacks();
  EXPECT_EQ(verify(streamed).violations, recounted.violations);
  EXPECT_EQ(fallbacks() - before, expectedBump);
  std::remove(path.c_str());
}

// global.linear_certificates counts the probes a linear certificate decided
// without CDCL: a {1,3}-orientation prober (Lemma 24) at n = 4, 5 and 7
// adds one per odd side, vertex 3-colouring (solvable everywhere) none.
TEST(TelemetryCounter, LinearCertificatesCountDecidedProbes) {
  const auto certificates = [] {
    return std::max<std::int64_t>(
        0, counterValue(telemetry::snapshotMetrics(),
                        "global.linear_certificates"));
  };
  const int perCertificate = telemetry::kCompiledIn ? 1 : 0;
  const GridLcl oneThree = problems::orientation({1, 3});
  const GridLcl threeColouring = problems::vertexColouring(3);
  for (const GridLcl* lcl : {&oneThree, &threeColouring}) {
    FeasibilityProber prober(*lcl);
    const std::int64_t before = certificates();
    int infeasible = 0;
    for (int n : {4, 5, 7}) {
      // The budget only bounds a failure: without the certificate, CDCL
      // could not decide the odd {1,3} sides within it.
      const GlobalSolveResult probe = prober.probe(n, 10'000);
      ASSERT_TRUE(probe.decided) << lcl->name() << " n=" << n;
      if (!probe.feasible) ++infeasible;
    }
    const int expected = lcl == &oneThree ? 2 : 0;
    EXPECT_EQ(infeasible, expected) << lcl->name();
    EXPECT_EQ(certificates() - before, expected * perCertificate)
        << lcl->name();
  }
}

// What perfbench's per-layer rows read off a labelling file: the pass is
// one verify.calls.stream call over every node, its slabs run the kernels
// without a kernel-tier call of their own, a checkpointed count pass writes
// one checkpoint per slab, and drop-behind keeps the first halo block
// (one row at d = 2, n^(d-2) rows above) resident.
TEST(TelemetryCounter, FilePassAttribution) {
  const std::vector<std::string> names = {
      "verify.calls.functional", "verify.calls.table",
      "verify.calls.bitsliced",  "verify.calls.stream",
      "verify.nodes.stream",     "stream.slabs",
      "stream.checkpoints",      "stream.rows_dropped"};
  const auto value = [](const telemetry::MetricsSnapshot& snapshot,
                        const std::string& name) {
    return std::max<std::int64_t>(0, counterValue(snapshot, name));
  };
  const auto deltas = [&](const VerifyRequest& request) {
    const telemetry::MetricsSnapshot before = telemetry::snapshotMetrics();
    (void)verify(request);
    const telemetry::MetricsSnapshot after = telemetry::snapshotMetrics();
    std::map<std::string, std::int64_t> delta;
    for (const std::string& name : names) {
      delta[name] = value(after, name) - value(before, name);
    }
    return delta;
  };
  const auto expected = [&](std::map<std::string, std::int64_t> bumps) {
    std::map<std::string, std::int64_t> all;
    for (const std::string& name : names) {
      all[name] = telemetry::kCompiledIn ? bumps[name] : 0;
    }
    return all;
  };
  const bool gate = bitslice::enabled();
  bitslice::setEnabled(true);
  const char* dir = std::getenv("TMPDIR");
  const std::string path = std::string(dir != nullptr ? dir : "/tmp") +
                           "/telemetry_file_pass." +
                           std::to_string(::getpid());

  const Torus2D torus(20);
  const GridLcl problem = problems::vertexColouring(4);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (v % 20 + 2 * (v / 20)) % 4;
  }
  writeLabellingFile(path, problem.sigma(), 2, torus.n(), labels);
  VerifyRequest streamed;
  streamed.problem = &problem;
  streamed.labellingPath = path;
  streamed.options.countViolations = true;
  streamed.options.window.rows = 3;
  streamed.options.window.checkpointPath = path + ".ckpt";
  EXPECT_EQ(deltas(streamed),
            expected({{"verify.calls.stream", 1},
                      {"verify.nodes.stream", 400},
                      {"stream.slabs", 7},
                      {"stream.checkpoints", 7},
                      {"stream.rows_dropped", 18}}));

  VerifyRequest inCore;
  inCore.problem = &problem;
  inCore.torus = &torus;
  inCore.labels = labels;
  inCore.options.countViolations = true;
  EXPECT_EQ(deltas(inCore), expected({{"verify.calls.bitsliced", 1}}));

  const TorusD cube(3, 6);
  const GridLclD problemD = problems_d::vertexColouring(3, 4);
  std::vector<int> labelsD(static_cast<std::size_t>(cube.size()));
  for (long long v = 0; v < cube.size(); ++v) {
    const std::vector<int> c = cube.coords(v);
    labelsD[static_cast<std::size_t>(v)] = (c[0] + c[1] + c[2]) % 2;
  }
  writeLabellingFile(path, problemD.sigma(), 3, cube.n(), labelsD);
  VerifyRequest streamedD;
  streamedD.problemD = &problemD;
  streamedD.labellingPath = path;
  streamedD.options.countViolations = true;
  streamedD.options.window.rows = 5;
  EXPECT_EQ(deltas(streamedD),
            expected({{"verify.calls.stream", 1},
                      {"verify.nodes.stream", 216},
                      {"stream.slabs", 8},
                      {"stream.rows_dropped", 24}}));
  std::remove(path.c_str());
  bitslice::setEnabled(gate);
}

// Minimal structural JSON scan: brackets balance outside string literals
// and the document is a single object. Enough to catch a malformed
// exporter without a JSON dependency; scripts/check_trace_json.py does the
// full parse in CI.
bool balancedJsonObject(const std::string& text) {
  int depth = 0;
  bool inString = false;
  bool sawAny = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      inString = true;
    } else if (c == '{' || c == '[') {
      ++depth;
      sawAny = true;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    } else if (depth == 0 && !std::isspace(static_cast<unsigned char>(c)) &&
               sawAny) {
      return false;  // trailing garbage after the root closes
    }
  }
  return sawAny && depth == 0 && !inString;
}

TEST(TelemetryExport, ChromeTraceJsonWellFormed) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  {
    telemetry::ScopedSpan span("test/export");
  }
  telemetry::setTraceEnabled(false);
  const std::string json = telemetry::chromeTraceJson();
  EXPECT_TRUE(balancedJsonObject(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name
}

TEST(TelemetryExport, MetricsJsonWellFormedAndNonEmpty) {
  if (!telemetry::kCompiledIn) {
    EXPECT_TRUE(telemetry::metricsJson().empty());
    return;
  }
  const std::string json = telemetry::metricsJson();
  EXPECT_TRUE(balancedJsonObject(json)) << json;
  EXPECT_NE(json.find("\"name\":\"metrics_snapshot\""), std::string::npos);
  // The built-in exports counter guarantees a non-empty results[].
  EXPECT_NE(json.find("\"telemetry.exports\""), std::string::npos);
}

TEST(TelemetryDisabledBuild, ApiIsInert) {
  // The full API must be callable in both worlds; under OFF everything
  // returns empty.
  if (telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled in";
  EXPECT_TRUE(telemetry::snapshotMetrics().counters.empty());
  EXPECT_TRUE(telemetry::snapshotTrace().empty());
  EXPECT_TRUE(telemetry::metricsJson().empty());
  EXPECT_TRUE(telemetry::chromeTraceJson().empty());
  EXPECT_FALSE(telemetry::traceEnabled());
  telemetry::setTraceEnabled(true);
  EXPECT_FALSE(telemetry::traceEnabled());
  EXPECT_EQ(telemetry::droppedTraceEvents(), 0);
}

}  // namespace
}  // namespace lclgrid
