// The verify(VerifyRequest) front door (lcl/verify_api.hpp): bit-identity
// of every tier pin, thread count and request shape (single labelling,
// batch, file) with the serial functional reference, the single-labelling
// conveniences, tier pinning incl. its error paths, out-of-range labels at
// every place a kernel slice starts reading, the fingerprint-resolver
// idiom, the malformed-request diagnostics, and the classify() front door
// with its cross-call ReportCache.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"
#include "support/lru_cache.hpp"
#include "verify_testing.hpp"

using namespace lclgrid;
using namespace lclgrid::verify_testing;

namespace {

std::vector<GridLcl> problemRegistry() {
  std::vector<GridLcl> registry;
  registry.push_back(problems::vertexColouring(4));
  registry.push_back(problems::maximalIndependentSet());
  registry.push_back(problems::maximalMatching());
  registry.push_back(problems::edgeColouring(4));
  registry.push_back(problems::orientation({2}));
  registry.push_back(problems::noHorizontalOnePair());
  registry.push_back(problems::weakColouring(3, 1));
  return registry;
}

std::vector<int> randomLabels(int sigma, std::size_t count,
                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> label(0, sigma - 1);
  std::vector<int> labels(count);
  for (int& value : labels) value = label(rng);
  return labels;
}

std::string tempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

constexpr TierPin kPins[] = {TierPin::kAuto, TierPin::kFunctional,
                             TierPin::kTable, TierPin::kBitsliced};

/// Whether a pinned tier can run the labelling (an unrunnable pin throws).
template <typename Lcl>
bool pinRunnable(const Lcl& lcl, TierPin pin, bool outOfRange) {
  switch (pin) {
    case TierPin::kTable:
      return lcl.hasTable() && !outOfRange;
    case TierPin::kBitsliced: {
      if (!lcl.hasTable() || outOfRange) return false;
      if constexpr (std::is_same_v<Lcl, GridLclD>) {
        const LclTable* table2d = lcl.table().as2d();
        return table2d != nullptr ? table2d->bitslicePlan() != nullptr
                                  : lcl.table().bitslicePlanD() != nullptr;
      } else {
        return lcl.table().bitslicePlan() != nullptr;
      }
    }
    default:
      return true;
  }
}

/// Checks one labelling on every tier pin at 1/2/8 threads, in both modes,
/// against the reference; the single-labelling conveniences ride along.
template <typename Torus, typename Lcl>
void expectEveryPinAndThreadCount(const Torus& torus, const Lcl& problem,
                                  const std::vector<int>& labels,
                                  bool outOfRange) {
  const std::int64_t expect = referenceCount(torus, problem, labels);
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    const engine::EngineOptions engine{.threads = threads, .pool = &pool};
    for (TierPin pin : kPins) {
      VerifyRequest request =
          inCoreRequest(torus, problem, labels, true, engine, pin);
      if (!pinRunnable(problem, pin, outOfRange)) {
        EXPECT_THROW(verify(request), std::invalid_argument)
            << problem.name() << " pin=" << static_cast<int>(pin);
        continue;
      }
      const VerifyResult counted = verify(request);
      EXPECT_EQ(counted.violations, expect)
          << problem.name() << " pin=" << static_cast<int>(pin)
          << " threads=" << threads;
      EXPECT_EQ(counted.feasible, expect == 0);
      EXPECT_EQ(counted.labellings, 1);
      EXPECT_EQ(counted.fingerprint, problem.table().fingerprint());
      EXPECT_GE(counted.nanos, 0);
      request.options.countViolations = false;
      EXPECT_EQ(verify(request).feasible, expect == 0)
          << problem.name() << " pin=" << static_cast<int>(pin)
          << " threads=" << threads;
    }
    EXPECT_EQ(verify(torus, problem, labels, engine), expect == 0);
    EXPECT_EQ(countViolations(torus, problem, labels, engine), expect);
  }
}

/// Restores the process-wide bit-slice gate on scope exit.
struct BitsliceGate {
  const bool saved = bitslice::enabled();
  ~BitsliceGate() { bitslice::setEnabled(saved); }
};

/// A feasible labelling of `problem` on the n x n torus (4 | n): a 4 x 4
/// solution tiled periodically, which keeps every radius-1 constraint.
std::vector<int> feasibleTiling(const GridLcl& problem, int n) {
  const Torus2D tile(4);
  const GlobalSolveResult solved = solveGlobally(tile, problem);
  EXPECT_TRUE(solved.feasible) << problem.name();
  const Torus2D torus(n);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);
  if (!solved.feasible) return labels;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      labels[static_cast<std::size_t>(torus.id(x, y))] =
          solved.labels[static_cast<std::size_t>(tile.id(x % 4, y % 4))];
    }
  }
  return labels;
}

/// Out-of-range values for alphabet sigma: sigma itself, the extremes, and
/// for non-power-of-two sigma the largest value that still fits the
/// label's bit-planes (a check of the high bits alone would miss it).
std::vector<int> outOfRangeValues(int sigma) {
  std::vector<int> values = {sigma, -1, INT_MIN, INT_MAX};
  const int inPlane = (1 << bitslice::planeCount(sigma)) - 1;
  if (inPlane > sigma) values.push_back(inPlane);
  return values;
}

/// One out-of-range label at each of `places` (axis-0 rows / lines, with
/// the column chosen per place) of a feasible labelling: every request
/// shape at 1/2/8 threads must count exactly what the serial functional
/// tier counts and call the labelling infeasible. `grain` (rows / lines)
/// puts shard-chunk boundaries at its multiples; file requests walk slabs
/// of `window` rows and also resume from a checkpoint at row 2 * window,
/// alternately in the table and the functional phase.
template <typename Torus, typename Lcl>
void expectOutOfRangeEverywhere(const Torus& torus, const Lcl& problem,
                                const std::vector<int>& feasible,
                                const std::vector<long long>& places,
                                std::int64_t grain, long long window) {
  constexpr int dims = std::is_same_v<Torus, Torus2D> ? 2 : 3;
  const int n = torus.n();
  ASSERT_EQ(referenceCount(torus, problem, feasible), 0) << problem.name();
  std::vector<std::unique_ptr<engine::ThreadPool>> pools;
  for (int threads : {1, 2, 8}) {
    pools.push_back(std::make_unique<engine::ThreadPool>(threads));
  }
  const std::string path = tempPath("verify_api_range");
  const std::string checkpointPath = path + ".ckpt";
  for (int value : outOfRangeValues(problem.sigma())) {
    for (std::size_t p = 0; p < places.size(); ++p) {
      const long long line = places[p];
      std::vector<int> labels = feasible;
      labels[static_cast<std::size_t>(line * n + (line * 7) % n)] = value;
      const std::int64_t expect = referenceCount(torus, problem, labels);
      ASSERT_GE(expect, 1);
      std::vector<int> batch = feasible;
      batch.insert(batch.end(), labels.begin(), labels.end());
      batch.insert(batch.end(), feasible.begin(), feasible.end());
      writeLabellingFile(path, problem.sigma(), dims, n, labels);
      const StreamLabelling file(path);
      // Rows [0, 2 * window) already counted, as a killed pass records.
      const long long resumeRow = 2 * window;
      std::int64_t resumeTotal = 0;
      for (const Violation& violation :
           listViolations(torus, problem, labels, INT_MAX)) {
        if (violation.node < resumeRow * n) ++resumeTotal;
      }
      const std::string where = problem.name() + " value=" +
                                std::to_string(value) +
                                " line=" + std::to_string(line);
      for (const auto& pool : pools) {
        const engine::EngineOptions engine{
            .threads = pool->lanes(), .grain = grain, .pool = pool.get()};
        const std::string at =
            where + " threads=" + std::to_string(pool->lanes());
        const VerifyResult counted =
            verify(inCoreRequest(torus, problem, labels, true, engine));
        EXPECT_EQ(counted.violations, expect) << at;
        EXPECT_EQ(counted.tier, VerifyTier::kFunctional) << at;
        EXPECT_FALSE(
            verify(inCoreRequest(torus, problem, labels, false, engine))
                .feasible)
            << at;
        const std::vector<std::int64_t> expectCounts = {0, expect, 0};
        EXPECT_EQ(batchCounts(torus, problem, batch, engine), expectCounts)
            << at;
        const std::vector<std::uint8_t> expectVerdicts = {1, 0, 1};
        EXPECT_EQ(batchVerdicts(torus, problem, batch, engine), expectVerdicts)
            << at;
        StreamWindow slabs;
        slabs.rows = window;
        EXPECT_EQ(streamCount(file, problem, slabs, engine), expect) << at;
        EXPECT_FALSE(streamFeasible(file, problem, slabs, engine)) << at;

        StreamCheckpoint checkpoint;
        checkpoint.functionalPhase = p % 2 == 1;
        checkpoint.labellingFingerprint = file.fingerprint();
        checkpoint.problemFingerprint = problem.table().fingerprint();
        checkpoint.nextRow = resumeRow;
        checkpoint.total = resumeTotal;
        ASSERT_TRUE(writeStreamCheckpoint(checkpointPath, checkpoint));
        StreamWindow resumed = slabs;
        resumed.checkpointPath = checkpointPath;
        EXPECT_EQ(streamCount(file, problem, resumed, engine), expect)
            << at << " resumed";
        removeStreamCheckpoint(checkpointPath);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace

TEST(VerifyApi, OutOfRangeLabelAtEveryPlacement) {
  // Rows 0 and n-1 (each other's wrap neighbours), both sides of every
  // shard-chunk boundary (grain 5 rows), of a slab boundary (4 rows) and
  // the wrap stash (row 0); 24^2 runs the bit-sliced tier (or the table
  // tier for mm, sigma = 5), 8^2 sits below the bit-slice floor.
  const std::vector<GridLcl> registry = {
      problems::vertexColouring(3), problems::vertexColouring(4),
      problems::noHorizontalOnePair(), problems::maximalIndependentSet(),
      problems::maximalMatching()};
  for (const GridLcl& problem : registry) {
    expectOutOfRangeEverywhere(
        Torus2D(24), problem, feasibleTiling(problem, 24),
        {0, 23, 3, 4, 5, 9, 10, 14, 15, 19, 20}, /*grain=*/5, /*window=*/4);
  }
  const GridLcl small = problems::vertexColouring(3);
  expectOutOfRangeEverywhere(Torus2D(8), small, feasibleTiling(small, 8),
                             {0, 7, 2, 3, 5, 6}, /*grain=*/3, /*window=*/3);
}

TEST(VerifyApi, OutOfRangeLabelAtEveryPlacementD) {
  // vcd:3:3 on 8^3 (64 axis-0 lines, outermost block of 8 lines): lines 0
  // and 63, the wrap stash (lines 0-7), both sides of every shard-chunk
  // boundary (grain 10 lines) and of a slab boundary (12 lines) -- on the
  // staged bit-sliced planes, then with the gate off on the table line
  // kernel, whose halo check spans one block each way.
  const TorusD torus(3, 8);
  const GridLclD problem = problems_d::vertexColouring(3, 3);
  std::vector<int> feasible(static_cast<std::size_t>(torus.size()));
  for (long long v = 0; v < torus.size(); ++v) {
    const std::vector<int> c = torus.coords(v);
    feasible[static_cast<std::size_t>(v)] = (c[0] + c[1] + c[2]) % 2;
  }
  const std::vector<long long> places = {0,  63, 7,  9,  10, 11, 12,
                                         19, 20, 29, 30, 39, 40, 49,
                                         50, 59, 60};
  BitsliceGate gate;
  for (bool sliced : {true, false}) {
    bitslice::setEnabled(sliced);
    expectOutOfRangeEverywhere(torus, problem, feasible, places,
                               /*grain=*/10, /*window=*/12);
  }
}

TEST(VerifyApi, MatchesSerialAndThreadedOverloadsAcrossRegistry) {
  // 8^2 stays below the bit-slice node floor, 17^2 clears it (odd side:
  // every word-tail and wrap case).
  std::uint32_t seed = 1;
  for (int n : {8, 17}) {
    const Torus2D torus(n);
    for (const GridLcl& problem : problemRegistry()) {
      for (bool outOfRange : {false, true}) {
        std::vector<int> labels = randomLabels(
            problem.sigma(), static_cast<std::size_t>(torus.size()), seed++);
        if (outOfRange) labels[labels.size() / 3] = problem.sigma();
        expectEveryPinAndThreadCount(torus, problem, labels, outOfRange);
      }
    }
  }
}

TEST(VerifyApi, TierPinsAgreeAndReportTheirTier) {
  const Torus2D torus(16);  // above the bit-slice node floor
  const GridLcl problem = problems::vertexColouring(4);
  const std::vector<int> labels =
      randomLabels(4, static_cast<std::size_t>(torus.size()), 7);
  const std::int64_t expect = referenceCount(torus, problem, labels);
  for (int threads : {1, 2, 8}) {
    for (TierPin pin : kPins) {
      const VerifyResult result = verify(
          inCoreRequest(torus, problem, labels, true, {.threads = threads},
                        pin));
      EXPECT_EQ(result.violations, expect)
          << "pin=" << static_cast<int>(pin) << " threads=" << threads;
      switch (pin) {
        case TierPin::kFunctional:
          EXPECT_EQ(result.tier, VerifyTier::kFunctional);
          break;
        case TierPin::kTable:
          EXPECT_EQ(result.tier, VerifyTier::kTable);
          break;
        case TierPin::kBitsliced:
          EXPECT_EQ(result.tier, VerifyTier::kBitsliced);
          break;
        case TierPin::kAuto:
          break;  // whatever the engine selects
      }
    }
  }
}

TEST(VerifyApi, PinnedTableRejectsOutOfRangeLabels) {
  const Torus2D torus(4);
  const GridLcl problem = problems::maximalIndependentSet();
  std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);
  labels[3] = 99;  // out of range: only the functional tier may run
  VerifyRequest request = inCoreRequest(torus, problem, labels, false);
  request.options.tier = TierPin::kTable;
  EXPECT_THROW(verify(request), std::invalid_argument);
  request.options.tier = TierPin::kBitsliced;
  EXPECT_THROW(verify(request), std::invalid_argument);
  request.options.tier = TierPin::kFunctional;
  const VerifyResult functional = verify(request);
  EXPECT_EQ(functional.tier, VerifyTier::kFunctional);
}

TEST(VerifyApi, BatchMatchesBatchOverloads) {
  // A batch request against the per-labelling references, on every pin
  // that can run every labelling and at 1/2/8 threads; one labelling
  // carries an out-of-alphabet label and falls back on its own.
  const Torus2D torus(17);
  const GridLcl problem = problems::edgeColouring(4);
  const std::size_t nodes = static_cast<std::size_t>(torus.size());
  std::vector<int> batch;
  for (int i = 0; i < 4; ++i) {
    std::vector<int> labels = randomLabels(
        problem.sigma(), nodes, 100 + static_cast<std::uint32_t>(i));
    if (i == 2) labels[5] = -1;
    batch.insert(batch.end(), labels.begin(), labels.end());
  }
  const std::vector<std::int64_t> expectCounts =
      referenceCounts(torus, problem, batch);
  std::vector<std::uint8_t> expectVerdicts;
  std::int64_t total = 0;
  for (std::int64_t count : expectCounts) {
    expectVerdicts.push_back(count == 0 ? 1 : 0);
    total += count;
  }
  for (int threads : {1, 2, 8}) {
    for (TierPin pin : {TierPin::kAuto, TierPin::kFunctional}) {
      VerifyRequest request = inCoreRequest(
          torus, problem, batch, false, {.threads = threads}, pin);
      const VerifyResult decided = verify(request);
      EXPECT_EQ(decided.labellings, 4);
      EXPECT_EQ(decided.feasiblePerLabelling, expectVerdicts)
          << "threads=" << threads;
      EXPECT_EQ(decided.feasible, total == 0);

      request.options.countViolations = true;
      const VerifyResult counted = verify(request);
      EXPECT_EQ(counted.violationsPerLabelling, expectCounts)
          << "threads=" << threads;
      EXPECT_EQ(counted.violations, total);
    }
    // A table pin cannot run the out-of-range labelling.
    EXPECT_THROW(verify(inCoreRequest(torus, problem, batch, true,
                                      {.threads = threads}, TierPin::kTable)),
                 std::invalid_argument);
  }
}

TEST(VerifyApi, TorusDMatchesOverloads) {
  // 4^3 stays below the bit-slice node floor; 7^3 clears it, so the
  // staged line kernel (and its progressive serial staging) runs.
  std::uint32_t seed = 42;
  for (int side : {4, 7}) {
    const TorusD torus(3, side);
    for (const GridLclD& problem :
         {problems_d::xorParity(3), problems_d::vertexColouring(3, 4),
          problems_d::monotoneAxis(3, 0, 3)}) {
      for (bool outOfRange : {false, true}) {
        std::vector<int> labels = randomLabels(
            problem.sigma(), static_cast<std::size_t>(torus.size()), seed++);
        if (outOfRange) labels[labels.size() / 2] = problem.sigma();
        expectEveryPinAndThreadCount(torus, problem, labels, outOfRange);
      }
    }
  }
}

TEST(VerifyApi, StreamRequestsMatchStreamOverloads) {
  const Torus2D torus(17);
  const GridLcl problem = problems::vertexColouring(3);
  const std::vector<int> labels = randomLabels(
      problem.sigma(), static_cast<std::size_t>(torus.size()), 9);
  const std::int64_t expect = referenceCount(torus, problem, labels);
  const std::string path = tempPath("verify_api_stream");
  writeLabellingFile(path, problem.sigma(), 2, torus.n(), labels);
  const StreamLabelling file(path);

  for (int threads : {1, 2, 8}) {
    for (long long rows : {1LL, 4LL, 0LL}) {
      StreamWindow window;
      window.rows = rows;
      VerifyRequest request =
          fileRequest(file, problem, true, window, {.threads = threads});
      const VerifyResult viaFile = verify(request);
      EXPECT_EQ(viaFile.violations, expect)
          << "threads=" << threads << " rows=" << rows;
      EXPECT_EQ(viaFile.tier, VerifyTier::kStream);
      request.options.countViolations = false;
      EXPECT_EQ(verify(request).feasible, expect == 0);
    }
  }

  VerifyRequest viaPathRequest;
  viaPathRequest.problem = &problem;
  viaPathRequest.labellingPath = path;
  viaPathRequest.options.countViolations = true;
  viaPathRequest.options.window.rows = 4;
  EXPECT_EQ(verify(viaPathRequest).violations, expect);

  // Streaming accepts only the automatic tier.
  VerifyRequest pinned = fileRequest(file, problem, true);
  pinned.options.tier = TierPin::kTable;
  EXPECT_THROW(verify(pinned), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(VerifyApi, MalformedRequestsThrow) {
  const Torus2D torus(4);
  const TorusD torusD(3, 3);
  const GridLcl problem = problems::independentSet();
  const GridLclD problemD = problems_d::xorParity(3);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);

  VerifyRequest ambiguous;
  ambiguous.problem = &problem;
  ambiguous.problemD = &problemD;
  ambiguous.torus = &torus;
  ambiguous.labels = labels;
  EXPECT_THROW(verify(ambiguous), std::invalid_argument);

  VerifyRequest noInstance;
  noInstance.problem = &problem;
  EXPECT_THROW(verify(noInstance), std::invalid_argument);

  // The single-labelling conveniences reject any other span shape, even a
  // whole multiple of the torus size that a request would take as a batch.
  std::vector<int> wrongSize(static_cast<std::size_t>(torus.size()) + 1, 0);
  try {
    (void)verify(torus, problem, wrongSize, engine::EngineOptions{.threads = 2});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "verifier: labelling size mismatch");
  }
  std::vector<int> twoLabellings(2 * static_cast<std::size_t>(torus.size()), 0);
  EXPECT_THROW((void)countViolations(torus, problem, twoLabellings),
               std::invalid_argument);
}

TEST(ClassifyApi, GridMatchesOracleAndCaches) {
  const GridLcl problem = problems::vertexColouring(2);
  synthesis::OracleOptions oracle;
  oracle.probeSizes = {4, 5};
  const synthesis::OracleReport direct = synthesis::classifyOnGrid(problem, oracle);

  engine::ReportCache cache(8, "");
  engine::ClassifyOptions options;
  options.oracle = oracle;
  options.reportCache = &cache;
  const engine::ClassifyResult fresh = engine::classify(problem, options);
  EXPECT_EQ(fresh.problem, problem.name());
  EXPECT_FALSE(fresh.cacheHit);
  EXPECT_EQ(fresh.complexity, synthesis::gridComplexityName(direct.complexity));
  ASSERT_NE(fresh.grid, nullptr);
  EXPECT_EQ(fresh.grid->complexity, direct.complexity);
  EXPECT_EQ(fresh.fingerprint, problem.table().fingerprint());

  const engine::ClassifyResult cached = engine::classify(problem, options);
  EXPECT_TRUE(cached.cacheHit);
  EXPECT_EQ(cached.complexity, fresh.complexity);
  EXPECT_EQ(cached.grid, fresh.grid);  // the very report object, shared
  EXPECT_GE(cache.stats().hits, 1);
}

TEST(ClassifyApi, CycleMatchesCycleClassifier) {
  const cycle::CycleLcl problem(
      "cycle-2col", 2, 1, [](const std::vector<int>& window) {
        return window[1] != window[0] && window[1] != window[2];
      });
  const cycle::Classification direct = cycle::classifyCycleLcl(problem);
  const engine::ClassifyResult result = engine::classify(problem);
  EXPECT_EQ(result.complexity, cycle::complexityName(direct.complexity));
  ASSERT_TRUE(result.cycle.has_value());
  EXPECT_EQ(result.cycle->complexity, direct.complexity);
  EXPECT_EQ(result.grid, nullptr);
  EXPECT_FALSE(result.cacheHit);
}

TEST(LruCache, EvictsLeastRecentlyUsedAndReportsStats) {
  support::LruCache<int, std::string> cache(2, "");
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1).value(), "one");  // 1 becomes most recent
  cache.put(3, "three");                   // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  const support::LruStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);
}

TEST(LruCache, EvictionCallbackFiresOnOverflowOnly) {
  support::LruCache<int, int> cache(1, "");
  std::vector<std::pair<int, int>> evicted;
  cache.setEvictionCallback(
      [&evicted](const int& key, const int& value) {
        evicted.emplace_back(key, value);
      });
  cache.put(1, 10);
  cache.put(2, 20);  // evicts (1, 10)
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], std::make_pair(1, 10));
  cache.erase(2);  // NOT an eviction
  cache.put(3, 30);
  cache.clear();  // NOT an eviction
  EXPECT_EQ(evicted.size(), 1u);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  support::LruCache<int, int> cache(0, "");
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}
