// Engine determinism and runtime tests: the shared-batch pool's loops, the
// sharded verifier's bit-identity with the serial engine across thread
// counts, fingerprint-keyed sweep caching, and the JSON report schema.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "verify_testing.hpp"

using namespace lclgrid;
using namespace lclgrid::verify_testing;

namespace {

/// Same family as tests/test_lcl_table.cpp: every concrete problem class of
/// the paper with a compiled table.
std::vector<GridLcl> problemRegistry() {
  std::vector<GridLcl> registry;
  for (int k = 2; k <= 5; ++k) registry.push_back(problems::vertexColouring(k));
  registry.push_back(problems::maximalIndependentSet());
  registry.push_back(problems::independentSet());
  registry.push_back(problems::maximalMatching());
  registry.push_back(problems::edgeColouring(3));
  registry.push_back(problems::edgeColouring(4));
  registry.push_back(problems::orientation({2}));
  registry.push_back(problems::orientation({1, 3}));
  registry.push_back(problems::orientation({0, 4}));
  registry.push_back(problems::orientation({0, 1, 3}));
  registry.push_back(problems::noHorizontalOnePair());
  registry.push_back(problems::weakColouring(3, 1));
  registry.push_back(problems::weakColouring(2, 4));
  return registry;
}

std::vector<int> randomLabels(int count, int sigma, std::uint32_t seed,
                              bool withGarbage = false) {
  std::mt19937 rng(seed);
  // Occasionally out-of-alphabet labels exercise the functional fallback
  // and the out-of-range handling of the table path's precondition.
  std::uniform_int_distribution<int> dist(withGarbage ? -1 : 0,
                                          withGarbage ? sigma : sigma - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

}  // namespace

TEST(ThreadPool, LanesMatchConstruction) {
  engine::ThreadPool one(1);
  EXPECT_EQ(one.lanes(), 1);
  engine::ThreadPool four(4);
  EXPECT_EQ(four.lanes(), 4);
  EXPECT_GE(engine::defaultThreads(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    const std::int64_t items = 1013;  // prime: uneven chunking
    std::vector<std::atomic<int>> hits(items);
    for (auto& h : hits) h.store(0);
    pool.parallelFor(0, items, /*grain=*/7,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         hits[static_cast<std::size_t>(i)].fetch_add(1);
                       }
                     });
    for (std::int64_t i = 0; i < items; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ReduceIsDeterministicAcrossThreadCounts) {
  // A deliberately non-commutative combine: with a fixed explicit grain the
  // chunk-order reduction must give one answer for every thread count.
  auto runWith = [](int threads) {
    engine::ThreadPool pool(threads);
    return pool.parallelReduce(
        0, 1000, /*grain=*/13, std::uint64_t{1},
        [](std::int64_t begin, std::int64_t end) {
          std::uint64_t h = 0;
          for (std::int64_t i = begin; i < end; ++i) {
            h = h * 1099511628211ULL + static_cast<std::uint64_t>(i);
          }
          return h;
        },
        [](std::uint64_t a, std::uint64_t b) {
          return a * 31 + b;  // order-sensitive on purpose
        });
  };
  const std::uint64_t serial = runWith(1);
  EXPECT_EQ(runWith(2), serial);
  EXPECT_EQ(runWith(8), serial);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  engine::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(0, 100, 1,
                       [](std::int64_t begin, std::int64_t) {
                         if (begin == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ran{0};
  pool.parallelFor(0, 10, 1,
                   [&](std::int64_t, std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, OnePoolSharedByConcurrentCallers) {
  // The "safe to share" contract: several external threads feeding one
  // pool at once each get exactly their own reductions back.
  engine::ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 2000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&pool, &wrong, caller] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        const std::int64_t end = 100 + (caller * 37 + call) % 900;
        const std::int64_t sum = pool.parallelReduce(
            0, end, /*grain=*/64, std::int64_t{0},
            [caller](std::int64_t begin, std::int64_t stop) {
              std::int64_t partial = 0;
              for (std::int64_t i = begin; i < stop; ++i) partial += i + caller;
              return partial;
            },
            [](std::int64_t a, std::int64_t b) { return a + b; });
        if (sum != end * (end - 1) / 2 + caller * end) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, SlowChunkDoesNotSerialiseOthers) {
  // The family sweep runs one problem per chunk: a slow chunk (a deep
  // synthesis ladder) must not hold up the chunks after it. Chunk 0 waits
  // until the other 63 have run, and must be released by them, not by the
  // timeout.
  engine::ThreadPool pool(4);
  constexpr int kChunks = 64;
  std::mutex mutex;
  std::condition_variable othersRan;
  int others = 0;
  bool released = false;
  pool.parallelFor(0, kChunks, /*grain=*/1,
                   [&](std::int64_t begin, std::int64_t) {
                     std::unique_lock<std::mutex> lock(mutex);
                     if (begin == 0) {
                       released = othersRan.wait_for(
                           lock, std::chrono::seconds(10),
                           [&] { return others == kChunks - 1; });
                     } else if (++others == kChunks - 1) {
                       othersRan.notify_all();
                     }
                   });
  EXPECT_TRUE(released);
  EXPECT_EQ(others, kChunks - 1);
}

TEST(ThreadPool, ConcurrentBatchesKeepTheirOwnErrors) {
  // Every caller's batch goes through the one shared queue, so errors must
  // stay per batch: only the caller whose batch threw sees the exception,
  // and the other caller still gets its exact sum.
  for (int threads : {2, 4, 8}) {
    engine::ThreadPool pool(threads);
    constexpr int kRounds = 1000;
    std::atomic<int> missedThrows{0};
    std::atomic<int> wrongSums{0};
    std::thread thrower([&pool, &missedThrows] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          pool.parallelFor(0, 64, /*grain=*/1,
                           [round](std::int64_t begin, std::int64_t) {
                             if (begin == round % 64) {
                               throw std::runtime_error("thrower's chunk");
                             }
                           });
          missedThrows.fetch_add(1);
        } catch (const std::runtime_error& error) {
          if (std::string(error.what()) != "thrower's chunk") {
            missedThrows.fetch_add(1);
          }
        }
      }
    });
    std::thread summer([&pool, &wrongSums] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          const std::int64_t sum = pool.parallelReduce(
              0, 640, /*grain=*/10, std::int64_t{0},
              [](std::int64_t begin, std::int64_t end) {
                std::int64_t partial = 0;
                for (std::int64_t i = begin; i < end; ++i) partial += i;
                return partial;
              },
              [](std::int64_t a, std::int64_t b) { return a + b; });
          if (sum != 640 * 639 / 2) wrongSums.fetch_add(1);
        } catch (...) {
          wrongSums.fetch_add(1);
        }
      }
    });
    thrower.join();
    summer.join();
    EXPECT_EQ(missedThrows.load(), 0) << "threads=" << threads;
    EXPECT_EQ(wrongSums.load(), 0) << "threads=" << threads;
  }
}

TEST(EngineVerifier, CountsBitIdenticalToSerialForRegistry) {
  for (const GridLcl& lcl : problemRegistry()) {
    for (int n : {3, 4, 5, 8}) {
      Torus2D torus(n);
      for (std::uint32_t seed : {1u, 2u}) {
        const bool garbage = seed == 2u;
        auto labels =
            randomLabels(torus.size(), lcl.sigma(), seed * 977, garbage);
        const std::int64_t serial = referenceCount(torus, lcl, labels);
        EXPECT_EQ(countViolations(torus, lcl, labels), serial) << lcl.name();
        EXPECT_EQ(verify(torus, lcl, labels), serial == 0) << lcl.name();
        for (int threads : {1, 2, 8}) {
          engine::ThreadPool pool(threads);
          engine::EngineOptions options{.threads = threads, .pool = &pool};
          EXPECT_EQ(countViolations(torus, lcl, labels, options), serial)
              << lcl.name() << " n=" << n << " threads=" << threads;
          EXPECT_EQ(verify(torus, lcl, labels, options), serial == 0)
              << lcl.name() << " n=" << n << " threads=" << threads;
        }
      }
    }
  }
}

TEST(EngineVerifier, BatchesBitIdenticalToSerialForRegistry) {
  const int batchSize = 5;
  for (const GridLcl& lcl : problemRegistry()) {
    for (int n : {4, 8}) {
      Torus2D torus(n);
      std::vector<int> batch;
      for (int i = 0; i < batchSize; ++i) {
        auto labels = randomLabels(torus.size(), lcl.sigma(),
                                   static_cast<std::uint32_t>(100 * n + i),
                                   /*withGarbage=*/i == 3);
        batch.insert(batch.end(), labels.begin(), labels.end());
      }
      const auto serialCounts = referenceCounts(torus, lcl, batch);
      std::vector<std::uint8_t> serialFeasible;
      for (std::int64_t count : serialCounts) {
        serialFeasible.push_back(count == 0 ? 1 : 0);
      }
      for (int threads : {1, 2, 8}) {
        engine::ThreadPool pool(threads);
        engine::EngineOptions options{.threads = threads, .pool = &pool};
        EXPECT_EQ(batchVerdicts(torus, lcl, batch, options), serialFeasible)
            << lcl.name() << " n=" << n << " threads=" << threads;
        EXPECT_EQ(batchCounts(torus, lcl, batch, options), serialCounts)
            << lcl.name() << " n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(EngineVerifier, HeterogeneousBatchMatchesSerial) {
  // Tori of mixed sizes (one above the bit-slice node floor) verified by
  // concurrent callers sharing one pool: each request honours its own
  // geometry and matches the serial reference.
  GridLcl lcl = problems::vertexColouring(4);
  const std::vector<Torus2D> tori = {Torus2D(4), Torus2D(6), Torus2D(8),
                                     Torus2D(17)};
  std::vector<std::vector<int>> labellings;
  std::vector<std::int64_t> serial;
  for (std::size_t i = 0; i < tori.size(); ++i) {
    labellings.push_back(randomLabels(tori[i].size(), lcl.sigma(),
                                      7 + static_cast<std::uint32_t>(i)));
    serial.push_back(referenceCount(tori[i], lcl, labellings[i]));
  }
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    const engine::EngineOptions options{.threads = threads, .pool = &pool};
    std::atomic<int> wrong{0};
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < tori.size(); ++i) {
      callers.emplace_back([&, i] {
        for (int round = 0; round < 20; ++round) {
          if (countViolations(tori[i], lcl, labellings[i], options) !=
                  serial[i] ||
              verify(tori[i], lcl, labellings[i], options) != (serial[i] == 0)) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    EXPECT_EQ(wrong.load(), 0) << "threads=" << threads;
  }
}

TEST(EngineVerifier, SingleLabellingBatchUsesRowSharding) {
  // A batch of one labelling on a big torus still parallelises (by rows);
  // results must match the serial reference.
  GridLcl lcl = problems::maximalIndependentSet();
  Torus2D torus(32);
  auto labels = randomLabels(torus.size(), lcl.sigma(), 21);
  const std::int64_t serial = referenceCount(torus, lcl, labels);
  engine::ThreadPool pool(4);
  engine::EngineOptions options{.threads = 4, .pool = &pool};
  EXPECT_EQ(batchVerdicts(torus, lcl, labels, options),
            std::vector<std::uint8_t>{serial == 0 ? std::uint8_t{1}
                                                  : std::uint8_t{0}});
  EXPECT_EQ(batchCounts(torus, lcl, labels, options),
            std::vector<std::int64_t>{serial});
}

TEST(EngineVerifier, SizeMismatchThrowsLikeSerial) {
  GridLcl lcl = problems::independentSet();
  Torus2D torus(4);
  std::vector<int> wrong(torus.size() - 1, 0);
  engine::EngineOptions options{.threads = 2};
  EXPECT_THROW(countViolations(torus, lcl, wrong, options),
               std::invalid_argument);
  EXPECT_THROW(verify(torus, lcl, wrong, options), std::invalid_argument);
}

TEST(LclTableFingerprint, EqualContentHashesEqual) {
  GridLcl a = problems::vertexColouring(3);
  GridLcl b = problems::vertexColouring(3);
  EXPECT_EQ(a.table().fingerprint(), b.table().fingerprint());
}

TEST(LclTableFingerprint, RegistryProblemsArePairwiseDistinct) {
  // One pair of registry entries is the same relation under two names:
  // "differ from all 4 neighbours with 2 labels" IS proper 2-colouring.
  // The fingerprint is content-based, so it must identify them -- and
  // separate everything else.
  auto sameRelation = [](const GridLcl& a, const GridLcl& b) {
    return (a.name() == "vertex-2-colouring" &&
            b.name() == "weak-2-colouring-4") ||
           (a.name() == "weak-2-colouring-4" &&
            b.name() == "vertex-2-colouring");
  };
  auto registry = problemRegistry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    for (std::size_t j = i + 1; j < registry.size(); ++j) {
      if (sameRelation(registry[i], registry[j])) {
        EXPECT_EQ(registry[i].table().fingerprint(),
                  registry[j].table().fingerprint());
      } else {
        EXPECT_NE(registry[i].table().fingerprint(),
                  registry[j].table().fingerprint())
            << registry[i].name() << " vs " << registry[j].name();
      }
    }
  }
}

namespace {

engine::SweepOptions tinySweepOptions(int threads) {
  engine::SweepOptions options;
  options.oracle.synthesis.maxK = 1;
  options.oracle.synthesis.tryWiderShapes = false;
  options.oracle.probeSizes = {4};
  options.engine.threads = threads;
  return options;
}

}  // namespace

TEST(FamilySweep, CacheRunsOracleOncePerFingerprint) {
  // Two copies of the same relation plus one distinct problem: the oracle
  // must run exactly twice, with the duplicate served from the cache.
  std::vector<GridLcl> family = {problems::independentSet(),
                                 problems::independentSet(),
                                 problems::noHorizontalOnePair()};
  for (int threads : {1, 2, 8}) {
    auto report = engine::sweepFamily(family, tinySweepOptions(threads));
    EXPECT_EQ(report.oracleRuns, 2) << "threads=" << threads;
    EXPECT_EQ(report.cacheHits, 1) << "threads=" << threads;
    ASSERT_EQ(report.entries.size(), 3u);
    EXPECT_FALSE(report.entries[0].cacheHit);
    EXPECT_TRUE(report.entries[1].cacheHit);
    EXPECT_FALSE(report.entries[2].cacheHit);
    // The cached entry shares the exact report of its runner.
    EXPECT_EQ(report.entries[1].report.get(), report.entries[0].report.get());
    ASSERT_NE(report.entries[0].report, nullptr);
    ASSERT_NE(report.entries[2].report, nullptr);
    // Both problems are trivially solvable => O(1).
    EXPECT_EQ(report.entries[0].report->complexity,
              synthesis::GridComplexity::Constant);
    EXPECT_EQ(report.entries[2].report->complexity,
              synthesis::GridComplexity::Constant);
  }
}

TEST(FamilySweep, CacheOffRunsEveryProblem) {
  std::vector<GridLcl> family = {problems::independentSet(),
                                 problems::independentSet()};
  auto options = tinySweepOptions(2);
  options.cacheByFingerprint = false;
  auto report = engine::sweepFamily(family, options);
  EXPECT_EQ(report.oracleRuns, 2);
  EXPECT_EQ(report.cacheHits, 0);
}

TEST(FamilySweep, VerdictsMatchSerialAcrossThreadCounts) {
  std::vector<GridLcl> family = {
      problems::independentSet(), problems::orientation({2}),
      problems::maximalIndependentSet(), problems::orientation({1, 3, 4})};
  auto options = tinySweepOptions(1);
  options.oracle.probeSizes = {3, 4};
  auto serial = engine::sweepFamily(family, options);
  for (int threads : {2, 8}) {
    auto aligned = tinySweepOptions(threads);
    aligned.oracle.probeSizes = {3, 4};
    auto parallel = engine::sweepFamily(family, aligned);
    ASSERT_EQ(parallel.entries.size(), serial.entries.size());
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(parallel.entries[i].report->complexity,
                serial.entries[i].report->complexity)
          << family[i].name() << " threads=" << threads;
      EXPECT_EQ(parallel.entries[i].fingerprint,
                serial.entries[i].fingerprint);
    }
  }
}

TEST(FamilySweep, JsonFollowsRepoSchema) {
  std::vector<GridLcl> family = {problems::independentSet()};
  auto options = tinySweepOptions(1);
  auto report = engine::sweepFamily(family, options);
  const std::string json = engine::sweepReportJson(report, options);
  EXPECT_NE(json.find("\"name\":\"family_sweep\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"config\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"results\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"threads\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"complexity\":\"O(1)\""), std::string::npos) << json;
}
