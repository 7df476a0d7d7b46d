// Property tests for the d-dimensional compiled constraint-table core
// (LclTableD / GridLclD) and the TorusD verification stack:
//  * table == predicate agreement over all of sigma^(2d+1) tuples for
//    small alphabets at d = 1/2/3,
//  * the d = 2 delegation is bit-for-bit the existing LclTable (shared
//    rows, equal strides, equal derived data),
//  * per-axis pair projections and decomposability vs. brute force over
//    the raw predicate,
//  * disjointUnion / remap composition vs. predicate composition,
//  * serial TorusD verification vs. a step-based reference,
//  * the functional slice split at any node (2D problems via their d = 2
//    form), and
//  * parallel-verify determinism: counts bit-identical at 1/2/8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/lcl_table.hpp"
#include "lcl/lcl_table_d.hpp"
#include "lcl/problems.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"
#include "verify_testing.hpp"

namespace lclgrid {
namespace {

/// d-dimensional problems at small parameters: every compiled problem the
/// d-dimensional front end ships, at d = 1, 2 and 3, plus dependency-mask
/// variety (full masks, two-slot masks, an asymmetric axis).
std::vector<GridLclD> problemRegistryD() {
  std::vector<GridLclD> registry;
  for (int dims = 1; dims <= 3; ++dims) {
    for (int colours = 2; colours <= 3; ++colours) {
      registry.push_back(problems_d::vertexColouring(dims, colours));
    }
    registry.push_back(problems_d::xorParity(dims));
    for (int axis = 0; axis < dims; ++axis) {
      registry.push_back(problems_d::monotoneAxis(dims, axis, 3));
    }
  }
  return registry;
}

/// Calls f(c, nbrs) for every tuple of sigma^(2d+1).
template <typename F>
void forEachTuple(int dims, int sigma, F&& f) {
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  while (true) {
    for (int c = 0; c < sigma; ++c) f(c, nbrs);
    int slot = 0;
    while (slot < 2 * dims && ++nbrs[static_cast<std::size_t>(slot)] == sigma) {
      nbrs[static_cast<std::size_t>(slot)] = 0;
      ++slot;
    }
    if (slot == 2 * dims) break;
  }
}

std::vector<int> randomLabels(long long count, int sigma,
                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, sigma - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

TEST(LclTableD, TableAgreesWithPredicateOnAllTuples) {
  for (const GridLclD& lcl : problemRegistryD()) {
    ASSERT_TRUE(lcl.hasTable()) << lcl.name();
    const LclTableD& table = lcl.table();
    forEachTuple(lcl.dims(), lcl.sigma(), [&](int c, const std::vector<int>& nbrs) {
      EXPECT_EQ(table.allows(c, nbrs), lcl.predicate()(c, nbrs))
          << lcl.name() << " at c=" << c;
    });
  }
}

TEST(LclTableD, Dim2DelegationIsBitForBitTheLclTable) {
  // The same relation compiled through both front ends: the d = 2 table
  // must *be* the 2D table -- shared rows, equal strides in the slot
  // mapping [E, W, N, S], and equal derived data.
  const GridLcl flat = problems::vertexColouring(3);
  const GridLclD lifted = problems_d::vertexColouring(2, 3);
  ASSERT_TRUE(lifted.hasTable());
  const LclTableD& tableD = lifted.table();
  const LclTable& table2d = flat.table();

  ASSERT_NE(tableD.as2d(), nullptr);
  const LclTable& delegated = *tableD.as2d();
  EXPECT_TRUE(delegated.sameContent(table2d));
  EXPECT_EQ(delegated.fingerprint(), table2d.fingerprint());
  EXPECT_EQ(tableD.fingerprint(), table2d.fingerprint());

  // The D view shares the delegated rows rather than copying them.
  EXPECT_EQ(tableD.rowData(), delegated.rowData());
  // So does the GridLcl's own d = 2 form, which copies share.
  const GridLclD& form = flat.asGridLclD();
  ASSERT_TRUE(form.hasTable());
  EXPECT_EQ(form.table().rowData(), table2d.rowData());
  EXPECT_EQ(form.table().fingerprint(), table2d.fingerprint());
  const GridLcl copy = flat;
  EXPECT_EQ(&copy.asGridLclD(), &form);
  ASSERT_EQ(tableD.rowCount(), table2d.rowCount());
  for (std::size_t i = 0; i < table2d.rowCount(); ++i) {
    EXPECT_EQ(tableD.rowData()[i], table2d.rowData()[i]);
  }
  EXPECT_EQ(tableD.slotStrides()[0], table2d.strideE());
  EXPECT_EQ(tableD.slotStrides()[1], table2d.strideW());
  EXPECT_EQ(tableD.slotStrides()[2], table2d.strideN());
  EXPECT_EQ(tableD.slotStrides()[3], table2d.strideS());

  EXPECT_EQ(tableD.trivialLabel(), table2d.trivialLabel());
  EXPECT_EQ(tableD.edgeDecomposable(), table2d.edgeDecomposable());
  const int s = table2d.sigma();
  for (int lo = 0; lo < s; ++lo) {
    for (int up = 0; up < s; ++up) {
      EXPECT_EQ(tableD.pairOk(0, lo, up), table2d.horizontalOk(lo, up));
      EXPECT_EQ(tableD.pairOk(1, lo, up), table2d.verticalOk(lo, up));
    }
  }

  // Every query agrees with the flat table's (n, e, s, w) convention.
  forEachTuple(2, s, [&](int c, const std::vector<int>& nbrs) {
    EXPECT_EQ(tableD.allows(c, nbrs),
              table2d.allows(c, nbrs[2], nbrs[0], nbrs[3], nbrs[1]));
  });
}

TEST(LclTableD, Dim2CompileMatchesFromTable2D) {
  const GridLcl flat = problems::maximalIndependentSet();
  const LclTableD wrapped = LclTableD::fromTable2D(flat.table());
  const LclTableD compiled = LclTableD::compile(
      2, flat.sigma(), wrapped.deps(), [&](int c, std::span<const int> nbrs) {
        return flat.predicate()(c, nbrs[2], nbrs[0], nbrs[3], nbrs[1]);
      });
  EXPECT_TRUE(wrapped.sameContent(compiled));
  EXPECT_EQ(wrapped.fingerprint(), compiled.fingerprint());
}

TEST(LclTableD, PairProjectionsMatchBruteForce) {
  for (const GridLclD& lcl : problemRegistryD()) {
    const int s = lcl.sigma();
    const int d = lcl.dims();
    const LclTableD& table = lcl.table();
    // Brute force over the raw predicate: a pair (lower, upper) along axis
    // a participates iff it occurs in some allowed tuple, viewed from
    // either endpoint.
    std::vector<std::uint8_t> ref(
        static_cast<std::size_t>(d) * s * s, 0);
    auto refAt = [&](int axis, int lo, int up) -> std::uint8_t& {
      return ref[(static_cast<std::size_t>(axis) * s + lo) * s + up];
    };
    forEachTuple(d, s, [&](int c, const std::vector<int>& nbrs) {
      if (!lcl.predicate()(c, nbrs)) return;
      for (int a = 0; a < d; ++a) {
        refAt(a, c, nbrs[static_cast<std::size_t>(2 * a)]) = 1;
        refAt(a, nbrs[static_cast<std::size_t>(2 * a + 1)], c) = 1;
      }
    });
    for (int a = 0; a < d; ++a) {
      for (int lo = 0; lo < s; ++lo) {
        for (int up = 0; up < s; ++up) {
          EXPECT_EQ(table.pairOk(a, lo, up), refAt(a, lo, up) != 0)
              << lcl.name() << " axis " << a << " pair (" << lo << "," << up
              << ")";
        }
      }
    }
    // Decomposability vs. brute force: the projections reproduce the
    // relation exactly.
    bool decomposable = true;
    forEachTuple(d, s, [&](int c, const std::vector<int>& nbrs) {
      bool byPairs = true;
      for (int a = 0; a < d && byPairs; ++a) {
        byPairs = refAt(a, c, nbrs[static_cast<std::size_t>(2 * a)]) &&
                  refAt(a, nbrs[static_cast<std::size_t>(2 * a + 1)], c);
      }
      if (byPairs != lcl.predicate()(c, nbrs)) decomposable = false;
    });
    EXPECT_EQ(table.edgeDecomposable(), decomposable) << lcl.name();
  }
}

TEST(LclTableD, TrivialLabelMatchesConstantProbe) {
  for (const GridLclD& lcl : problemRegistryD()) {
    int expected = -1;
    std::vector<int> constant(static_cast<std::size_t>(2 * lcl.dims()), 0);
    for (int c = 0; c < lcl.sigma() && expected < 0; ++c) {
      std::fill(constant.begin(), constant.end(), c);
      if (lcl.predicate()(c, constant)) expected = c;
    }
    EXPECT_EQ(lcl.trivialLabel(), expected) << lcl.name();
    EXPECT_EQ(lcl.hasTrivialSolution(), expected >= 0) << lcl.name();
  }
}

TEST(LclTableD, DisjointUnionComposesFamilies) {
  for (int dims = 1; dims <= 3; ++dims) {
    const GridLclD p = problems_d::vertexColouring(dims, 2);
    const GridLclD q = problems_d::xorParity(dims);
    const LclTableD u = LclTableD::disjointUnion(p.table(), q.table());
    const int sigmaP = p.sigma();
    EXPECT_EQ(u.sigma(), sigmaP + q.sigma());
    EXPECT_EQ(u.dims(), dims);
    forEachTuple(dims, u.sigma(), [&](int c, const std::vector<int>& nbrs) {
      bool inP = c < sigmaP;
      bool consistent = true;
      for (int nbr : nbrs) consistent = consistent && ((nbr < sigmaP) == inP);
      bool expected = false;
      if (consistent) {
        std::vector<int> sub = nbrs;
        for (int& nbr : sub) nbr -= inP ? 0 : sigmaP;
        expected = inP ? p.predicate()(c, sub)
                       : q.predicate()(c - sigmaP, sub);
      }
      EXPECT_EQ(u.allows(c, nbrs), expected)
          << "d=" << dims << " c=" << c;
    });
  }
}

TEST(LclTableD, RemapPermutesAndRestrictsLabels) {
  for (int dims = 1; dims <= 3; ++dims) {
    const GridLclD p = problems_d::vertexColouring(dims, 3);
    // A swap of labels 0 and 2 plus a duplicate of label 1.
    const std::vector<int> toOld = {2, 1, 0, 1};
    const LclTableD r = LclTableD::remap(p.table(), toOld);
    EXPECT_EQ(r.sigma(), 4);
    forEachTuple(dims, 4, [&](int c, const std::vector<int>& nbrs) {
      std::vector<int> old = nbrs;
      for (int& nbr : old) nbr = toOld[static_cast<std::size_t>(nbr)];
      EXPECT_EQ(r.allows(c, nbrs),
                p.predicate()(toOld[static_cast<std::size_t>(c)], old));
    });
  }
}

TEST(LclTableD, ForbiddenIterationCoversComplement) {
  for (const GridLclD& lcl : problemRegistryD()) {
    const LclTableD& table = lcl.table();
    long long forbidden = 0;
    table.forEachForbidden([&](int c, std::span<const int> nbrs) {
      EXPECT_FALSE(lcl.predicate()(c, std::vector<int>(nbrs.begin(), nbrs.end())))
          << lcl.name();
      ++forbidden;
    });
    long long allowed = 0;
    table.forEachAllowed(
        [&](int, std::span<const int>) { ++allowed; });
    EXPECT_EQ(forbidden, table.forbiddenRowCount()) << lcl.name();
    EXPECT_EQ(forbidden + allowed,
              static_cast<long long>(table.rowCount()) * lcl.sigma())
        << lcl.name();
  }
}

TEST(LclTableD, FingerprintSeparatesRegistryAndTracksContent) {
  const auto registry = problemRegistryD();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    for (std::size_t j = i + 1; j < registry.size(); ++j) {
      const LclTableD& a = registry[i].table();
      const LclTableD& b = registry[j].table();
      EXPECT_EQ(a.sameContent(b), a.fingerprint() == b.fingerprint())
          << registry[i].name() << " vs " << registry[j].name();
    }
  }
  // Identity remap preserves content and fingerprint.
  const LclTableD& p = registry[0].table();
  std::vector<int> identity(static_cast<std::size_t>(p.sigma()));
  for (int c = 0; c < p.sigma(); ++c) identity[static_cast<std::size_t>(c)] = c;
  const LclTableD r = LclTableD::remap(p, identity);
  EXPECT_TRUE(r.sameContent(p));
  EXPECT_EQ(r.fingerprint(), p.fingerprint());
}

// --- TorusD verification ---------------------------------------------------

/// Step-based reference count, independent of the table kernels.
std::int64_t referenceCount(const TorusD& torus, const GridLclD& lcl,
                            const std::vector<int>& labels) {
  const int dims = torus.dims();
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::int64_t bad = 0;
  for (long long v = 0; v < torus.size(); ++v) {
    const int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= lcl.sigma()) {
      ++bad;
      continue;
    }
    for (int a = 0; a < dims; ++a) {
      nbrs[static_cast<std::size_t>(2 * a)] =
          labels[static_cast<std::size_t>(torus.step(v, a, true))];
      nbrs[static_cast<std::size_t>(2 * a + 1)] =
          labels[static_cast<std::size_t>(torus.step(v, a, false))];
    }
    if (!lcl.predicate()(c, nbrs)) ++bad;
  }
  return bad;
}

TEST(VerifierD, TableKernelMatchesReferenceAcrossDims) {
  std::uint32_t seed = 1234;
  for (int dims = 1; dims <= 4; ++dims) {
    const int n = dims <= 2 ? 7 : (dims == 3 ? 5 : 4);
    const TorusD torus(dims, n);
    const std::vector<GridLclD> lcls = {
        problems_d::vertexColouring(dims, 3), problems_d::xorParity(dims),
        problems_d::monotoneAxis(dims, dims - 1, 3)};
    for (const GridLclD& lcl : lcls) {
      const auto labels = randomLabels(torus.size(), lcl.sigma(), seed++);
      const std::int64_t expected = referenceCount(torus, lcl, labels);
      EXPECT_EQ(countViolations(torus, lcl, labels), expected)
          << lcl.name() << " n=" << n;
      EXPECT_EQ(verify(torus, lcl, labels), expected == 0) << lcl.name();
      EXPECT_EQ(listViolations(torus, lcl, labels,
                               static_cast<int>(torus.size()))
                    .size(),
                static_cast<std::size_t>(expected))
          << lcl.name();
    }
  }
}

TEST(VerifierD, FeasibleColouringVerifies) {
  // (sum of coords) mod k is a proper colouring when k | n and k >= 3
  // (every +-1 step changes the sum by +-1 mod k != 0).
  const TorusD torus(3, 6);
  const GridLclD lcl = problems_d::vertexColouring(3, 3);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (long long v = 0; v < torus.size(); ++v) {
    const auto coords = torus.coords(v);
    labels[static_cast<std::size_t>(v)] =
        (coords[0] + coords[1] + coords[2]) % 3;
  }
  EXPECT_TRUE(verify(torus, lcl, labels));
  EXPECT_EQ(countViolations(torus, lcl, labels), 0);
}

TEST(VerifierD, FunctionalFallbackAndOutOfRangeLabels) {
  const TorusD torus(3, 4);
  // sigma = 70 exceeds the 64-label table cap: functional path.
  GridLclD big("big-colouring-d3", 3, 70, LclTableD::fullDeps(3),
               [](int c, std::span<const int> nbrs) {
                 for (int nbr : nbrs) {
                   if (nbr == c) return false;
                 }
                 return true;
               });
  EXPECT_FALSE(big.hasTable());
  const auto labels = randomLabels(torus.size(), big.sigma(), 99);
  EXPECT_EQ(countViolations(torus, big, labels),
            referenceCount(torus, big, labels));

  // Out-of-alphabet labels force the compiled problem off the table path.
  const GridLclD small = problems_d::vertexColouring(3, 3);
  auto bad = randomLabels(torus.size(), small.sigma(), 100);
  bad[5] = 42;
  EXPECT_EQ(countViolations(torus, small, bad),
            referenceCount(torus, small, bad));
  EXPECT_FALSE(verify(torus, small, bad));
}

TEST(VerifierD, TableFirstProblemRejectsOutOfRangeLabels) {
  // A table-first GridLclD has no raw predicate; its fallback predicate
  // must reject out-of-alphabet labels instead of indexing the table with
  // them (the verifier feeds garbage labels through the predicate path).
  const GridLclD p = problems_d::vertexColouring(3, 2);
  const GridLclD q = problems_d::xorParity(3);
  const GridLclD u("union",
                   LclTableD::disjointUnion(p.table(), q.table()));
  const std::vector<int> garbage = {1000000, 0, 0, 0, 0, 0};
  EXPECT_FALSE(u.allows(0, std::span<const int>(garbage)));
  EXPECT_FALSE(u.predicate()(1000000, std::vector<int>(6, 0)));

  const TorusD torus(3, 4);
  auto labels = randomLabels(torus.size(), u.sigma(), 4242);
  labels[7] = 1000000;
  EXPECT_FALSE(verify(torus, u, labels));
  EXPECT_GE(countViolations(torus, u, labels), 1);
}

TEST(VerifierD, BatchesMatchSingleCalls) {
  const TorusD torus(3, 4);
  const GridLclD lcl = problems_d::vertexColouring(3, 3);
  const int batchSize = 5;
  std::vector<int> batch;
  std::vector<std::int64_t> expectedCounts;
  for (int i = 0; i < batchSize; ++i) {
    const auto labels = randomLabels(torus.size(), lcl.sigma(), 2000 + i);
    batch.insert(batch.end(), labels.begin(), labels.end());
    expectedCounts.push_back(countViolations(torus, lcl, labels));
  }
  EXPECT_EQ(verify_testing::batchCounts(torus, lcl, batch), expectedCounts);
  const auto feasible = verify_testing::batchVerdicts(torus, lcl, batch);
  ASSERT_EQ(feasible.size(), static_cast<std::size_t>(batchSize));
  for (int i = 0; i < batchSize; ++i) {
    EXPECT_EQ(feasible[static_cast<std::size_t>(i)] != 0,
              expectedCounts[static_cast<std::size_t>(i)] == 0);
  }
  std::vector<int> ragged(batch.begin(), batch.end() - 1);
  EXPECT_THROW(verify_testing::batchCounts(torus, lcl, ragged),
               std::invalid_argument);
}

TEST(VerifierD, FunctionalSliceSplitsAnywhere) {
  // The functional slice walks axis-0 lines but is sharded by node, so a
  // range may start and end mid-line: [0, k) + [k, N) must equal the whole
  // count for every k in the first two lines and at every line boundary.
  // 2D problems run through their d = 2 form (one uncompiled: sigma = 70),
  // with out-of-range labels planted at a line start, mid-line and a line
  // end.
  std::vector<GridLcl> flat = {problems::vertexColouring(3),
                               problems::maximalIndependentSet(),
                               problems::maximalMatching(),
                               problems::noHorizontalOnePair()};
  flat.emplace_back("big-colouring", 70, kDepAll,
                    [](int c, int n, int e, int s, int w) {
                      return c != n && c != e && c != s && c != w;
                    });
  EXPECT_FALSE(flat.back().asGridLclD().hasTable());
  std::vector<const GridLclD*> problems;
  for (const GridLcl& lcl : flat) problems.push_back(&lcl.asGridLclD());
  const std::vector<GridLclD> registry = problemRegistryD();
  for (const GridLclD& lcl : registry) problems.push_back(&lcl);

  std::uint32_t seed = 77;
  for (const GridLclD* lcl : problems) {
    const int n = lcl->dims() <= 2 ? 7 : 5;
    const TorusD torus(lcl->dims(), n);
    auto labels = randomLabels(torus.size(), lcl->sigma(), seed++);
    labels[0] = lcl->sigma();
    labels[static_cast<std::size_t>(torus.size() / 2)] = -1;
    labels[static_cast<std::size_t>(torus.size() - 1)] = lcl->sigma() + 5;
    const long long size = torus.size();
    const auto slice = [&](long long begin, long long end, bool stop) {
      return verifier_detail::functionalViolationRangeD(torus, *lcl, labels,
                                                        begin, end, stop);
    };
    const std::int64_t whole = slice(0, size, false);
    EXPECT_EQ(whole, referenceCount(torus, *lcl, labels)) << lcl->name();
    EXPECT_EQ(slice(0, size, true), whole > 0 ? 1 : 0) << lcl->name();
    std::vector<long long> splits;
    for (long long k = 0; k <= std::min<long long>(2 * n, size); ++k) {
      splits.push_back(k);
    }
    for (long long k = 0; k <= size; k += n) splits.push_back(k);
    for (long long k : splits) {
      const std::int64_t head = slice(0, k, false);
      const std::int64_t tail = slice(k, size, false);
      EXPECT_EQ(head + tail, whole) << lcl->name() << " k=" << k;
      EXPECT_EQ(slice(0, k, true), head > 0 ? 1 : 0) << lcl->name();
      EXPECT_EQ(slice(k, size, true), tail > 0 ? 1 : 0) << lcl->name();
    }
  }
  // The 2D oracle agrees with the d = 2 form's count.
  for (const GridLcl& lcl : flat) {
    const Torus2D torus(7);
    auto labels = randomLabels(torus.size(), lcl.sigma(), seed++);
    labels[10] = lcl.sigma();
    const std::int64_t count = verifier_detail::functionalViolationRangeD(
        TorusD(2, 7), lcl.asGridLclD(), labels, 0, torus.size(), false);
    EXPECT_EQ(static_cast<std::size_t>(count),
              listViolations(torus, lcl, labels, torus.size()).size())
        << lcl.name();
  }
}

TEST(VerifierD, DimensionMismatchThrows) {
  const TorusD torus(3, 4);
  const GridLclD lcl = problems_d::vertexColouring(2, 3);
  const std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);
  EXPECT_THROW(countViolations(torus, lcl, labels), std::invalid_argument);
  EXPECT_THROW(verify(torus, lcl, labels), std::invalid_argument);
}

TEST(VerifierD, ParallelCountsBitIdenticalAt128Threads) {
  std::uint32_t seed = 777;
  for (int dims = 2; dims <= 3; ++dims) {
    const int n = dims == 2 ? 10 : 6;
    const TorusD torus(dims, n);
    const std::vector<GridLclD> lcls = {
        problems_d::vertexColouring(dims, 3), problems_d::xorParity(dims),
        problems_d::monotoneAxis(dims, 0, 3)};
    for (const GridLclD& lcl : lcls) {
      const auto labels = randomLabels(torus.size(), lcl.sigma(), seed++);
      const std::int64_t serial =
          verify_testing::referenceCount(torus, lcl, labels);
      const bool feasible = serial == 0;
      for (int threads : {1, 2, 8}) {
        engine::ThreadPool pool(threads);
        // Explicit grain pins chunk boundaries across thread counts.
        engine::EngineOptions options{
            .threads = threads, .grain = 2, .pool = &pool};
        EXPECT_EQ(countViolations(torus, lcl, labels, options), serial)
            << lcl.name() << " threads=" << threads;
        EXPECT_EQ(verify(torus, lcl, labels, options), feasible)
            << lcl.name() << " threads=" << threads;
      }
    }
  }
}

TEST(VerifierD, ParallelBatchesBitIdenticalAt128Threads) {
  const TorusD torus(3, 4);
  const GridLclD lcl = problems_d::xorParity(3);
  const int batchSize = 6;
  std::vector<int> batch;
  for (int i = 0; i < batchSize; ++i) {
    const auto labels = randomLabels(torus.size(), lcl.sigma(), 3000 + i);
    batch.insert(batch.end(), labels.begin(), labels.end());
  }
  const auto serialCounts = verify_testing::referenceCounts(torus, lcl, batch);
  std::vector<std::uint8_t> serialFeasible;
  for (std::int64_t count : serialCounts) {
    serialFeasible.push_back(count == 0 ? 1 : 0);
  }
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    engine::EngineOptions options{
        .threads = threads, .grain = 1, .pool = &pool};
    EXPECT_EQ(verify_testing::batchCounts(torus, lcl, batch, options),
              serialCounts)
        << "threads=" << threads;
    EXPECT_EQ(verify_testing::batchVerdicts(torus, lcl, batch, options),
              serialFeasible)
        << "threads=" << threads;
  }
  // Single-labelling batch takes the sharded-single path.
  std::vector<int> one(batch.begin(),
                       batch.begin() + static_cast<std::size_t>(torus.size()));
  for (int threads : {2, 8}) {
    engine::ThreadPool pool(threads);
    engine::EngineOptions options{.threads = threads, .pool = &pool};
    EXPECT_EQ(verify_testing::batchCounts(torus, lcl, one, options),
              std::vector<std::int64_t>{serialCounts[0]});
  }
}

}  // namespace
}  // namespace lclgrid
