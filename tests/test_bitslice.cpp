// Bit-sliced verification engine properties (lcl/label_planes.hpp + the
// kernels behind lcl/verifier.hpp's selection): LabelPlanes transposition
// round-trips, the cyclic shift helpers, PairNetwork equivalence with its
// predicate, plan synthesis expectations over the registry, and the
// headline contract -- bit-sliced counts are bit-for-bit identical to the
// row-pointer kernel over the whole problem registry, on odd and even
// torus sides (word-tail handling) and at 1/2/8 engine threads.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/problems.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"
#include "verify_testing.hpp"

using namespace lclgrid;

namespace {

/// Restores the process-wide kernel gate on scope exit, so a failing
/// assertion cannot leak a pinned kernel into later tests.
class GateGuard {
 public:
  GateGuard() : saved_(bitslice::enabled()) {}
  ~GateGuard() { bitslice::setEnabled(saved_); }

 private:
  bool saved_;
};

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

std::vector<int> randomLabels(long long count, int range, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, range - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

}  // namespace

TEST(LabelPlanes, TransposeRoundTripsOnOddAndEvenWidths) {
  for (int n : {1, 3, 5, 63, 64, 65, 127, 128, 130}) {
    for (int planes : {1, 2, 3, 6}) {
      const long long rows = 3;
      LabelPlanes buffer(n, rows, planes);
      const std::vector<int> labels =
          randomLabels(rows * n, 1 << planes,
                       static_cast<std::uint32_t>(n * 31 + planes));
      buffer.setRows(labels, 0, rows);
      std::vector<int> back(static_cast<std::size_t>(rows * n), -1);
      buffer.toLabels(back);
      ASSERT_EQ(back, labels) << "n=" << n << " planes=" << planes;
    }
  }
}

TEST(LabelPlanes, TransposedTailBitsAreZero) {
  // The shift helpers rely on bits >= n being zero in every plane word.
  for (int n : {1, 5, 63, 65, 130}) {
    LabelPlanes buffer(n, 1, 3);
    const std::vector<int> labels = randomLabels(n, 8, 7u * n);
    buffer.setRows(labels, 0, 1);
    const std::size_t W = buffer.wordsPerRow();
    for (int b = 0; b < 3; ++b) {
      const std::uint64_t last = buffer.row(0)[b * W + (W - 1)];
      EXPECT_EQ(last & ~bitslice::rowTailMask(n), 0u) << "n=" << n;
    }
  }
}

TEST(LabelPlanes, CyclicShiftsMatchPerBitDefinition) {
  for (int n : {1, 2, 5, 63, 64, 65, 129}) {
    const std::size_t W = bitslice::wordsPerRow(n);
    const std::vector<int> bits = randomLabels(n, 2, 91u * n);
    std::vector<std::uint64_t> src(W, 0), up(W, 0), down(W, 0);
    ASSERT_TRUE(bitslice::transposeRow(bits.data(), n, 1, 2, src.data()));
    bitslice::shiftUpCyclic(src.data(), up.data(), n);
    bitslice::shiftDownCyclic(src.data(), down.data(), n);
    for (int x = 0; x < n; ++x) {
      const int upBit = static_cast<int>((up[x >> 6] >> (x & 63)) & 1u);
      const int downBit = static_cast<int>((down[x >> 6] >> (x & 63)) & 1u);
      ASSERT_EQ(upBit, bits[static_cast<std::size_t>((x + 1) % n)])
          << "n=" << n << " x=" << x;
      ASSERT_EQ(downBit, bits[static_cast<std::size_t>((x + n - 1) % n)])
          << "n=" << n << " x=" << x;
    }
    // The shifted streams keep the tail-zero invariant.
    EXPECT_EQ(up[W - 1] & ~bitslice::rowTailMask(n), 0u);
    EXPECT_EQ(down[W - 1] & ~bitslice::rowTailMask(n), 0u);
  }
}

TEST(PairNetworkBitslice, EvalMatchesPredicateOnRandomStreams) {
  std::mt19937 rng(20260726);
  for (int sigma = 1; sigma <= 8; ++sigma) {
    for (int round = 0; round < 8; ++round) {
      // Random pair relation, including the all-true / all-false corners.
      std::vector<std::uint8_t> table(
          static_cast<std::size_t>(sigma) * sigma, 0);
      for (auto& entry : table) {
        entry = static_cast<std::uint8_t>(
            round == 0 ? 1 : (round == 1 ? 0 : rng() & 1u));
      }
      const auto ok = [&](int lo, int hi) {
        return table[static_cast<std::size_t>(lo) * sigma + hi] != 0;
      };
      const bitslice::PairNetwork net =
          bitslice::compilePairNetwork(sigma, ok);
      const int n = 130;  // odd tail, three words
      const std::size_t W = bitslice::wordsPerRow(n);
      const std::vector<int> lo = randomLabels(n, sigma, rng());
      const std::vector<int> hi = randomLabels(n, sigma, rng());
      std::vector<std::uint64_t> loP(net.planes * W, 0);
      std::vector<std::uint64_t> hiP(net.planes * W, 0);
      ASSERT_TRUE(
          bitslice::transposeRow(lo.data(), n, net.planes, sigma, loP.data()));
      ASSERT_TRUE(
          bitslice::transposeRow(hi.data(), n, net.planes, sigma, hiP.data()));
      std::vector<std::uint64_t> out(W, 0);
      net.eval(loP.data(), hiP.data(), W, out.data());
      for (int x = 0; x < n; ++x) {
        const bool got = ((out[x >> 6] >> (x & 63)) & 1u) != 0;
        ASSERT_EQ(got, ok(lo[static_cast<std::size_t>(x)],
                          hi[static_cast<std::size_t>(x)]))
            << "sigma=" << sigma << " round=" << round << " x=" << x;
      }
    }
  }
}

TEST(PlanSynthesisBitslice, RegistryPlanShapesAreAsDocumented) {
  // Decomposable sigma <= 8 compiles pair networks; non-decomposable
  // sigma <= 4 compiles the nibble LUT; everything else stays on the
  // row-pointer kernel.
  using Kind = bitslice::BitslicePlan::Kind;
  const GridLcl colouring = problems::vertexColouring(4);
  ASSERT_NE(colouring.table().bitslicePlan(), nullptr);
  EXPECT_EQ(colouring.table().bitslicePlan()->kind, Kind::kPairPlanes);
  EXPECT_TRUE(colouring.table().bitslicePlan()->h.notEqual);
  const GridLcl weak = problems::weakColouring(3, 1);
  ASSERT_NE(weak.table().bitslicePlan(), nullptr);
  EXPECT_EQ(weak.table().bitslicePlan()->kind, Kind::kNibbleLut);
  const GridLcl edges = problems::edgeColouring(3);  // sigma = 9
  EXPECT_EQ(edges.table().bitslicePlan(), nullptr);
  const GridLclD colouring3 = problems_d::vertexColouring(3, 4);
  EXPECT_NE(colouring3.table().bitslicePlanD(), nullptr);
  const GridLclD colouring2 = problems_d::vertexColouring(2, 4);
  // d = 2 delegates: the plan lives on the 2D table.
  EXPECT_EQ(colouring2.table().bitslicePlanD(), nullptr);
  ASSERT_NE(colouring2.table().as2d(), nullptr);
  EXPECT_NE(colouring2.table().as2d()->bitslicePlan(), nullptr);
}

TEST(PlanSynthesisBitslice, GateAndSizeFloorControlSelection) {
  GateGuard guard;
  const GridLcl lcl = problems::vertexColouring(4);
  const long long big = 1 << 20;
  bitslice::setEnabled(true);
  EXPECT_TRUE(verifier_detail::bitsliceSelected(lcl.asGridLclD(), big));
  // Below the setup floor the row-pointer kernel stays selected.
  EXPECT_FALSE(verifier_detail::bitsliceSelected(
      lcl.asGridLclD(), bitslice::kMinNodesForBitslice - 1));
  bitslice::setEnabled(false);
  EXPECT_FALSE(verifier_detail::bitsliceSelected(lcl.asGridLclD(), big));
}

TEST(BitsliceVerifier, DirectKernelMatchesTableOnTinyOddSides) {
  // Below the selection floor the kernels are driven directly: tiny and
  // odd sides are exactly where the word-tail and wrap handling live.
  auto registry = problemRegistry();
  for (int n : {1, 2, 3, 5, 7, 13}) {
    for (const GridLcl& lcl : registry) {
      if (lcl.table().bitslicePlan() == nullptr) continue;
      const std::vector<int> labels = randomLabels(
          static_cast<long long>(n) * n, lcl.sigma(),
          static_cast<std::uint32_t>(n * 7919));
      const std::int64_t reference = verifier_detail::tableViolationRows(
          lcl.table(), n, labels.data(), 0, n, /*stopAtFirst=*/false);
      ASSERT_EQ(verifier_detail::bitsliceViolationRows(
                    lcl.table(), n, n, labels.data(), 0, n,
                    /*stopAtFirst=*/false),
                reference)
          << lcl.name() << " n=" << n;
      ASSERT_EQ(verifier_detail::bitsliceViolationRows(
                    lcl.table(), n, n, labels.data(), 0, n,
                    /*stopAtFirst=*/true) > 0,
                reference > 0)
          << lcl.name() << " n=" << n;
    }
  }
}

TEST(BitsliceVerifierD, DirectLineKernelMatchesTableOnTinySides) {
  for (int dims : {1, 3}) {
    for (int side : {2, 3, 5}) {
      TorusD torus(dims, side);
      const GridLclD lcl = problems_d::vertexColouring(dims, 4);
      ASSERT_NE(lcl.table().bitslicePlanD(), nullptr);
      const std::vector<int> labels = randomLabels(
          torus.size(), lcl.sigma(),
          static_cast<std::uint32_t>(dims * 100 + side));
      const long long lines = torus.size() / torus.n();
      const std::int64_t reference = verifier_detail::tableViolationLinesD(
          lcl.table(), torus, labels.data(), 0, lines, /*stopAtFirst=*/false);
      LabelPlanes planes =
          verifier_detail::bitsliceMakePlanesD(torus, lcl.table());
      ASSERT_TRUE(verifier_detail::bitsliceStageLinesD(lcl.sigma(), labels,
                                                       planes, 0, lines));
      ASSERT_EQ(verifier_detail::bitsliceViolationLinesD(
                    lcl.table(), torus, planes, labels.data(), 0, lines,
                    /*stopAtFirst=*/false),
                reference)
          << "dims=" << dims << " side=" << side;
    }
  }
}

TEST(BitsliceVerifier, MatchesRowPointerKernelOverRegistry2D) {
  GateGuard guard;
  auto registry = problemRegistry();
  // Odd sides stress the word-tail handling; 64 and 65 straddle the word
  // boundary; 3 makes every neighbour wrap.
  for (int n : {3, 5, 33, 64, 65}) {
    Torus2D torus(n);
    for (const GridLcl& lcl : registry) {
      for (std::uint32_t seed = 1; seed <= 3; ++seed) {
        const std::vector<int> labels = randomLabels(
            torus.size(), lcl.sigma(),
            seed * 977u + static_cast<std::uint32_t>(n));
        bitslice::setEnabled(false);
        const std::int64_t reference = countViolations(torus, lcl, labels);
        const bool feasible = verify(torus, lcl, labels);
        bitslice::setEnabled(true);
        ASSERT_EQ(countViolations(torus, lcl, labels), reference)
            << lcl.name() << " n=" << n << " seed=" << seed;
        ASSERT_EQ(verify(torus, lcl, labels), feasible)
            << lcl.name() << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(BitsliceVerifier, FeasibleColouringCountsZero) {
  GateGuard guard;
  bitslice::setEnabled(true);
  for (int n : {4, 64, 68}) {  // multiples of 4: the diagonal colouring wraps
    Torus2D torus(n);
    const GridLcl lcl = problems::vertexColouring(4);
    std::vector<int> labels(static_cast<std::size_t>(torus.size()));
    for (int v = 0; v < torus.size(); ++v) {
      labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 4;
    }
    EXPECT_EQ(countViolations(torus, lcl, labels), 0) << n;
    EXPECT_TRUE(verify(torus, lcl, labels)) << n;
  }
}

TEST(BitsliceVerifier, ThreadedCountsAreBitIdentical2D) {
  GateGuard guard;
  bitslice::setEnabled(true);
  auto registry = problemRegistry();
  for (int n : {31, 64}) {
    Torus2D torus(n);
    for (const GridLcl& lcl : registry) {
      const std::vector<int> labels =
          randomLabels(torus.size(), lcl.sigma(),
                       1234u + static_cast<std::uint32_t>(n));
      const std::int64_t serial = countViolations(torus, lcl, labels);
      const bool feasible = verify(torus, lcl, labels);
      for (int threads : {1, 2, 8}) {
        engine::EngineOptions options{.threads = threads};
        ASSERT_EQ(countViolations(torus, lcl, labels, options), serial)
            << lcl.name() << " n=" << n << " threads=" << threads;
        ASSERT_EQ(verify(torus, lcl, labels, options), feasible)
            << lcl.name() << " n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(BitsliceVerifierD, MatchesRowPointerKernelOnTorusD) {
  GateGuard guard;
  for (int dims : {1, 2, 3}) {
    std::vector<GridLclD> registry;
    registry.push_back(problems_d::vertexColouring(dims, 4));
    registry.push_back(problems_d::vertexColouring(dims, 3));
    registry.push_back(problems_d::xorParity(dims));
    registry.push_back(problems_d::monotoneAxis(dims, 0, 3));
    for (int side : {3, 4, 9, 17}) {
      TorusD torus(dims, side);
      for (const GridLclD& lcl : registry) {
        const std::vector<int> labels = randomLabels(
            torus.size(), lcl.sigma(),
            static_cast<std::uint32_t>(dims * 131 + side));
        bitslice::setEnabled(false);
        const std::int64_t reference = countViolations(torus, lcl, labels);
        const bool feasible = verify(torus, lcl, labels);
        bitslice::setEnabled(true);
        ASSERT_EQ(countViolations(torus, lcl, labels), reference)
            << lcl.name() << " dims=" << dims << " side=" << side;
        ASSERT_EQ(verify(torus, lcl, labels), feasible)
            << lcl.name() << " dims=" << dims << " side=" << side;
        for (int threads : {1, 2, 8}) {
          engine::EngineOptions options{.threads = threads};
          ASSERT_EQ(countViolations(torus, lcl, labels, options), reference)
              << lcl.name() << " dims=" << dims << " side=" << side
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(BitsliceVerifierD, LargerOddTorusMatchesAcrossThreads) {
  // One bigger d = 3 instance so the staged line kernel crosses several
  // slabs per shard and the odd side exercises every wrap.
  GateGuard guard;
  TorusD torus(3, 17);
  const GridLclD lcl = problems_d::vertexColouring(3, 4);
  const std::vector<int> labels = randomLabels(torus.size(), 4, 555u);
  bitslice::setEnabled(false);
  const std::int64_t reference = countViolations(torus, lcl, labels);
  bitslice::setEnabled(true);
  EXPECT_EQ(countViolations(torus, lcl, labels), reference);
  for (int threads : {2, 8}) {
    engine::EngineOptions options{.threads = threads};
    EXPECT_EQ(countViolations(torus, lcl, labels, options), reference)
        << "threads=" << threads;
  }
}

TEST(BitsliceVerifierD, ProgressiveStagedVerifyHandlesFeasibleAndNot) {
  // The serial d >= 3 verify stages one outermost-axis block ahead of the
  // scan; a feasible labelling must survive the full staged sweep, and a
  // single violation in the last block must still be found.
  GateGuard guard;
  bitslice::setEnabled(true);
  TorusD torus(3, 8);  // 4 | 8: the diagonal colouring wraps cleanly
  const GridLclD lcl = problems_d::vertexColouring(3, 4);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (long long v = 0; v < torus.size(); ++v) {
    int sum = 0;
    for (int a = 0; a < 3; ++a) sum += torus.coord(v, a);
    labels[static_cast<std::size_t>(v)] = sum % 4;
  }
  EXPECT_TRUE(verify(torus, lcl, labels));
  const int last = labels.back();
  labels.back() = labels[labels.size() - 2];  // clash on the last line
  EXPECT_FALSE(verify(torus, lcl, labels));
  labels.back() = last;
  labels[0] = labels[1];  // clash in the first block
  EXPECT_FALSE(verify(torus, lcl, labels));
}

TEST(BitsliceVerifier, BatchEntriesAgreeWithSerialKernel) {
  GateGuard guard;
  Torus2D torus(33);
  const GridLcl lcl = problems::vertexColouring(4);
  std::vector<int> batch;
  std::vector<std::int64_t> expected;
  for (std::uint32_t seed = 0; seed < 4; ++seed) {
    const std::vector<int> labels =
        randomLabels(torus.size(), lcl.sigma(), 31u + seed);
    bitslice::setEnabled(false);
    expected.push_back(countViolations(torus, lcl, labels));
    batch.insert(batch.end(), labels.begin(), labels.end());
  }
  bitslice::setEnabled(true);
  EXPECT_EQ(verify_testing::batchCounts(torus, lcl, batch), expected);
  engine::EngineOptions options{.threads = 4};
  EXPECT_EQ(verify_testing::batchCounts(torus, lcl, batch, options), expected);
}

namespace {

/// Restores the SIMD tier cap on scope exit. simdTier() reports the
/// effective tier (min of cap and availability), which re-applied as a cap
/// reproduces the original dispatch exactly.
class TierGuard {
 public:
  TierGuard() : saved_(bitslice::simdTier()) {}
  ~TierGuard() { bitslice::setSimdTier(saved_); }

 private:
  bitslice::SimdTier saved_;
};

}  // namespace

TEST(SimdTier, CapNeverExceedsAvailabilityAndOrdersCorrectly) {
  TierGuard guard;
  bitslice::setSimdTier(bitslice::SimdTier::kScalar);
  EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kScalar);
  bitslice::setSimdTier(bitslice::SimdTier::kAvx2);
  EXPECT_LE(bitslice::simdTier(), bitslice::SimdTier::kAvx2);
  if (bitslice::avx2Available()) {
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kAvx2);
  }
  bitslice::setSimdTier(bitslice::SimdTier::kAvx512);
  if (bitslice::avx512Available()) {
    EXPECT_TRUE(bitslice::avx2Available());  // the subsets imply AVX2
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kAvx512);
  } else if (bitslice::avx2Available()) {
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kAvx2);
  } else {
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kScalar);
  }
}

TEST(SimdTier, NotEqualKernelCountsMatchAcrossTiers) {
  // Rows long enough that the AVX-512 worker takes full 8-word strides
  // (W = ceil(781 / 64) = 13 >= 12) with a ragged tail word; the forced
  // scalar pass is the reference the wide clones must reproduce exactly.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  Torus2D torus(781);
  const GridLcl lcl = problems::vertexColouring(4);
  ASSERT_TRUE(lcl.table().bitslicePlan()->h.notEqual);
  for (std::uint32_t seed : {11u, 12u}) {
    std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(), seed);
    bitslice::setSimdTier(bitslice::SimdTier::kScalar);
    const std::int64_t reference = countViolations(torus, lcl, labels);
    const bool feasible = verify(torus, lcl, labels);
    for (auto tier : {bitslice::SimdTier::kAvx2, bitslice::SimdTier::kAvx512}) {
      bitslice::setSimdTier(tier);
      ASSERT_EQ(countViolations(torus, lcl, labels), reference)
          << "tier=" << static_cast<int>(tier) << " seed=" << seed;
      ASSERT_EQ(verify(torus, lcl, labels), feasible)
          << "tier=" << static_cast<int>(tier) << " seed=" << seed;
    }
  }
}

TEST(SimdTier, NotEqualFeasibleAndSingleViolationAgreeAcrossTiers) {
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  Torus2D torus(768);  // 4 | 768: diagonal colouring wraps; W = 12 exactly
  const GridLcl lcl = problems::vertexColouring(4);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 4;
  }
  for (auto tier : {bitslice::SimdTier::kScalar, bitslice::SimdTier::kAvx2,
                    bitslice::SimdTier::kAvx512}) {
    bitslice::setSimdTier(tier);
    EXPECT_EQ(countViolations(torus, lcl, labels), 0)
        << "tier=" << static_cast<int>(tier);
    EXPECT_TRUE(verify(torus, lcl, labels)) << static_cast<int>(tier);
  }
  labels[1] = labels[0];  // one clash: two violated nodes (0<->1 edge sides)
  bitslice::setSimdTier(bitslice::SimdTier::kScalar);
  const std::int64_t reference = countViolations(torus, lcl, labels);
  EXPECT_GT(reference, 0);
  for (auto tier : {bitslice::SimdTier::kAvx2, bitslice::SimdTier::kAvx512}) {
    bitslice::setSimdTier(tier);
    EXPECT_EQ(countViolations(torus, lcl, labels), reference)
        << "tier=" << static_cast<int>(tier);
    EXPECT_FALSE(verify(torus, lcl, labels)) << static_cast<int>(tier);
  }
}

TEST(SimdTier, NibbleKernelCountsMatchAcrossTiers) {
  // weakColouring(3, 1) compiles the nibble LUT (non-decomposable,
  // sigma <= 4). 131 nodes per row = 16 full byte-words + 3 tail lanes for
  // the AVX2 gather, one full 64-lane stride + tail for AVX-512.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  const GridLcl lcl = problems::weakColouring(3, 1);
  ASSERT_EQ(lcl.table().bitslicePlan()->kind,
            bitslice::BitslicePlan::Kind::kNibbleLut);
  for (int n : {67, 131}) {
    Torus2D torus(n);
    for (std::uint32_t seed : {21u, 22u, 23u}) {
      std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(),
                                             seed + static_cast<unsigned>(n));
      bitslice::setSimdTier(bitslice::SimdTier::kScalar);
      const std::int64_t reference = countViolations(torus, lcl, labels);
      const bool feasible = verify(torus, lcl, labels);
      for (auto tier :
           {bitslice::SimdTier::kAvx2, bitslice::SimdTier::kAvx512}) {
        bitslice::setSimdTier(tier);
        ASSERT_EQ(countViolations(torus, lcl, labels), reference)
            << "tier=" << static_cast<int>(tier) << " n=" << n
            << " seed=" << seed;
        ASSERT_EQ(verify(torus, lcl, labels), feasible)
            << "tier=" << static_cast<int>(tier) << " n=" << n
            << " seed=" << seed;
      }
    }
  }
}

TEST(SimdTier, GenericPairPlanesUnaffectedByTierCap) {
  // Problems off the notEqual fast path stay on the minterm evaluator at
  // every tier -- the cap must not change their counts either.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  Torus2D torus(257);
  const GridLcl lcl = problems::maximalIndependentSet();
  const std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(), 7u);
  bitslice::setSimdTier(bitslice::SimdTier::kScalar);
  const std::int64_t reference = countViolations(torus, lcl, labels);
  bitslice::setSimdTier(bitslice::SimdTier::kAvx512);
  EXPECT_EQ(countViolations(torus, lcl, labels), reference);
}
