// Tests for the linear infeasibility certificates (lcl/linear_certificate.hpp)
// and their use in front of CDCL (lcl/global_solver.hpp).
//
// Ground truth comes from the paper's counting arguments, with no SAT:
// Lemma 24 ({1,3}-orientations need even n), the in-degree sums mod 3 of
// {0,3} and {1,4}, Theorem 21 (edge-4-colouring needs even n), and problems
// with labellings on every torus side, which must never be ruled out. On
// random tables (d = 2 and 3) the certificate must match a reference that
// reaches the verdict another way: a constant vector in the span of the
// allowed tuples. The differential check then holds it against an
// independent CNF encoding on a plain solver: a side the certificate rules
// out is never satisfiable there, and every satisfiable side still gets a
// verified labelling from solveGlobally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "grid/torus2d.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/linear_certificate.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/numeric.hpp"

namespace lclgrid {
namespace {

LinearCertificate certificateOf(const GridLcl& lcl) {
  return linearCertificate(lcl.asGridLclD().table());
}

/// Asserts that the certificate rules out exactly the sides n in [1, 12]
/// for which `expected(n)` holds.
template <typename Expected>
void expectRulesOut(const LinearCertificate& certificate,
                    const std::string& name, Expected&& expected) {
  for (int n = 1; n <= 12; ++n) {
    EXPECT_EQ(certificate.rulesOut(n), expected(n)) << name << " n=" << n;
  }
}

bool odd(int n) { return n % 2 != 0; }
bool notDivisibleByThree(int n) { return n % 3 != 0; }
bool never(int) { return false; }

std::set<int> orientationSet(int mask) {
  std::set<int> x;
  for (int degree = 0; degree <= 4; ++degree) {
    if (mask & (1 << degree)) x.insert(degree);
  }
  return x;
}

/// The registry of tests/test_differential.cpp plus all 32 X-orientations.
std::vector<GridLcl> problemsToCheck() {
  std::vector<GridLcl> problems;
  for (int k = 2; k <= 5; ++k) problems.push_back(problems::vertexColouring(k));
  problems.push_back(problems::maximalIndependentSet());
  problems.push_back(problems::independentSet());
  problems.push_back(problems::maximalMatching());
  problems.push_back(problems::edgeColouring(3));
  problems.push_back(problems::edgeColouring(4));
  problems.push_back(problems::noHorizontalOnePair());
  problems.push_back(problems::weakColouring(3, 1));
  problems.push_back(problems::weakColouring(2, 4));
  for (int mask = 0; mask < 32; ++mask) {
    problems.push_back(problems::orientation(orientationSet(mask)));
  }
  return problems;
}

/// The reference: the torus CSP encoded independently (one exactly-one
/// domain per node, one blocking clause per forbidden tuple and node) and
/// solved on a plain solver with a conflict budget.
sat::Result referenceSolve(const Torus2D& torus, const GridLcl& lcl,
                           std::int64_t conflictBudget) {
  sat::Solver solver;
  std::vector<sat::DomainVar> label;
  for (int v = 0; v < torus.size(); ++v) {
    label.push_back(sat::makeDomainVar(solver, lcl.sigma()));
  }
  const auto at = [&](int v) { return label[static_cast<std::size_t>(v)]; };
  std::vector<int> clause;
  for (int v = 0; v < torus.size(); ++v) {
    lcl.table().forEachForbidden([&](int c, int n, int e, int s, int w) {
      clause = {at(v).isNot(c)};
      if (lcl.deps() & kDepN) {
        clause.push_back(at(torus.step(v, Dir::North)).isNot(n));
      }
      if (lcl.deps() & kDepE) {
        clause.push_back(at(torus.step(v, Dir::East)).isNot(e));
      }
      if (lcl.deps() & kDepS) {
        clause.push_back(at(torus.step(v, Dir::South)).isNot(s));
      }
      if (lcl.deps() & kDepW) {
        clause.push_back(at(torus.step(v, Dir::West)).isNot(w));
      }
      solver.addClause(clause);
    });
  }
  return solver.solve(conflictBudget);
}

/// The reference certificate, by another route: the relations are the
/// annihilator of the span of the allowed tuples' vectors, so p obstructs
/// the table iff no constant vector (c, ..., c, 1) lies in that span. The
/// span is built tuple by tuple (forEachAllowed) as a reduced echelon
/// basis, and every c in F_p^sigma is tried.
bool referenceObstructs(const LclTableD& table, int p) {
  const int sigma = table.sigma();
  std::vector<int> slots;
  for (int slot = 0; slot < 2 * table.dims(); ++slot) {
    if ((table.deps() >> slot) & 1u) slots.push_back(slot);
  }
  const std::size_t width =
      (1 + slots.size()) * static_cast<std::size_t>(sigma) + 1;
  std::vector<std::vector<int>> basis;
  std::vector<std::size_t> pivots;
  const auto subtract = [p](std::vector<int>& row, const std::vector<int>& by,
                            int factor) {
    for (std::size_t x = 0; x < row.size(); ++x) {
      row[x] = ((row[x] - factor * by[x]) % p + p) % p;
    }
  };
  const auto reduce = [&](std::vector<int> v) {
    for (std::size_t i = 0; i < basis.size(); ++i) {
      if (v[pivots[i]] != 0) subtract(v, basis[i], v[pivots[i]]);
    }
    return v;
  };
  table.forEachAllowed([&](int c, std::span<const int> nbrs) {
    std::vector<int> v(width, 0);
    v[static_cast<std::size_t>(c)] = 1;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      v[(j + 1) * static_cast<std::size_t>(sigma) +
        static_cast<std::size_t>(nbrs[static_cast<std::size_t>(slots[j])])] = 1;
    }
    v.back() = 1;
    v = reduce(std::move(v));
    std::size_t pivot = 0;
    while (pivot < width && v[pivot] == 0) ++pivot;
    if (pivot == width) return;
    // For p <= 3 every nonzero residue is its own inverse.
    const int scale = v[pivot];
    for (int& x : v) x = x * scale % p;
    for (std::vector<int>& row : basis) {
      if (row[pivot] != 0) subtract(row, v, row[pivot]);
    }
    basis.push_back(std::move(v));
    pivots.push_back(pivot);
  });
  std::vector<int> c(static_cast<std::size_t>(sigma), 0);
  while (true) {
    std::vector<int> constant(width, 0);
    for (std::size_t x = 0; x + 1 < width; ++x) {
      constant[x] = c[x % static_cast<std::size_t>(sigma)];
    }
    constant.back() = 1;
    const std::vector<int> rest = reduce(constant);
    if (std::all_of(rest.begin(), rest.end(), [](int x) { return x == 0; })) {
      return false;
    }
    std::size_t digit = 0;  // next c in F_p^sigma, as an odometer
    while (digit < c.size() && ++c[digit] == p) c[digit++] = 0;
    if (digit == c.size()) return true;
  }
}

/// A table whose allowed tuples are a seeded random subset of the tuple
/// space with the given density.
LclTableD randomTable(int dims, int sigma, std::uint32_t deps, double density,
                      std::uint64_t seed) {
  return LclTableD::compile(
      dims, sigma, deps, [=](int c, std::span<const int> nbrs) {
        std::uint64_t code = static_cast<std::uint64_t>(c);
        for (int label : nbrs) {
          code = code * 64 + static_cast<std::uint64_t>(label);
        }
        return SplitMix64(seed ^ (code * 0x9E3779B97F4A7C15ULL)).nextDouble() <
               density;
      });
}

TEST(LinearCertificate, OneThreeOrientationNeedsEvenSides) {
  // Lemma 24: every in-degree is odd, yet the n^2 in-degrees sum to 2n^2.
  expectRulesOut(certificateOf(problems::orientation({1, 3})), "{1,3}", odd);
}

TEST(LinearCertificate, InDegreeModThreeOrientations) {
  // In-degree 0 (resp. 1) mod 3 at every node against the sum 2n^2.
  expectRulesOut(certificateOf(problems::orientation({0, 3})), "{0,3}",
                 notDivisibleByThree);
  expectRulesOut(certificateOf(problems::orientation({1, 4})), "{1,4}",
                 notDivisibleByThree);
}

TEST(LinearCertificate, ParityColouringsNeedEvenSides) {
  // Theorem 21 (2d = 4 edge colours) and the bipartite 2-colouring.
  expectRulesOut(certificateOf(problems::edgeColouring(4)),
                 "edge-4-colouring", odd);
  expectRulesOut(certificateOf(problems::vertexColouring(2)),
                 "vertex-2-colouring", odd);
}

TEST(LinearCertificate, SolvableEverywhereRulesOutNothing) {
  for (const GridLcl& lcl :
       {problems::vertexColouring(3), problems::vertexColouring(4),
        problems::maximalIndependentSet(), problems::maximalMatching()}) {
    expectRulesOut(certificateOf(lcl), lcl.name(), never);
  }
  // Every X-orientation with a constant solution (in-degree 2 everywhere):
  // that labelling is a constant solution of every relation.
  for (int mask = 0; mask < 32; ++mask) {
    const GridLcl lcl = problems::orientation(orientationSet(mask));
    if (!lcl.hasTrivialSolution()) continue;
    EXPECT_TRUE(orientationSet(mask).count(2)) << lcl.name();
    expectRulesOut(certificateOf(lcl), lcl.name(), never);
  }
}

TEST(LinearCertificate, HigherDimensionalTables) {
  expectRulesOut(linearCertificate(problems_d::vertexColouring(3, 2).table()),
                 "vertex-2-colouring d=3", odd);
  expectRulesOut(linearCertificate(problems_d::xorParity(3).table()),
                 "xor-parity d=3", never);
}

TEST(LinearCertificate, MatchesSpanMembershipOnRandomTables) {
  // Random relations of every density, in d = 2 (the delegated LclTable
  // layout) and d = 3 (the generic one), with random dependency masks.
  SplitMix64 rng(20241);
  const double densities[] = {0.05, 0.15, 0.3, 0.5, 0.8};
  int obstructed = 0, tables = 0;
  for (int dims : {2, 3}) {
    for (int trial = 0; trial < (dims == 2 ? 200 : 100); ++trial) {
      const int sigma = 2 + static_cast<int>(rng.nextBelow(dims == 2 ? 3 : 2));
      const std::uint32_t deps = static_cast<std::uint32_t>(
          rng.nextBelow(std::uint64_t{1} << (2 * dims)));
      const double density = densities[rng.nextBelow(5)];
      const LclTableD table =
          randomTable(dims, sigma, deps, density, rng.next());
      const LinearCertificate certificate = linearCertificate(table);
      EXPECT_EQ(certificate.mod2, referenceObstructs(table, 2))
          << "d=" << dims << " sigma=" << sigma << " deps=" << deps
          << " trial=" << trial;
      EXPECT_EQ(certificate.mod3, referenceObstructs(table, 3))
          << "d=" << dims << " sigma=" << sigma << " deps=" << deps
          << " trial=" << trial;
      obstructed += certificate.mod2 + certificate.mod3;
      ++tables;
    }
  }
  // Both verdicts occur.
  EXPECT_GT(obstructed, 0);
  EXPECT_LT(obstructed, 2 * tables);
}

TEST(LinearCertificate, DecidesBeforeAnythingIsEncoded) {
  const GridLcl lcl = problems::orientation({1, 3});
  // A budget of one conflict: only the certificate can decide n = 7.
  for (std::uint64_t seed : {0u, 3u}) {
    const GlobalSolveResult fresh =
        solveGlobally(Torus2D(7), lcl, seed, /*conflictBudget=*/1);
    EXPECT_FALSE(fresh.feasible);
    EXPECT_TRUE(fresh.decided);
    EXPECT_EQ(fresh.satConflicts, 0);
    EXPECT_TRUE(fresh.labels.empty());
  }
  FeasibilityProber prober(lcl);
  const GlobalSolveResult probe = prober.probe(7, /*conflictBudget=*/1);
  EXPECT_FALSE(probe.feasible);
  EXPECT_TRUE(probe.decided);
  EXPECT_EQ(probe.satConflicts, 0);
  EXPECT_TRUE(probe.labels.empty());
  EXPECT_EQ(prober.solver().numVars(), 0);  // n = 7 was never encoded
  EXPECT_TRUE(prober.probe(4).feasible);
  EXPECT_GT(prober.solver().numVars(), 0);
}

TEST(LinearCertificate, NeverRulesOutASatisfiableTorus) {
  int ruledOut = 0, satisfiable = 0;
  for (const GridLcl& lcl : problemsToCheck()) {
    const LinearCertificate certificate = certificateOf(lcl);
    for (int n = 3; n <= 7; ++n) {
      const Torus2D torus(n);
      const sat::Result reference = referenceSolve(torus, lcl, 10'000);
      if (certificate.rulesOut(n)) {
        ++ruledOut;
        EXPECT_NE(reference, sat::Result::Sat) << lcl.name() << " n=" << n;
      }
      if (reference == sat::Result::Sat) {
        ++satisfiable;
        const GlobalSolveResult solved = solveGlobally(torus, lcl);
        ASSERT_TRUE(solved.feasible) << lcl.name() << " n=" << n;
        EXPECT_TRUE(verify(torus, lcl, solved.labels))
            << lcl.name() << " n=" << n;
      }
    }
  }
  // Neither side of the check is vacuous.
  EXPECT_GT(ruledOut, 0);
  EXPECT_GT(satisfiable, 0);
}

}  // namespace
}  // namespace lclgrid
