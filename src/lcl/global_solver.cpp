#include "lcl/global_solver.hpp"

#include "sat/cnf.hpp"
#include "support/numeric.hpp"
#include "support/telemetry.hpp"

namespace lclgrid {

namespace {

/// The linear certificate of a problem's compiled table; an uncompiled
/// problem has none and rules nothing out.
LinearCertificate certificateOf(const GridLcl& lcl) {
  const GridLclD& form = lcl.asGridLclD();
  return form.hasTable() ? linearCertificate(form.table())
                         : LinearCertificate{};
}

/// The answer to a solve the certificate decided: infeasible, decided, no
/// conflicts, no labels. Counted once per decided call.
GlobalSolveResult certifiedInfeasible() {
  static const telemetry::Counter certificates =
      telemetry::counter("global.linear_certificates");
  certificates.increment();
  return GlobalSolveResult{};
}

/// Builds the full node-label CSP for the LCL on the torus into `solver`,
/// routing every clause (domain and blocking alike) through `add` so the
/// incremental prober can guard the instance with an activation literal
/// while solveGlobally keeps plain unconditional clauses.
template <typename AddClause>
std::vector<sat::DomainVar> buildTorusCsp(const Torus2D& torus,
                                          const GridLcl& lcl,
                                          sat::Solver& solver,
                                          AddClause&& add) {
  const int sigma = lcl.sigma();
  std::vector<sat::DomainVar> label(static_cast<std::size_t>(torus.size()));
  std::vector<int> atLeastOne;
  for (int v = 0; v < torus.size(); ++v) {
    sat::DomainVar dv(solver, sigma);
    atLeastOne.clear();
    for (int c = 0; c < sigma; ++c) atLeastOne.push_back(dv.is(c));
    add(atLeastOne);
    for (int a = 0; a < sigma; ++a) {
      for (int b = a + 1; b < sigma; ++b) {
        add({dv.isNot(a), dv.isNot(b)});
      }
    }
    label[static_cast<std::size_t>(v)] = dv;
  }

  // One blocking clause per forbidden constraint-table row and node.
  // Positions outside the dependency mask cannot influence the predicate;
  // the compiled table already squeezes them out, so the clause generator
  // only walks rows that actually exist (and skips fully-allowed rows a
  // word at a time). Problems too large to compile fall back to the
  // sigma^5 predicate enumeration the seed used.
  const std::uint8_t deps = lcl.deps();
  const bool useN = deps & kDepN, useE = deps & kDepE;
  const bool useS = deps & kDepS, useW = deps & kDepW;
  std::vector<int> clause;
  for (int v = 0; v < torus.size(); ++v) {
    const int nN = torus.step(v, Dir::North);
    const int nE = torus.step(v, Dir::East);
    const int nS = torus.step(v, Dir::South);
    const int nW = torus.step(v, Dir::West);
    auto blockTuple = [&](int c, int n, int e, int s, int w) {
      clause.clear();
      clause.push_back(label[static_cast<std::size_t>(v)].isNot(c));
      if (useN) clause.push_back(label[static_cast<std::size_t>(nN)].isNot(n));
      if (useE) clause.push_back(label[static_cast<std::size_t>(nE)].isNot(e));
      if (useS) clause.push_back(label[static_cast<std::size_t>(nS)].isNot(s));
      if (useW) clause.push_back(label[static_cast<std::size_t>(nW)].isNot(w));
      add(clause);
    };
    if (lcl.hasTable()) {
      lcl.table().forEachForbidden(blockTuple);
    } else {
      for (int c = 0; c < sigma; ++c) {
        for (int n = 0; n < (useN ? sigma : 1); ++n) {
          for (int e = 0; e < (useE ? sigma : 1); ++e) {
            for (int s = 0; s < (useS ? sigma : 1); ++s) {
              for (int w = 0; w < (useW ? sigma : 1); ++w) {
                if (!lcl.allows(c, n, e, s, w)) blockTuple(c, n, e, s, w);
              }
            }
          }
        }
      }
    }
  }
  return label;
}

std::vector<int> decodeModel(int nodeCount,
                             const std::vector<sat::DomainVar>& label,
                             const sat::Solver& solver) {
  std::vector<int> labels(static_cast<std::size_t>(nodeCount));
  for (int v = 0; v < nodeCount; ++v) {
    labels[static_cast<std::size_t>(v)] =
        label[static_cast<std::size_t>(v)].decode(solver);
  }
  return labels;
}

}  // namespace

GlobalSolveResult solveGlobally(const Torus2D& torus, const GridLcl& lcl,
                                std::uint64_t seed,
                                std::int64_t conflictBudget) {
  if (certificateOf(lcl).rulesOut(torus.n())) return certifiedInfeasible();

  GlobalSolveResult result;
  sat::Solver solver;
  auto label = buildTorusCsp(
      torus, lcl, solver,
      [&](const std::vector<int>& clause) { solver.addClause(clause); });

  if (seed == 0) {
    auto outcome = solver.solve(conflictBudget);
    if (outcome == sat::Result::Sat) {
      result.feasible = true;
      result.labels = decodeModel(torus.size(), label, solver);
    }
    result.decided = outcome != sat::Result::Unknown;
    result.satConflicts = solver.conflicts();
    return result;
  }

  // Seeded mode: force a random node to each label in random order and take
  // the first satisfiable branch. The union of branches covers the whole
  // space, so feasibility is unchanged, but different seeds surface
  // different solutions (used by the Section 9 invariant experiments).
  // Branches run as assumptions on the one live solver: the CSP is encoded
  // once and every branch inherits what the earlier branches learnt.
  SplitMix64 rng(seed);
  const int forcedNode =
      static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(torus.size())));
  std::vector<int> order(static_cast<std::size_t>(lcl.sigma()));
  for (int i = 0; i < lcl.sigma(); ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = lcl.sigma() - 1; i > 0; --i) {
    int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }

  for (int candidate : order) {
    auto outcome = solver.solve(
        {label[static_cast<std::size_t>(forcedNode)].is(candidate)},
        conflictBudget);
    if (outcome == sat::Result::Unknown) result.decided = false;
    if (outcome == sat::Result::Sat) {
      result.feasible = true;
      result.labels = decodeModel(torus.size(), label, solver);
      break;
    }
  }
  result.satConflicts = solver.conflicts();
  return result;
}

FeasibilityProber::FeasibilityProber(const GridLcl& lcl)
    : lcl_(lcl), certificate_(certificateOf(lcl)) {}

FeasibilityProber::SizeBlock& FeasibilityProber::blockFor(int n) {
  for (SizeBlock& block : blocks_) {
    if (block.n == n) return block;
  }
  SizeBlock block;
  block.n = n;
  block.group = sat::ClauseGroup(solver_);
  Torus2D torus(n);
  block.label = buildTorusCsp(
      torus, lcl_, solver_, [&](const std::vector<int>& clause) {
        block.group.addClause(solver_, clause);
      });
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

GlobalSolveResult FeasibilityProber::probe(int n,
                                           std::int64_t conflictBudget) {
  if (certificate_.rulesOut(n)) return certifiedInfeasible();

  SizeBlock& block = blockFor(n);
  GlobalSolveResult result;
  const std::int64_t conflictsBefore = solver_.conflicts();
  auto outcome = solver_.solve({block.group.activation()}, conflictBudget);
  result.satConflicts = solver_.conflicts() - conflictsBefore;
  result.decided = outcome != sat::Result::Unknown;
  if (outcome == sat::Result::Sat) {
    result.feasible = true;
    result.labels = decodeModel(n * n, block.label, solver_);
  }
  return result;
}

int bruteForceRounds(int n) { return 2 * (n / 2); }

}  // namespace lclgrid
