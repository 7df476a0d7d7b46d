#include "synthesis/oracle.hpp"

#include "grid/torus2d.hpp"
#include "lcl/global_solver.hpp"

namespace lclgrid::synthesis {

std::string gridComplexityName(GridComplexity c) {
  switch (c) {
    case GridComplexity::Constant: return "O(1)";
    case GridComplexity::LogStar: return "Theta(log* n)";
    case GridComplexity::ConjecturedGlobal: return "global (conjectured)";
    case GridComplexity::UnsolvableSomeN: return "global (unsolvable for some n)";
  }
  return "?";
}

std::string probeOutcomeName(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::Feasible: return "feasible";
    case ProbeOutcome::Infeasible: return "infeasible";
    case ProbeOutcome::Undecided: return "undecided";
  }
  return "?";
}

OracleReport classifyOnGrid(const GridLcl& lcl, const OracleOptions& options) {
  OracleReport report;

  // Feasibility probe first: it both detects parity-obstructed problems and
  // provides evidence for the "global" verdict. The incremental regime
  // holds every probed size on one live solver (FeasibilityProber);
  // verdicts are identical to the fresh-per-size reference path, which is
  // kept for the differential suite and the LCLGRID_INCREMENTAL_SAT=0
  // escape hatch.
  bool unsolvableSomewhere = false;
  std::optional<FeasibilityProber> prober;
  if (options.synthesis.incremental) prober.emplace(lcl);
  for (int n : options.probeSizes) {
    GlobalSolveResult probe;
    if (prober) {
      probe = prober->probe(n, options.probeConflictBudget);
    } else {
      Torus2D torus(n);
      probe = solveGlobally(torus, lcl, 0, options.probeConflictBudget);
    }
    const ProbeOutcome outcome = !probe.decided ? ProbeOutcome::Undecided
                                 : probe.feasible ? ProbeOutcome::Feasible
                                                  : ProbeOutcome::Infeasible;
    report.feasibility.emplace_back(n, outcome);
    if (outcome == ProbeOutcome::Infeasible) unsolvableSomewhere = true;
  }

  // O(1) on toroidal grids <=> a constant labelling is feasible (Section 6).
  if (lcl.hasTrivialSolution()) {
    report.complexity = GridComplexity::Constant;
    report.trivialLabel = lcl.trivialLabel();
    return report;
  }

  SynthesisResult synthesis = synthesize(lcl, options.synthesis);
  report.attempts = std::move(synthesis.attempts);
  if (synthesis.success) {
    report.complexity = GridComplexity::LogStar;
    report.rule = std::move(synthesis.rule);
    return report;
  }

  report.complexity = unsolvableSomewhere ? GridComplexity::UnsolvableSomeN
                                          : GridComplexity::ConjecturedGlobal;
  return report;
}

}  // namespace lclgrid::synthesis
