// E3 -- vertex colouring thresholds (Section 1.3, Theorems 4 and 9):
// k-colouring of 2-dimensional grids is global for k <= 3 and
// Theta(log* n) for k >= 4. Measured with the synthesis oracle plus the
// SAT feasibility probe.
#include <cstdio>

#include "lcl/problems.hpp"
#include "support/table.hpp"
#include "synthesis/oracle.hpp"

using namespace lclgrid;
using namespace lclgrid::synthesis;

int main() {
  std::printf("E3: vertex k-colouring on 2-dimensional grids\n\n");

  AsciiTable table({"k", "paper", "oracle verdict", "synthesis k",
                    "feasible n=4/5/6/7 (y/n/?)"});
  for (int k = 2; k <= 6; ++k) {
    const char* paper = k <= 3 ? "Theta(n) (global)" : "Theta(log* n)";
    OracleOptions options;
    options.synthesis.maxK = (k >= 4) ? 3 : 2;  // budget for the one-sided oracle
    auto report = classifyOnGrid(problems::vertexColouring(k), options);
    std::string feasibility;
    for (auto [n, outcome] : report.feasibility) {
      feasibility += outcome == ProbeOutcome::Feasible     ? "y"
                     : outcome == ProbeOutcome::Infeasible ? "n"
                                                           : "?";
      feasibility += "/";
    }
    if (!feasibility.empty()) feasibility.pop_back();
    table.addRow({fmtInt(k), paper, gridComplexityName(report.complexity),
                  report.rule ? fmtInt(report.rule->k) : "-", feasibility});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape check: k=2 unsolvable for odd n (global family); k=3 resists\n"
      "synthesis up to the budget (conjectured global, Theorem 9 proves it);\n"
      "k>=4 synthesized at k=3 or below => Theta(log* n) with an optimal\n"
      "normal-form algorithm in hand (Theorem 4).\n");
  return 0;
}
