// E5 -- Theorem 22: the complete classification of X-orientations over all
// 32 subsets X of {0,...,4}, paper claim vs. the synthesis oracle +
// feasibility probe, plus a verified run of the optimal algorithm for each
// solvable case.
#include <cstdio>
#include <cstring>
#include <set>

#include "algorithms/orientations.hpp"
#include "lcl/problems.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"
#include "support/table.hpp"
#include "synthesis/oracle.hpp"

using namespace lclgrid;
using namespace lclgrid::algorithms;

int main(int argc, char** argv) {
  // --smoke: every 8th subset only (CI bit-rot check).
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int maskStep = smoke ? 8 : 1;
  std::printf("E5: X-orientation classification (Theorem 22), all 32 subsets\n\n");

  AsciiTable table({"X", "paper (Thm 22)", "oracle verdict",
                    "run n=16: rounds", "verified"});
  int matches = 0;
  int rows = 0;
  for (int mask = 0; mask < 32; mask += maskStep) {
    ++rows;
    std::set<int> x;
    for (int v = 0; v <= 4; ++v) {
      if (mask & (1 << v)) x.insert(v);
    }
    OrientationClass paper = classifyOrientationPaper(x);

    synthesis::OracleOptions options;
    options.synthesis.maxK = 1;
    // One odd and one even probe. A side that an F_2 or F_3 counting
    // argument rules out (Lemma 24's parity for {1,3}) is decided by the
    // linear certificate before CDCL.
    options.probeSizes = {3, 4};
    auto report =
        classifyOnGrid(problems::orientation(x), options);

    // Agreement between the paper row and the measured verdict.
    bool agree = false;
    switch (paper) {
      case OrientationClass::Constant:
        agree = report.complexity == synthesis::GridComplexity::Constant;
        break;
      case OrientationClass::LogStar:
        agree = report.complexity == synthesis::GridComplexity::LogStar;
        break;
      case OrientationClass::Global:
      case OrientationClass::Unsolvable:
        agree = report.complexity ==
                    synthesis::GridComplexity::ConjecturedGlobal ||
                report.complexity == synthesis::GridComplexity::UnsolvableSomeN;
        break;
    }
    matches += agree;

    std::string runInfo = "-";
    std::string verified = "-";
    if (paper != OrientationClass::Unsolvable) {
      Torus2D torus(16);
      // Feasibility pre-check at n = 16. The linear certificate decides the
      // counting-UNSAT orientations (X = {1}: in-degree 1 everywhere rules
      // out every n not divisible by 6); the budget bounds whatever is left
      // to CDCL.
      auto probe = solveGlobally(torus, problems::orientation(x), 0,
                                 /*conflictBudget=*/200'000);
      if (!probe.decided) {
        runInfo = "budget@16";
      } else if (!probe.feasible) {
        runInfo = "infeasible@16";
      } else {
        auto run =
            solveOrientation(torus, x, local::randomIds(torus.size(), 5));
        if (run.solved) {
          runInfo = fmtInt(run.rounds);
          verified = verify(torus, problems::orientation(x), run.labels)
                         ? "yes"
                         : "NO";
        } else {
          runInfo = "infeasible@16";
        }
      }
    }
    table.addRow({problems::orientationSetName(x),
                  orientationClassName(paper),
                  synthesis::gridComplexityName(report.complexity), runInfo,
                  verified});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper/measured agreement: %d / %d rows\n", matches, rows);
  return matches == rows ? 0 : 1;
}
