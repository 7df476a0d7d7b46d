// The one-sided complexity oracle as a command-line tool: pick a problem by
// name, and the oracle classifies it on 2-dimensional toroidal grids --
// producing an optimal algorithm when the answer is Theta(log* n).
//
//   ./build/examples/synthesis_oracle vertex-colouring 4
//   ./build/examples/synthesis_oracle orientation 1,3,4
//   ./build/examples/synthesis_oracle mis
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>

#include "lcl/problems.hpp"
#include "synthesis/oracle.hpp"

using namespace lclgrid;

namespace {

std::optional<GridLcl> parseProblem(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  std::string name = argv[1];
  if (name == "mis") return problems::maximalIndependentSet();
  if (name == "matching") return problems::maximalMatching();
  if (name == "independent-set") return problems::independentSet();
  if (name == "vertex-colouring" && argc >= 3) {
    return problems::vertexColouring(std::atoi(argv[2]));
  }
  if (name == "edge-colouring" && argc >= 3) {
    return problems::edgeColouring(std::atoi(argv[2]));
  }
  if (name == "orientation" && argc >= 3) {
    std::set<int> x;
    for (const char* p = argv[2]; *p; ++p) {
      if (*p >= '0' && *p <= '4') x.insert(*p - '0');
    }
    return problems::orientation(x);
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  auto problem = parseProblem(argc, argv);
  if (!problem) {
    std::printf(
        "usage: synthesis_oracle <problem> [arg]\n"
        "  problems: mis | matching | independent-set |\n"
        "            vertex-colouring <k> | edge-colouring <k> |\n"
        "            orientation <digits, e.g. 134>\n");
    // Default demonstration run.
    problem = problems::vertexColouring(4);
    std::printf("\nrunning the default: %s\n", problem->name().c_str());
  }

  std::printf("classifying %s on 2-dimensional toroidal grids...\n",
              problem->name().c_str());
  synthesis::OracleOptions options;
  options.synthesis.maxK = 3;
  auto report = synthesis::classifyOnGrid(*problem, options);

  std::printf("feasibility probe:");
  for (auto [n, outcome] : report.feasibility) {
    std::printf(" n=%d:%s", n, synthesis::probeOutcomeName(outcome).c_str());
  }
  std::printf("\n");
  for (const auto& attempt : report.attempts) {
    std::printf("  synthesis k=%d window %dx%d: %s (%lld tiles, %.2fs)\n",
                attempt.k, attempt.shape.height, attempt.shape.width,
                attempt.success ? "SAT" : attempt.failureReason.c_str(),
                attempt.tileCount, attempt.seconds);
  }
  std::printf("verdict: %s\n",
              synthesis::gridComplexityName(report.complexity).c_str());
  if (report.complexity == synthesis::GridComplexity::Constant) {
    std::printf("trivial label: %s\n",
                problem->labelName(report.trivialLabel).c_str());
  }
  if (report.rule) {
    std::printf("optimal algorithm: A' o S_%d with %d tiles of %dx%d\n",
                report.rule->k, report.rule->tileSet.size(),
                report.rule->shape.height, report.rule->shape.width);
  }
  if (report.complexity == synthesis::GridComplexity::ConjecturedGlobal) {
    std::printf(
        "note: by Theorem 3 this verdict is one-sided -- no procedure can\n"
        "prove globality for every problem; the budgeted failure is the\n"
        "honest finite answer.\n");
  }
  return 0;
}
