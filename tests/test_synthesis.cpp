#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/graph_view.hpp"
#include "local/ids.hpp"
#include "local/mis.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/oracle.hpp"
#include "synthesis/synthesizer.hpp"
#include "tiles/enumerator.hpp"

namespace lclgrid::synthesis {
namespace {

TEST(Synthesis, FourColouringFailsAtKOneAndTwo) {
  // Section 7: "no solution exists for k = 1 or k = 2".
  auto lcl = problems::vertexColouring(4);
  for (int k : {1, 2}) {
    for (const auto& shape : candidateShapes(lcl, k, /*wider=*/true)) {
      auto attempt = synthesizeForShape(lcl, k, shape);
      EXPECT_FALSE(attempt.success) << "k=" << k;
      EXPECT_EQ(attempt.failureReason, "unsat");
    }
  }
}

TEST(Synthesis, FourColouringSucceedsAtKThreeWith7x5Tiles) {
  // Section 7: "synthesis succeeds with k = 3 for e.g. 7 x 5 tiles ...
  // 2079 tiles ... modern SAT solvers in a matter of seconds".
  auto lcl = problems::vertexColouring(4);
  auto attempt = synthesizeForShape(lcl, 3, tiles::TileShape{7, 5});
  ASSERT_TRUE(attempt.success);
  EXPECT_EQ(attempt.tileCount, 2079);
  EXPECT_LT(attempt.seconds, 30.0);  // "a matter of seconds"
  ASSERT_TRUE(attempt.rule.has_value());
  EXPECT_EQ(static_cast<int>(attempt.rule->labelOf.size()), 2079);
  for (int label : attempt.rule->labelOf) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Synthesis, OrientationOneThreeFourSucceedsAtKOne) {
  // Lemma 23: {1,3,4}-orientation synthesized with k = 1.
  auto lcl = problems::orientation({1, 3, 4});
  SynthesisOptions options;
  options.maxK = 1;
  auto result = synthesize(lcl, options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rule->k, 1);
}

TEST(Synthesis, MisSucceedsAtKOne) {
  auto result = synthesize(problems::maximalIndependentSet(),
                           SynthesisOptions{.maxK = 1});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rule->k, 1);
}

TEST(Synthesis, ThreeColouringResistsSynthesis) {
  // Theorem 9 says 3-colouring is global; the one-sided oracle can only
  // report failure up to its budget -- which it must.
  auto result = synthesize(problems::vertexColouring(3),
                           SynthesisOptions{.maxK = 2});
  EXPECT_FALSE(result.success);
  for (const auto& attempt : result.attempts) {
    EXPECT_EQ(attempt.failureReason, "unsat");
  }
}

class NormalFormExecution
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NormalFormExecution, SynthesizedFourColouringSolvesAndVerifies) {
  auto [n, seed] = GetParam();
  auto lcl = problems::vertexColouring(4);
  static SynthesisResult cached = synthesize(lcl, SynthesisOptions{.maxK = 3});
  ASSERT_TRUE(cached.success);
  NormalFormAlgorithm algorithm(*cached.rule);
  ASSERT_GE(n, algorithm.minimumN());

  Torus2D torus(n);
  auto run = algorithm.execute(torus, local::randomIds(torus.size(), seed + 7));
  ASSERT_TRUE(run.solved) << run.failure;
  EXPECT_TRUE(verify(torus, lcl, run.labels));
  EXPECT_GT(run.misRounds, 0);
  EXPECT_GE(run.localRadius, 3);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, NormalFormExecution,
    ::testing::Combine(::testing::Values(24, 33, 48), ::testing::Values(0, 1)));

TEST(NormalForm, RoundsAreFlatAcrossSizes) {
  auto lcl = problems::vertexColouring(4);
  auto result = synthesize(lcl, SynthesisOptions{.maxK = 3});
  ASSERT_TRUE(result.success);
  NormalFormAlgorithm algorithm(*result.rule);
  Torus2D small(24), large(96);
  auto runSmall = algorithm.execute(small, local::randomIds(small.size(), 3));
  auto runLarge = algorithm.execute(large, local::randomIds(large.size(), 3));
  ASSERT_TRUE(runSmall.solved);
  ASSERT_TRUE(runLarge.solved);
  // Theta(log* n): a 16x larger instance costs at most a few extra rounds.
  EXPECT_LE(runLarge.rounds, runSmall.rounds + 60);
}

TEST(NormalForm, MisRuleReproducesAnMis) {
  // The synthesized rule for the MIS problem must output exactly an MIS;
  // with k=1 the anchors themselves are one, so A' essentially reads the
  // centre bit. Check behavioural equality on the torus.
  auto result = synthesize(problems::maximalIndependentSet(),
                           SynthesisOptions{.maxK = 1});
  ASSERT_TRUE(result.success);
  NormalFormAlgorithm algorithm(*result.rule);
  Torus2D torus(20);
  auto run = algorithm.execute(torus, local::randomIds(torus.size(), 5));
  ASSERT_TRUE(run.solved);
  EXPECT_TRUE(verify(torus, problems::maximalIndependentSet(), run.labels));
}

TEST(NormalForm, DeterministicGivenAnchors) {
  // A' depends only on the anchor pattern (Section 7: "A' does not depend
  // on the assignment of unique identifiers or on the value of n").
  auto result = synthesize(problems::vertexColouring(4),
                           SynthesisOptions{.maxK = 3});
  ASSERT_TRUE(result.success);
  NormalFormAlgorithm algorithm(*result.rule);
  Torus2D torus(30);
  auto misRun =
      local::computeMis(local::l1PowerView(torus, algorithm.rule().k),
                        local::randomIds(torus.size(), 9));
  std::vector<std::uint8_t> anchors(misRun.inSet.begin(), misRun.inSet.end());
  auto first = algorithm.executeOnAnchors(torus, anchors);
  auto second = algorithm.executeOnAnchors(torus, anchors);
  ASSERT_TRUE(first.solved);
  EXPECT_EQ(first.labels, second.labels);
}

TEST(Oracle, ClassifiesTheHeadlineProblems) {
  OracleOptions fast;
  fast.synthesis.maxK = 1;
  fast.probeSizes = {4, 5};

  EXPECT_EQ(classifyOnGrid(problems::independentSet(), fast).complexity,
            GridComplexity::Constant);
  EXPECT_EQ(classifyOnGrid(problems::orientation({2}), fast).complexity,
            GridComplexity::Constant);
  EXPECT_EQ(classifyOnGrid(problems::maximalIndependentSet(), fast).complexity,
            GridComplexity::LogStar);
  EXPECT_EQ(classifyOnGrid(problems::orientation({1, 3, 4}), fast).complexity,
            GridComplexity::LogStar);

  OracleOptions medium;
  medium.synthesis.maxK = 2;
  medium.probeSizes = {4, 5};
  EXPECT_EQ(classifyOnGrid(problems::vertexColouring(3), medium).complexity,
            GridComplexity::ConjecturedGlobal);
  EXPECT_EQ(classifyOnGrid(problems::vertexColouring(2), fast).complexity,
            GridComplexity::UnsolvableSomeN);
  // {1,3}-orientation on the default probe sizes and budget: Lemma 24's
  // parity count (a linear certificate, no CDCL) rules out n = 5 and 7.
  OracleOptions defaults;
  defaults.synthesis.maxK = 1;
  const OracleReport oneThree =
      classifyOnGrid(problems::orientation({1, 3}), defaults);
  EXPECT_EQ(oneThree.complexity, GridComplexity::UnsolvableSomeN);
  const std::vector<std::pair<int, ProbeOutcome>> expected = {
      {4, ProbeOutcome::Feasible},
      {5, ProbeOutcome::Infeasible},
      {6, ProbeOutcome::Feasible},
      {7, ProbeOutcome::Infeasible}};
  EXPECT_EQ(oneThree.feasibility, expected);
}

TEST(Oracle, ReportsFeasibilityProbe) {
  OracleOptions options;
  options.synthesis.maxK = 1;
  options.probeSizes = {4, 5, 6};
  auto report = classifyOnGrid(problems::vertexColouring(2), options);
  ASSERT_EQ(report.feasibility.size(), 3u);
  EXPECT_EQ(report.feasibility[0].second, ProbeOutcome::Feasible);    // n=4
  EXPECT_EQ(report.feasibility[1].second, ProbeOutcome::Infeasible);  // n=5
  EXPECT_EQ(report.feasibility[2].second, ProbeOutcome::Feasible);    // n=6
}

TEST(IncrementalSynthesis, LadderMatchesFreshRegime) {
  // synthesize() must reach the same verdict, rule shape and attempt ladder
  // whichever regime SynthesisOptions::incremental selects. (The full
  // registry version of this lives in tests/test_differential.cpp.)
  for (bool wider : {false, true}) {
    SynthesisOptions fresh;
    fresh.maxK = 3;
    fresh.tryWiderShapes = wider;
    fresh.incremental = false;
    SynthesisOptions incremental = fresh;
    incremental.incremental = true;

    auto lcl = problems::vertexColouring(4);
    auto a = synthesize(lcl, fresh);
    auto b = synthesize(lcl, incremental);
    ASSERT_TRUE(a.success);
    ASSERT_TRUE(b.success);
    EXPECT_EQ(a.rule->k, b.rule->k);
    EXPECT_TRUE(a.rule->shape == b.rule->shape);
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (std::size_t i = 0; i < a.attempts.size(); ++i) {
      EXPECT_EQ(a.attempts[i].success, b.attempts[i].success);
      EXPECT_EQ(a.attempts[i].failureReason, b.attempts[i].failureReason);
      EXPECT_EQ(a.attempts[i].tileCount, b.attempts[i].tileCount);
      EXPECT_EQ(a.attempts[i].clauseCount, b.attempts[i].clauseCount);
    }
  }
}

TEST(IncrementalSynthesis, SynthesizedRuleExecutes) {
  // The incremental regime's rule is decoded from a live solver's model
  // snapshot; it must drive the normal-form algorithm end to end.
  SynthesisOptions options;
  options.incremental = true;
  auto lcl = problems::vertexColouring(4);
  auto result = synthesize(lcl, options);
  ASSERT_TRUE(result.success);
  NormalFormAlgorithm algorithm(*result.rule);
  Torus2D torus(24);
  auto run = algorithm.execute(torus, local::randomIds(torus.size(), 11));
  ASSERT_TRUE(run.solved) << run.failure;
  EXPECT_TRUE(verify(torus, lcl, run.labels));
}

TEST(IncrementalSynthesis, ResolveActiveResumesAfterBudgetExhaustion) {
  // Budget-staged deepening: an Unknown attempt is resumed in place (no
  // re-encode) and must converge to the fresh verdict, spending conflicts
  // across stages rather than restarting from zero.
  auto lcl = problems::vertexColouring(4);
  IncrementalSynthesizer live(lcl);
  auto attempt = live.attemptShape(3, tiles::TileShape{7, 5}, 8);
  int stages = 1;
  while (!attempt.success && attempt.failureReason == "sat budget exhausted") {
    attempt = live.resolveActive(16 << stages);
    ++stages;
    ASSERT_LE(stages, 40);
  }
  EXPECT_TRUE(attempt.success);
  ASSERT_TRUE(attempt.rule.has_value());
  EXPECT_EQ(static_cast<int>(attempt.rule->labelOf.size()), 2079);
  EXPECT_GT(stages, 1) << "budget 8 was expected to exhaust at least once";
}

TEST(IncrementalSynthesis, ResolveActiveWithoutInstanceThrows) {
  auto lcl = problems::vertexColouring(3);
  IncrementalSynthesizer live(lcl);
  EXPECT_THROW(live.resolveActive(), std::logic_error);
}

TEST(IncrementalSynthesis, DefaultHonoursEnvironmentToggle) {
  // CI runs the whole shard under LCLGRID_INCREMENTAL_SAT=0/1; the options
  // default must track the toggle (unset or "1" => incremental).
  const char* env = std::getenv("LCLGRID_INCREMENTAL_SAT");
  const bool expected = env == nullptr || std::string(env) != "0";
  EXPECT_EQ(incrementalSatDefault(), expected);
  EXPECT_EQ(SynthesisOptions{}.incremental, expected);
}

TEST(Constraints, EdgeDecomposableUsesPairConstraints) {
  auto lcl = problems::vertexColouring(4);
  auto tileSet = tiles::enumerateTiles(1, 3, 2);
  auto system = buildConstraints(lcl, tileSet);
  EXPECT_TRUE(system.edgeDecomposable);
  EXPECT_FALSE(system.horizontal.empty());
  EXPECT_FALSE(system.vertical.empty());
  EXPECT_TRUE(system.crosses.empty());
}

TEST(Constraints, GeneralProblemsUseSuperWindows) {
  auto lcl = problems::maximalIndependentSet();
  auto tileSet = tiles::enumerateTiles(1, 3, 2);
  auto system = buildConstraints(lcl, tileSet);
  EXPECT_FALSE(system.edgeDecomposable);
  EXPECT_FALSE(system.crosses.empty());
}

}  // namespace
}  // namespace lclgrid::synthesis
