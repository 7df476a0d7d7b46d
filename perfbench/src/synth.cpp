// The `synth` phase: the SAT and synthesis layers, used two ways.
//
//  * engine::sweepFamily at nproc lanes over the 32 X-orientations, vc2-vc5
//    and weak(2,4) (a duplicate of vc2, so the report cache hits), probes
//    {3, 4, 7}, 300k conflicts per probe, maxK 1. n = 7 UNSAT parity proofs
//    and the clause encoding of non-decomposable cross constraints dominate.
//  * synthesis::synthesize for vc:4 at maxK 3 (a rule at k = 3 on 7x5) and
//    vc:3 at maxK 2 (no rule): dominated by generating the decomposable
//    constraints.
//
// Neither the daemon nor the verify kernels do measurable work here; verify()
// only checks the synthesized algorithms' outputs, outside the timed calls.
#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "algorithms/orientations.hpp"
#include "bench.hpp"
#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"
#include "synthesis/constraints.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"
#include "tiles/enumerator.hpp"

namespace perfbench {
namespace {

using namespace lclgrid;
using synthesis::GridComplexity;

constexpr int kOrientations = 32;
constexpr std::int64_t kProbeBudget = 300'000;

std::set<int> orientationSet(int mask) {
  std::set<int> x;
  for (int v = 0; v <= 4; ++v) {
    if (mask & (1 << v)) x.insert(v);
  }
  return x;
}

/// The ladders: (problem, maxK, expected to find a rule). The maximal-
/// matching ladder stays out: its k = 1 5x3 attempt alone took 219 s and
/// produced 64M clauses on a 4-vCPU KVM guest.
struct Ladder {
  GridLcl problem;
  int maxK;
  bool expectRule;
};

class SynthPhase : public Phase {
 public:
  explicit SynthPhase(Size size) : full_(size == Size::kFull) {}

  double setup(Run& run) override {
    seed_ = run.seed;
    lanes_ = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const auto start = Clock::now();
    family_.clear();
    for (int mask = 0; mask < kOrientations; ++mask) {
      family_.push_back(problems::orientation(orientationSet(mask)));
    }
    for (int k = 2; k <= 5; ++k) family_.push_back(problems::vertexColouring(k));
    family_.push_back(problems::weakColouring(2, 4));
    ladders_.clear();
    // The side and smoke ladders stop at k = 1, before the 7x5 window of
    // k = 2.
    ladders_.push_back({problems::vertexColouring(4), full_ ? 3 : 1, full_});
    ladders_.push_back({problems::vertexColouring(3), full_ ? 2 : 1, false});
    pool_ = std::make_unique<engine::ThreadPool>(lanes_);
    return secondsSince(start);
  }

  void teardown() override {
    pool_.reset();
    family_.clear();
    ladders_.clear();
  }

  void measure(Run& run, double seconds) override {
    // Sweeps and ladder windows are long next to a slice: each part keeps a
    // running target of its share of the slices so far, and a sweep or
    // window starts when at least half of it fits under that target. At full
    // size the parts split the time evenly: a sweep takes ~8 s and a ladder
    // round ~3.5 s, so a 30-s run gets two sweeps (the second may come from
    // report()'s minimum) and three or four rounds. At the side size the
    // family takes most of the time: a sweep takes ~2.5 s, a k = 1 ladder
    // round ~0.03 s.
    const double familyShare = full_ ? 0.5 : 0.8;
    familyTarget_ += familyShare * seconds;
    ladderTarget_ += (1 - familyShare) * seconds;
    while (familySpent_ + lastSweep_ / 2 <= familyTarget_) sweepOnce(run);
    while (ladderSpent_ + lastLadder_ / 2 <= ladderTarget_) ladderWindow(run);
  }

  double calmShare() const override {
    return std::min(familySeconds_.calmShare(), ladderSeconds_.calmShare());
  }

  void report(Run& run, Metrics& out) override {
    // The medians need two samples even when the window is short.
    while (familySeconds_.size() < 2) sweepOnce(run);
    while (ladderSeconds_.size() < 2) ladderWindow(run);
    out["family_s"] = {familySeconds_.median(), "s"};
    out["ladder_s"] = {ladderSeconds_.median(), "s"};
    countWindows(familySeconds_.kept());
    countWindows(ladderSeconds_.kept());
    std::fprintf(stderr, "synth: %zu family sweeps, %zu ladder windows, %d ladder rounds\n",
                 familySeconds_.size(), ladderSeconds_.size(), ladderRounds_);
    familySeconds_.clear();
    ladderSeconds_.clear();
    familyTarget_ = familySpent_ = ladderTarget_ = ladderSpent_ = 0;
    ladderRounds_ = 0;
  }

  void layers(Run& run) override {
    double entrySeconds = 0;
    for (const auto& entry : sweep_.entries) entrySeconds += entry.seconds;
    run.layer("engine.sweep_imbalance", sweep_.seconds * sweep_.threads / entrySeconds, "ratio");
    run.layer("engine.report_cache_hits", sweep_.cacheHits, "count");

    // Replay every unique family member's probes on its own prober, one
    // member per pool task, as the sweep runs them.
    std::vector<const GridLcl*> unique;
    for (std::size_t i = 0; i < family_.size(); ++i) {
      if (!sweep_.entries[i].cacheHit) unique.push_back(&family_[i]);
    }
    const std::vector<int> probes = sweepOptions().oracle.probeSizes;
    std::vector<std::vector<double>> probeSeconds(unique.size(),
                                                  std::vector<double>(probes.size(), 0));
    std::vector<sat::SolverStats> stats(unique.size());
    pool_->parallelFor(0, static_cast<std::int64_t>(unique.size()), 1,
                       [&](std::int64_t begin, std::int64_t end) {
                         for (std::int64_t m = begin; m < end; ++m) {
                           const auto i = static_cast<std::size_t>(m);
                           FeasibilityProber prober(*unique[i]);
                           for (std::size_t p = 0; p < probes.size(); ++p) {
                             probeSeconds[i][p] = timed("sat.probe", [&] {
                               (void)prober.probe(probes[p], kProbeBudget);
                             });
                           }
                           stats[i] = prober.solver().snapshotStats();
                         }
                       });
    double allProbeSeconds = 0;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      double seconds = 0;
      for (const auto& member : probeSeconds) seconds += member[p];
      allProbeSeconds += seconds;
      run.layer("sat.probe_s.n" + std::to_string(probes[p]), seconds, "s");
    }
    if (!full_) run.layer("sat.probe_s.n7", 0, "s");  // smoke sweeps stop at n = 4
    sat::SolverStats total;
    for (const sat::SolverStats& s : stats) {
      total.conflicts += s.conflicts;
      total.decisions += s.decisions;
      total.propagations += s.propagations;
      total.gcRuns += s.gcRuns;
      total.arenaBytes += s.arenaBytes;
    }
    run.layer("sat.conflicts", static_cast<double>(total.conflicts), "count");
    run.layer("sat.decisions", static_cast<double>(total.decisions), "count");
    run.layer("sat.propagations", static_cast<double>(total.propagations), "count");
    run.layer("sat.gc_runs", static_cast<double>(total.gcRuns), "count");
    run.layer("sat.arena_bytes", static_cast<double>(total.arenaBytes), "bytes");
    run.layer("sat.conflicts_per_s", static_cast<double>(total.conflicts) / allProbeSeconds, "1/s");

    // Every (k, shape) the ladders visited, in ladder order, on one live
    // synthesizer per problem.
    double enumerate = 0, constraints = 0, attempt = 0, clauses = 0;
    for (std::size_t i = 0; i < ladders_.size(); ++i) {
      const GridLcl& lcl = ladders_[i].problem;
      synthesis::IncrementalSynthesizer synthesizer(lcl);
      for (const synthesis::SynthesisAttempt& visited : ladderResults_[i].attempts) {
        Span shapeSpan("synthesis.shape");
        tiles::TileSet tileSet{tiles::TileShape{1, 1}, 1, {}};
        const double e = timed("tiles.enumerate", [&] {
          tileSet = tiles::enumerateTiles(visited.k, visited.shape.height, visited.shape.width);
        });
        const double c = timed("synthesis.constraints",
                               [&] { (void)synthesis::buildConstraints(lcl, tileSet); });
        synthesis::SynthesisAttempt replayed;
        const double a = timed("synthesis.attempt", [&] {
          replayed = synthesizer.attemptShape(visited.k, visited.shape,
                                              synthesis::SynthesisOptions{}.satConflictBudget);
        });
        if (replayed.success != visited.success) run.wrong("ladder replay changed its verdict");
        enumerate += e;
        constraints += c;
        attempt += a;
        clauses += static_cast<double>(replayed.clauseCount);
      }
    }
    run.layer("tiles.enumerate_s", enumerate, "s");
    run.layer("synthesis.constraints_s", constraints, "s");
    run.layer("synthesis.attempt_s", attempt, "s");
    run.layer("synthesis.clauses", clauses, "count");
    // attemptShape enumerates and builds constraints itself; the rest of it
    // is clause encoding and solving.
    run.layer("synthesis.encode_solve_s", attempt - enumerate - constraints, "s");
  }

 private:
  void sweepOnce(Run& run) {
    const engine::SweepOptions options = sweepOptions();
    const StealClock window;
    const double seconds =
        timed("e2e.sweep", [&] { sweep_ = engine::sweepFamily(family_, options); });
    familySeconds_.add(seconds, window.steal());
    familySpent_ += seconds;
    lastSweep_ = seconds;
    checkSweep(run);
  }

  /// Ladder rounds (both ladders each) for at least kWindowSeconds; the
  /// window's value is its mean round time.
  void ladderWindow(Run& run) {
    const StealClock window;
    double seconds = 0;
    int rounds = 0;
    do {
      for (std::size_t i = 0; i < ladders_.size(); ++i) {
        synthesis::SynthesisOptions options;
        options.maxK = ladders_[i].maxK;
        seconds += timed("e2e.synthesize", [&] {
          ladderResults_[i] = synthesis::synthesize(ladders_[i].problem, options);
        });
      }
      ++rounds;
      checkLadders(run);
    } while (window.seconds() < kWindowSeconds);
    ladderSeconds_.add(seconds / rounds, window.steal());
    ladderSpent_ += window.seconds();
    lastLadder_ = window.seconds();
    ladderRounds_ += rounds;
  }

  engine::SweepOptions sweepOptions() const {
    engine::SweepOptions options;
    options.oracle.synthesis.maxK = 1;
    options.oracle.probeSizes = full_ ? std::vector<int>{3, 4, 7} : std::vector<int>{3, 4};
    options.oracle.probeConflictBudget = kProbeBudget;
    options.engine.threads = lanes_;
    options.engine.pool = pool_.get();
    return options;
  }

  /// Runs a synthesized rule as A' o S_k on a torus and verifies its output.
  void checkRule(Run& run, const GridLcl& lcl, const synthesis::SynthesizedRule& rule) {
    const synthesis::NormalFormAlgorithm algorithm(rule);
    const int n = std::max(algorithm.minimumN(), 16);
    const Torus2D torus(n);
    const synthesis::NormalFormRun output = algorithm.execute(torus, local::randomIds(torus.size(), seed_));
    VerifyRequest request;
    request.problem = &lcl;
    request.torus = &torus;
    request.labels = output.labels;
    request.options.countViolations = true;
    const bool ok = output.solved && verify(request).violations == 0;
    run.attempt(ok);
    if (!ok) run.wrong("the synthesized rule for " + lcl.name() + " does not solve it");
  }

  void checkSweep(Run& run) {
    if (sweep_.cacheHits < 1) run.wrong("the family sweep's report cache never hit");
    for (std::size_t i = 0; i < family_.size(); ++i) {
      const synthesis::OracleReport& report = *sweep_.entries[i].report;
      bool ok = true;
      if (i < static_cast<std::size_t>(kOrientations)) {
        // Theorem 22's classification of the X-orientations.
        switch (algorithms::classifyOrientationPaper(orientationSet(static_cast<int>(i)))) {
          case algorithms::OrientationClass::Constant:
            ok = report.complexity == GridComplexity::Constant;
            break;
          case algorithms::OrientationClass::LogStar:
            ok = report.complexity == GridComplexity::LogStar;
            break;
          default:
            ok = report.complexity == GridComplexity::ConjecturedGlobal ||
                 report.complexity == GridComplexity::UnsolvableSomeN;
        }
      }
      if (report.rule) checkRule(run, family_[i], *report.rule);
      run.attempt(ok);
      if (!ok) {
        run.wrong(family_[i].name() + " classified " + synthesis::gridComplexityName(report.complexity) +
                  ", against Theorem 22");
      }
    }
  }

  void checkLadders(Run& run) {
    for (std::size_t i = 0; i < ladders_.size(); ++i) {
      const synthesis::SynthesisResult& result = ladderResults_[i];
      const bool ok = result.success == ladders_[i].expectRule;
      run.attempt(ok);
      if (!ok) run.wrong("ladder for " + ladders_[i].problem.name() + " changed its outcome");
      if (result.rule) checkRule(run, ladders_[i].problem, *result.rule);
    }
  }

  bool full_;
  std::uint64_t seed_ = 0;
  int lanes_ = 1;
  std::vector<GridLcl> family_;
  std::vector<Ladder> ladders_;
  std::unique_ptr<engine::ThreadPool> pool_;
  engine::SweepReport sweep_;
  synthesis::SynthesisResult ladderResults_[2];
  Series familySeconds_;  // per sweep
  Series ladderSeconds_;  // mean round time per ladder window
  int ladderRounds_ = 0;
  double familyTarget_ = 0, familySpent_ = 0, lastSweep_ = 0;
  double ladderTarget_ = 0, ladderSpent_ = 0, lastLadder_ = 0;
};

}  // namespace

std::unique_ptr<Phase> makeSynthPhase(Size size) {
  return std::make_unique<SynthPhase>(size);
}

}  // namespace perfbench
