// The concurrent family sweep driver: runs the Section 7 oracle pipeline
// (synthesis probes + classifyOnGrid) over a whole problem family on the
// engine thread pool, one problem per chunk. This is the "multi-instance
// workload" of the ROADMAP -- the machine-classification loop behind
// surveys like Chang's (arXiv:2311.06726), where whole families of LCLs are
// classified mechanically.
//
// Results are cached by LclTable content fingerprint: a family that
// contains the same relation twice (e.g. the same problem under two names,
// or a combinator composition that collapses to a known table) runs the
// oracle once and fans the report out. Problems without a compiled table
// (alphabets beyond the table limits) bypass the cache.
//
// Determinism: entries come back in family order, and unique problems are
// classified independently (classifyOnGrid takes no shared mutable state,
// see synthesis/oracle.hpp), so the report content is independent of
// scheduling and thread count; only per-entry wall times vary.
//
// Incremental SAT: each classification task owns one live solver pipeline
// (FeasibilityProber + IncrementalSynthesizer) for its whole probe/synthesis
// ladder -- solver instances are reused *within* a task, never shared
// across pool threads, per sat::Solver's thread-safety contract. The
// differential suite (tests/test_differential.cpp) pins sweep verdicts to
// the fresh-solver-per-instance reference at 1/2/8 threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cycle/classifier.hpp"
#include "cycle/cycle_lcl.hpp"
#include "engine/thread_pool.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/lcl_table.hpp"
#include "support/lru_cache.hpp"
#include "synthesis/oracle.hpp"

namespace lclgrid::engine {

/// A capacity-bounded, thread-safe cache of oracle reports keyed by table
/// content fingerprint, for reuse *across* classification calls -- the
/// within-call dedup of sweepFamily is separate and always exact. Backed by
/// support::LruCache, so a long-lived holder (the verification service, a
/// REPL loop) cannot grow without bound; eviction is least-recently-used.
/// Each entry keeps a copy of the compiled table so a 64-bit fingerprint
/// collision is detected by exact content comparison and treated as a miss,
/// never served a wrong report. Uncompiled problems bypass the cache.
class ReportCache {
 public:
  /// `counterPrefix` registers "<prefix>.hits/.misses/.evictions" telemetry
  /// counters (empty: none).
  explicit ReportCache(std::size_t capacity,
                       std::string_view counterPrefix = "sweep.report_cache");

  /// The cached report for this problem's table content, or nullptr.
  std::shared_ptr<const synthesis::OracleReport> find(const GridLcl& problem);
  /// Caches the report under the problem's table fingerprint (no-op for
  /// uncompiled problems).
  void insert(const GridLcl& problem,
              std::shared_ptr<const synthesis::OracleReport> report);
  support::LruStats stats() const;

 private:
  struct Entry {
    LclTable table;  // exact-content guard behind the fingerprint key
    std::shared_ptr<const synthesis::OracleReport> report;
  };
  mutable std::mutex mutex_;
  support::LruCache<std::uint64_t, Entry> cache_;
};

struct SweepOptions {
  synthesis::OracleOptions oracle;
  EngineOptions engine;
  /// Reuse oracle reports across equal-fingerprint problems (default on;
  /// turn off to force one oracle run per family member, e.g. for timing).
  bool cacheByFingerprint = true;
  /// Optional cross-call report cache: designated runners consult it before
  /// running the oracle and publish their fresh reports into it afterwards.
  /// Both touches happen deterministically on the calling thread; the cache
  /// may be shared with concurrent classify() callers (it locks internally).
  ReportCache* reportCache = nullptr;
};

struct SweepEntry {
  std::string problem;            // GridLcl::name()
  std::uint64_t fingerprint = 0;  // 0 iff the problem has no compiled table
  /// True iff this entry reused the report of an earlier equal-fingerprint
  /// family member instead of running the oracle.
  bool cacheHit = false;
  /// For an entry that ran the oracle: how many later family members reused
  /// its report (0 for cache-hit entries and never-reused runners).
  int fingerprintHits = 0;
  double seconds = 0.0;  // oracle wall time; 0 for cache hits
  std::shared_ptr<const synthesis::OracleReport> report;
};

struct SweepReport {
  std::vector<SweepEntry> entries;  // in family order
  int oracleRuns = 0;
  int cacheHits = 0;
  int threads = 1;
  double seconds = 0.0;  // wall time of the whole sweep
};

/// Classifies every problem of the family; unique fingerprints run
/// concurrently on the pool selected by options.engine.
SweepReport sweepFamily(std::span<const GridLcl> family,
                        const SweepOptions& options = {});

/// Structured report in the repo-wide JSON schema
/// {name, config, results[]}; results carry one object per family member
/// (problem, fingerprint, complexity, cache_hit, probe outcomes, timings).
std::string sweepReportJson(const SweepReport& report,
                            const SweepOptions& options);

// --- the unified classification front door ---------------------------------
// One classify() entry for both classification engines of the repo: the
// grid oracle (synthesis::classifyOnGrid -- one-sided, Section 7) and the
// decidable cycle classifier (cycle::classifyCycleLcl -- Claim 1). The
// verification service dispatches classification requests exclusively
// through these; sweepFamily remains the batched driver on top of the same
// oracle and the same ReportCache.

struct ClassifyOptions {
  synthesis::OracleOptions oracle;  // grid requests only
  /// Optional cross-call report cache for grid requests (cycle
  /// classification is decidable and fast; it is never cached).
  ReportCache* reportCache = nullptr;
};

struct ClassifyResult {
  std::string problem;            // the problem's name()
  std::uint64_t fingerprint = 0;  // grid requests with a compiled table
  bool cacheHit = false;          // served from options.reportCache
  double seconds = 0.0;           // classification wall time (0 on cache hit)
  /// Complexity class name, uniform across both engines
  /// (synthesis::gridComplexityName / cycle::complexityName).
  std::string complexity;
  /// Grid requests: the full oracle report.
  std::shared_ptr<const synthesis::OracleReport> grid;
  /// Cycle requests: the full classification.
  std::optional<cycle::Classification> cycle;
};

/// Classifies one grid problem through the Section 7 oracle, consulting and
/// filling options.reportCache when attached.
ClassifyResult classify(const GridLcl& problem,
                        const ClassifyOptions& options = {});

/// Classifies one cycle problem through the decidable Section 4 procedure.
ClassifyResult classify(const cycle::CycleLcl& problem,
                        const ClassifyOptions& options = {});

}  // namespace lclgrid::engine
