#include "engine/family_sweep.hpp"

#include <unordered_map>
#include <utility>

#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/timing.hpp"

namespace lclgrid::engine {

using support::Stopwatch;

ReportCache::ReportCache(std::size_t capacity, std::string_view counterPrefix)
    : cache_(capacity, counterPrefix) {}

std::shared_ptr<const synthesis::OracleReport> ReportCache::find(
    const GridLcl& problem) {
  if (!problem.hasTable()) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::optional<Entry> entry = cache_.get(problem.table().fingerprint());
  if (!entry) return nullptr;
  // Exact content check behind the 64-bit hash: a collision with a
  // different relation is a miss, never an aliased report.
  if (!entry->table.sameContent(problem.table())) return nullptr;
  return entry->report;
}

void ReportCache::insert(
    const GridLcl& problem,
    std::shared_ptr<const synthesis::OracleReport> report) {
  if (!problem.hasTable() || report == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.put(problem.table().fingerprint(),
             Entry{problem.table(), std::move(report)});
}

support::LruStats ReportCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

SweepReport sweepFamily(std::span<const GridLcl> family,
                        const SweepOptions& options) {
  static const telemetry::Counter problemCounter =
      telemetry::counter("sweep.problems");
  static const telemetry::Counter oracleRunCounter =
      telemetry::counter("sweep.oracle_runs");
  static const telemetry::Counter cacheHitCounter =
      telemetry::counter("sweep.cache_hits");
  const Stopwatch sweepClock;
  telemetry::ScopedSpan sweepSpan("sweep/family");
  SweepReport report;
  report.entries.resize(family.size());

  // Resolve the cache structure up front (deterministically, on the
  // caller): each family index is either the designated runner for its
  // fingerprint or a reader of an earlier run. Uncompiled problems get no
  // fingerprint and always run.
  std::vector<std::size_t> runOf(family.size());
  std::vector<std::size_t> jobs;  // indices that run the oracle
  std::unordered_map<std::uint64_t, std::size_t> firstWithFingerprint;
  for (std::size_t i = 0; i < family.size(); ++i) {
    SweepEntry& entry = report.entries[i];
    entry.problem = family[i].name();
    if (options.cacheByFingerprint && family[i].hasTable()) {
      entry.fingerprint = family[i].table().fingerprint();
      auto [it, inserted] =
          firstWithFingerprint.try_emplace(entry.fingerprint, i);
      // Exact content check behind the 64-bit hash: a fingerprint
      // collision between different relations must run fresh, never alias
      // another problem's report.
      if (!inserted &&
          family[i].table().sameContent(family[it->second].table())) {
        runOf[i] = it->second;
        entry.cacheHit = true;
        ++report.entries[it->second].fingerprintHits;
        continue;
      }
    } else if (family[i].hasTable()) {
      entry.fingerprint = family[i].table().fingerprint();
    }
    runOf[i] = i;
    jobs.push_back(i);
  }

  // Cross-call cache: designated runners consult the shared ReportCache
  // (deterministically, on the caller) and drop out of the job list on a
  // hit; their readers fan out from the cached report like any other.
  if (options.reportCache != nullptr) {
    std::vector<std::size_t> stillToRun;
    stillToRun.reserve(jobs.size());
    for (std::size_t i : jobs) {
      if (auto cached = options.reportCache->find(family[i])) {
        report.entries[i].report = std::move(cached);
        report.entries[i].cacheHit = true;
      } else {
        stillToRun.push_back(i);
      }
    }
    jobs = std::move(stillToRun);
  }
  report.oracleRuns = static_cast<int>(jobs.size());
  report.cacheHits = static_cast<int>(family.size() - jobs.size());
  problemCounter.add(static_cast<std::int64_t>(family.size()));
  oracleRunCounter.add(report.oracleRuns);
  cacheHitCounter.add(report.cacheHits);

  // One oracle run per unique problem, one per pool chunk. grain 1: a
  // single slow classification (a deep synthesis loop) must not serialise
  // its chunk-mates; the other lanes keep claiming chunks in family order
  // around it.
  PoolHandle handle(options.engine);
  report.threads = handle.pool().lanes();
  handle.pool().parallelFor(
      0, static_cast<std::int64_t>(jobs.size()), /*grain=*/1,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t j = begin; j < end; ++j) {
          const std::size_t i = jobs[static_cast<std::size_t>(j)];
          const Stopwatch clock;
          telemetry::ScopedSpan classifySpan("sweep/classify/" +
                                             report.entries[i].problem);
          report.entries[i].report =
              std::make_shared<const synthesis::OracleReport>(
                  synthesis::classifyOnGrid(family[i], options.oracle));
          report.entries[i].seconds = clock.seconds();
        }
      });

  // Publish fresh reports into the cross-call cache (caller thread, family
  // order -- deterministic), then fan cached reports out to their readers.
  if (options.reportCache != nullptr) {
    for (std::size_t i : jobs) {
      options.reportCache->insert(family[i], report.entries[i].report);
    }
  }
  for (std::size_t i = 0; i < family.size(); ++i) {
    if (runOf[i] != i) {
      report.entries[i].report = report.entries[runOf[i]].report;
    }
  }
  report.seconds = sweepClock.seconds();
  return report;
}

ClassifyResult classify(const GridLcl& problem,
                        const ClassifyOptions& options) {
  static const telemetry::Counter gridCounter =
      telemetry::counter("classify.grid");
  gridCounter.increment();
  ClassifyResult result;
  result.problem = problem.name();
  if (problem.hasTable()) {
    result.fingerprint = problem.table().fingerprint();
  }
  if (options.reportCache != nullptr) {
    if (auto cached = options.reportCache->find(problem)) {
      result.grid = std::move(cached);
      result.cacheHit = true;
      result.complexity = synthesis::gridComplexityName(result.grid->complexity);
      return result;
    }
  }
  const Stopwatch clock;
  telemetry::ScopedSpan span("classify/grid/" + result.problem);
  result.grid = std::make_shared<const synthesis::OracleReport>(
      synthesis::classifyOnGrid(problem, options.oracle));
  result.seconds = clock.seconds();
  result.complexity = synthesis::gridComplexityName(result.grid->complexity);
  if (options.reportCache != nullptr) {
    options.reportCache->insert(problem, result.grid);
  }
  return result;
}

ClassifyResult classify(const cycle::CycleLcl& problem,
                        const ClassifyOptions& options) {
  static const telemetry::Counter cycleCounter =
      telemetry::counter("classify.cycle");
  (void)options;  // cycle classification takes no oracle knobs and no cache
  cycleCounter.increment();
  ClassifyResult result;
  result.problem = problem.name();
  const Stopwatch clock;
  telemetry::ScopedSpan span("classify/cycle/" + result.problem);
  result.cycle = cycle::classifyCycleLcl(problem);
  result.seconds = clock.seconds();
  result.complexity = cycle::complexityName(result.cycle->complexity);
  return result;
}

std::string sweepReportJson(const SweepReport& report,
                            const SweepOptions& options) {
  support::JsonWriter json;
  json.beginObject();
  json.key("name").value("family_sweep");
  json.key("config").beginObject();
  json.key("threads").value(report.threads);
  json.key("problems").value(static_cast<int>(report.entries.size()));
  json.key("cache_by_fingerprint").value(options.cacheByFingerprint);
  json.key("incremental_sat").value(options.oracle.synthesis.incremental);
  json.key("max_k").value(options.oracle.synthesis.maxK);
  json.key("probe_sizes").beginArray();
  for (int n : options.oracle.probeSizes) json.value(n);
  json.endArray();
  json.endObject();

  json.key("results").beginArray();
  for (const SweepEntry& entry : report.entries) {
    json.beginObject();
    json.key("problem").value(entry.problem);
    json.key("fingerprint")
        .value(support::JsonWriter::hex(entry.fingerprint));
    json.key("cache_hit").value(entry.cacheHit);
    json.key("fingerprint_hits").value(entry.fingerprintHits);
    json.key("seconds").value(entry.seconds);
    if (entry.report) {
      json.key("complexity")
          .value(synthesis::gridComplexityName(entry.report->complexity));
      json.key("trivial_label").value(entry.report->trivialLabel);
      json.key("synthesis_attempts")
          .value(static_cast<int>(entry.report->attempts.size()));
      if (entry.report->rule) {
        json.key("rule_k").value(entry.report->rule->k);
      }
      json.key("feasibility").beginArray();
      for (const auto& [n, outcome] : entry.report->feasibility) {
        json.beginObject();
        json.key("n").value(n);
        json.key("outcome").value(synthesis::probeOutcomeName(outcome));
        json.endObject();
      }
      json.endArray();
    }
    json.endObject();
  }
  json.endArray();

  json.key("oracle_runs").value(report.oracleRuns);
  json.key("cache_hits").value(report.cacheHits);
  json.key("seconds").value(report.seconds);
  json.endObject();
  return json.str();
}

}  // namespace lclgrid::engine
