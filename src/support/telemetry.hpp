// Process-wide, thread-aware instrumentation: named monotonic counters,
// log2-bucketed histograms, set/max gauges, and RAII scoped spans, with two
// exporters -- a metrics snapshot in the repo {name, config, results[]}
// JSON schema (support/json.hpp) and a Chrome trace-event JSON file
// (chrome://tracing / Perfetto) of spans per thread.
//
// Hot-path contract: a Counter/Histogram handle is an index into a
// thread-local shard, so add()/record() touch only the calling thread's
// cache lines (one relaxed atomic store each -- the atomics exist so a
// concurrent snapshot may read the slots without a data race, never for
// cross-thread ordering). Shards register themselves with the process
// registry on first use and fold their totals into a retired accumulator on
// thread exit, so counts survive pool workers coming and going. Snapshots
// merge live shards + retired totals and are therefore exact whenever the
// instrumented threads are quiescent (and monotone under races).
//
// Spans record one complete ("X") trace event per scope into a bounded
// per-thread buffer, but only while tracing is enabled -- the disabled
// constructor is one relaxed load. Enable programmatically
// (setTraceEnabled) or via the environment:
//
//   LCLGRID_TRACE=1      collect spans (export is the caller's job)
//   LCLGRID_TRACE=path   collect spans and write the Chrome trace to
//                        `path` at process exit
//   LCLGRID_METRICS=path write the metrics snapshot to `path` at exit
//
// Building with -DLCLGRID_TELEMETRY=OFF defines LCLGRID_TELEMETRY_DISABLED
// and compiles every probe in this header to an empty inline body (no
// registry, no thread-locals, no atomics), so fully instrumented code pays
// nothing. kCompiledIn tells callers (and tests) which world they are in.
//
// Probe naming scheme (see docs/observability.md): dot-separated
// lowercase_underscore components, "<layer>.<metric>" for counters/gauges
// ("verify.nodes.bitsliced", "pool.tasks_submitted", "sat.conflicts") and
// '/'-separated hierarchical names for spans ("verify/bitsliced",
// "sweep/classify/<problem>").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if defined(LCLGRID_TELEMETRY_DISABLED)
#define LCLGRID_TELEMETRY_ENABLED 0
#else
#define LCLGRID_TELEMETRY_ENABLED 1
#endif

namespace lclgrid::support::telemetry {

inline constexpr bool kCompiledIn = LCLGRID_TELEMETRY_ENABLED != 0;

#if LCLGRID_TELEMETRY_ENABLED

/// Handle to a named monotonic counter. Cheap to copy; obtain via
/// counter(name) (idempotent -- the same name always yields the same slot).
class Counter {
 public:
  Counter() = default;
  /// Adds delta to the calling thread's shard slot (relaxed; ~one store).
  void add(std::int64_t delta) const noexcept;
  void increment() const noexcept { add(1); }

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = UINT32_MAX;  // UINT32_MAX: null handle (no-op)
};

/// Handle to a named gauge: a process-wide last-value/high-water cell
/// (gauges are set rarely -- slab boundaries, pass ends -- so they share
/// one atomic rather than per-thread shards).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t value) const noexcept;
  /// Raises the gauge to value if larger (high-water mark).
  void max(std::int64_t value) const noexcept;

 private:
  friend Gauge gauge(std::string_view name);
  explicit Gauge(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = UINT32_MAX;
};

/// Handle to a named histogram over non-negative values, bucketed by
/// bit-width (bucket b counts values with bit_width == b; 65 buckets).
class Histogram {
 public:
  Histogram() = default;
  void record(std::int64_t value) const noexcept;

 private:
  friend Histogram histogram(std::string_view name);
  explicit Histogram(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = UINT32_MAX;
};

/// Registers (or looks up) a counter/gauge/histogram by name. Registration
/// takes the registry mutex -- call once and keep the handle (function-local
/// static at the probe site is the idiom). Returns a null no-op handle if
/// the fixed slot budget (kMaxCounters etc.) is exhausted.
Counter counter(std::string_view name);
Gauge gauge(std::string_view name);
Histogram histogram(std::string_view name);

/// Span collection gate (also settable via LCLGRID_TRACE, read once at
/// first telemetry use).
bool traceEnabled() noexcept;
void setTraceEnabled(bool on) noexcept;

/// RAII scoped span: records one complete trace event [ctor, dtor) on the
/// calling thread when tracing is enabled. The const char* overload must
/// receive a pointer that outlives the trace (string literals); the
/// std::string overload copies and is for dynamic labels.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  // null: inactive (tracing was off at ctor)
  std::string owned_;
  std::uint64_t startNs_ = 0;
};

// --- snapshots & exporters ---

struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 when count == 0
  std::int64_t max = 0;
};

struct MetricsSnapshot {
  std::vector<CounterValue> counters;    // registration order
  std::vector<GaugeValue> gauges;        // registration order
  std::vector<HistogramValue> histograms;
};

/// Merges all live thread shards plus retired totals.
MetricsSnapshot snapshotMetrics();

/// The snapshot as one repo-schema JSON document
/// {name: "metrics_snapshot", config: {...}, results: [...]} -- each
/// results[] entry is {kind: counter|gauge|histogram, name, value | stats}.
std::string metricsJson();

/// Writes metricsJson() to path. Returns false (and writes nothing) on
/// open/write failure.
bool writeMetricsFile(const std::string& path);

/// One recorded span, for tests and programmatic inspection.
struct TraceEvent {
  std::string name;
  int tid = 0;                // small sequential per-thread id (1-based)
  std::uint64_t startNs = 0;  // since process telemetry epoch
  std::uint64_t durNs = 0;
};

/// Copies all recorded spans (live buffers + retired threads).
std::vector<TraceEvent> snapshotTrace();

/// The recorded spans as a Chrome trace-event JSON document
/// {"traceEvents": [...]} with one "M" thread-name metadata event per
/// thread and one "X" complete event per span (ts/dur in microseconds).
std::string chromeTraceJson();

/// Writes chromeTraceJson() to path. Returns false on open/write failure.
bool writeTraceFile(const std::string& path);

/// Discards all recorded spans (tests; not thread-safe against concurrent
/// span destruction on other threads).
void clearTrace();

/// Spans dropped because a per-thread buffer hit its cap (bounded memory:
/// kMaxEventsPerThread). Exported into the trace document's metadata.
std::int64_t droppedTraceEvents() noexcept;

#else  // LCLGRID_TELEMETRY_ENABLED == 0: every probe is an inline no-op.

class Counter {
 public:
  Counter() = default;
  void add(std::int64_t) const noexcept {}
  void increment() const noexcept {}
};

class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t) const noexcept {}
  void max(std::int64_t) const noexcept {}
};

class Histogram {
 public:
  Histogram() = default;
  void record(std::int64_t) const noexcept {}
};

inline Counter counter(std::string_view) { return {}; }
inline Gauge gauge(std::string_view) { return {}; }
inline Histogram histogram(std::string_view) { return {}; }

inline bool traceEnabled() noexcept { return false; }
inline void setTraceEnabled(bool) noexcept {}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*) noexcept {}
  explicit ScopedSpan(std::string) noexcept {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};
struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};
struct HistogramValue {
  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};
inline MetricsSnapshot snapshotMetrics() { return {}; }
inline std::string metricsJson() { return {}; }
inline bool writeMetricsFile(const std::string&) { return false; }

struct TraceEvent {
  std::string name;
  int tid = 0;
  std::uint64_t startNs = 0;
  std::uint64_t durNs = 0;
};
inline std::vector<TraceEvent> snapshotTrace() { return {}; }
inline std::string chromeTraceJson() { return {}; }
inline bool writeTraceFile(const std::string&) { return false; }
inline void clearTrace() {}
inline std::int64_t droppedTraceEvents() noexcept { return 0; }

#endif  // LCLGRID_TELEMETRY_ENABLED

}  // namespace lclgrid::support::telemetry

namespace lclgrid {
namespace telemetry = support::telemetry;
}
