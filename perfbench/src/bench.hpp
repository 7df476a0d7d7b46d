// Shared machinery of the repository benchmark (perfbench/run.py drives the
// `lclbench` binary built from this directory): timing helpers, the run's
// outcome and metric sink, the benchmark's own span recorder, and the
// phase interface the three workloads are made of.
//
// Spans are recorded by the benchmark around the public calls it makes into
// each module -- nothing inside src/ is instrumented for it. A per-layer
// call's span is named "<module>.<call>", so a module's self time is the
// summed self time of the spans carrying its prefix. The end-to-end loops'
// spans carry the prefix "e2e." instead: they wrap whole daemon round trips,
// sweeps and ladders, whose work spreads over several modules. Work nested
// inside a library call cannot be attributed to the modules it reaches
// without probes in src/, so a module's self time covers only the calls the
// benchmark makes into it directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/timing.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using lclgrid::support::secondsSince;

/// Median of the values (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1] (0 when empty).
double percentile(std::vector<double> values, double q);

/// The process's file-size limit in bytes (ulimit -f), UINT64_MAX when there
/// is none. Writing past it fails, so the stream files are sized to fit it.
std::uint64_t fileSizeLimit();

// --- hypervisor steal ----------------------------------------------------------
//
// On a 4-vCPU KVM guest the hypervisor stole 0.3-15% of the CPU per run, in
// bursts, and a stretch with heavy steal showed 2-30x round-trip tails and up
// to 5x lower 4-lane verify throughput. Every metric is therefore summarised
// over measurement windows, each of which records the share of the machine's
// CPU time stolen while it ran (/proc/stat); windows above kMaxSteal are
// dropped before the summary, by that measured condition and never by the
// metric's own value, and the dropped count is reported.

/// Steal share above which a window is dropped.
constexpr double kMaxSteal = 0.02;
/// Length of the windows a phase groups short operations into: /proc/stat
/// counts steal in 10 ms ticks, and 0.25 s on 4 vCPUs is 100 of them.
constexpr double kWindowSeconds = 0.25;

/// CPU seconds stolen so far, summed over all CPUs (-1 when /proc/stat has
/// no steal column).
double stolenSeconds();

/// Starts at construction; steal() is the share of the machine's CPU time
/// stolen since then.
class StealClock {
 public:
  StealClock();
  double seconds() const { return secondsSince(start_); }
  double steal() const;

 private:
  Clock::time_point start_;
  double stolen_;
};

/// Which windows a summary keeps: those whose steal is at most kMaxSteal or,
/// when fewer than a quarter of them (at least one) are, the calmest quarter.
std::vector<bool> keptWindows(const std::vector<double>& steals);
/// Share of the windows whose steal is at most kMaxSteal (1 when empty).
double calmShare(const std::vector<double>& steals);

/// Adds one window set's dropped and kept counts to the run's totals, which
/// the traced run reports.
void countWindows(const std::vector<bool>& kept);
std::size_t windowsDropped();
std::size_t windowsKept();

/// One value per measurement window, with the window's steal share.
class Series {
 public:
  void add(double value, double steal) {
    values_.push_back(value);
    steals_.push_back(steal);
  }
  std::size_t size() const { return values_.size(); }
  std::vector<bool> kept() const { return keptWindows(steals_); }
  double calmShare() const { return perfbench::calmShare(steals_); }
  /// Median over the kept windows.
  double median() const;
  void clear() {
    values_.clear();
    steals_.clear();
  }

 private:
  std::vector<double> values_;
  std::vector<double> steals_;
};

/// Phase sizing. A run measures the workload's own phase at kFull and the
/// other two phases at kSide, sized so each of their operations is long
/// enough to time steadily (every run reports every end-to-end metric).
/// --smoke runs all three at kSmoke, in seconds.
enum class Size { kFull, kSide, kSmoke };

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One benchmark run: its arguments, failure accounting and metric sinks.
/// attempt()/wrong() are called from client threads.
class Run {
 public:
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  /// Directory for the labelling files and traces (inside the checkout).
  std::string dataDir;

  /// Counts one operation; `ok` false counts it failed.
  void attempt(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Records a wrong answer: the run is no longer correct and exits non-zero.
  void wrong(const std::string& what);

  std::int64_t attempted() const { return attempted_.load(); }
  std::int64_t failed() const { return failed_.load(); }
  bool correct() const { return correct_.load(); }

  /// End-to-end metrics (untraced) and per-layer metrics (traced run).
  Metrics endToEnd;
  Metrics layers;
  void e2e(const std::string& name, double value, const char* unit) {
    endToEnd[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    layers[name] = Metric{value, unit};
  }

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::mutex logMutex_;
  int logged_ = 0;
};

/// One workload phase. A run sets every phase up several times (setup_s is
/// the median), then measures in slices: the slices of the three phases
/// alternate, so each phase's samples are spread over the whole run and
/// every metric sees the same machine. The traced run also replays the
/// per-layer calls.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Program calls before the first timed operation (daemon start, table
  /// compiles, pool builds, file writes and opens). Returns their seconds.
  virtual double setup(Run& run) = 0;
  /// Releases what setup() built, so setup can be timed again.
  virtual void teardown() = 0;
  /// Measures one slice of about `seconds`, adding to the earlier slices'
  /// samples.
  virtual void measure(Run& run, double seconds) = 0;
  /// The lowest share of calm windows (steal at most kMaxSteal) among the
  /// phase's window sets since the last report.
  virtual double calmShare() const = 0;
  /// Writes the end-to-end metrics of the slices since the last report and
  /// starts over.
  virtual void report(Run& run, Metrics& out) = 0;
  /// The per-layer replays of the traced run.
  virtual void layers(Run& run) = 0;
};

// --- the benchmark's own spans -----------------------------------------------

struct SpanRecord {
  const char* name = "";  // a string literal
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;  // index into the record list, -1 for a root
  std::uint64_t requestId = 0;
  int thread = 0;  // small per-thread number, in order of first span
};

/// Span collection gate, off by default: untraced runs record nothing.
void setTracing(bool on);
bool tracing();
/// All recorded spans (closed ones have endNs >= startNs).
std::vector<SpanRecord> spanRecords();
/// Self time per module (name prefix before the first '.'): each span's
/// duration minus the part of it its child spans cover.
std::map<std::string, double> selfSecondsByModule(
    const std::vector<SpanRecord>& records);
/// Writes the spans as a Chrome trace-event document; false on failure.
bool writeSpans(const std::vector<SpanRecord>& records,
                const std::string& path);

/// RAII span around one call; `name` must be a string literal. The parent
/// is the innermost open span of the calling thread; a zero request id
/// inherits the parent's.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t requestId = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Times one call under a span; returns its seconds.
template <typename F>
double timed(const char* span, F&& call, std::uint64_t requestId = 0) {
  Span scope(span, requestId);
  const auto start = Clock::now();
  call();
  return secondsSince(start);
}

/// Minimum call duration over `reps` calls, each under a span (seconds).
/// The minimum is the layer's cost without scheduler noise.
template <typename F>
double bestOf(int reps, const char* span, F&& call) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const double s = timed(span, call);
    if (s < best) best = s;
  }
  return best;
}

/// Median call duration over `reps` calls, each under a span (seconds).
template <typename F>
double medianOf(int reps, const char* span, F&& call) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) times.push_back(timed(span, call));
  return median(std::move(times));
}

// --- the phases ----------------------------------------------------------------

std::unique_ptr<Phase> makeServePhase(Size size);
std::unique_ptr<Phase> makeVerifyBulkPhase(Size size);
std::unique_ptr<Phase> makeSynthPhase(Size size);

/// A helper process that streams a labelling file and reports its own peak
/// resident set. It is forked at start-up, while the benchmark is small and
/// single-threaded: a process spawned later would inherit the benchmark's
/// in-core labellings in its peak RSS (Linux carries the high-water mark
/// across exec).
namespace stream_probe {
/// Forks the helper; call before any thread starts.
void start();
/// Streams `path` once at `lanes` lanes in the helper. True iff the pass
/// counted `expected` violations; *peakMib is the helper's peak RSS.
bool run(const std::string& path, int lanes, std::int64_t expected,
         double* peakMib);
/// Ends the helper and waits for it.
void stop();
}  // namespace stream_probe

}  // namespace perfbench
