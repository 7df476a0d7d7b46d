#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = std::min(
      values.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

std::uint64_t fileSizeLimit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_FSIZE, &limit) != 0 || limit.rlim_cur == RLIM_INFINITY) return UINT64_MAX;
  return limit.rlim_cur;
}

// --- hypervisor steal ------------------------------------------------------------

namespace {

std::atomic<std::size_t> gWindowsDropped{0};
std::atomic<std::size_t> gWindowsKept{0};

}  // namespace

double stolenSeconds() {
  // The aggregate line: "cpu user nice system idle iowait irq softirq steal".
  std::ifstream stat("/proc/stat");
  std::string label;
  long long ticks[8] = {};
  if (!(stat >> label) || label != "cpu") return -1;
  for (long long& field : ticks) {
    if (!(stat >> field)) return -1;
  }
  static const double kTicksPerSecond = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(ticks[7]) / kTicksPerSecond;
}

StealClock::StealClock() : start_(Clock::now()), stolen_(stolenSeconds()) {}

double StealClock::steal() const {
  const double cpuSeconds = seconds() * std::max(1u, std::thread::hardware_concurrency());
  if (stolen_ < 0 || cpuSeconds <= 0) return 0;
  return std::max(0.0, stolenSeconds() - stolen_) / cpuSeconds;
}

std::vector<bool> keptWindows(const std::vector<double>& steals) {
  std::vector<bool> kept(steals.size());
  std::size_t calm = 0;
  for (std::size_t i = 0; i < steals.size(); ++i) {
    kept[i] = steals[i] <= kMaxSteal;
    calm += kept[i] ? 1 : 0;
  }
  const std::size_t quarter = std::max<std::size_t>(1, steals.size() / 4);
  if (calm < quarter) {
    // A stretch with steal throughout: keep the calmest quarter.
    std::vector<std::size_t> order(steals.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return steals[a] < steals[b]; });
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      kept[order[rank]] = rank < quarter;
    }
  }
  return kept;
}

double calmShare(const std::vector<double>& steals) {
  if (steals.empty()) return 1;
  std::size_t calm = 0;
  for (double steal : steals) calm += steal <= kMaxSteal ? 1 : 0;
  return static_cast<double>(calm) / static_cast<double>(steals.size());
}

void countWindows(const std::vector<bool>& kept) {
  for (bool k : kept) ++(k ? gWindowsKept : gWindowsDropped);
}
std::size_t windowsDropped() { return gWindowsDropped.load(); }
std::size_t windowsKept() { return gWindowsKept.load(); }

double Series::median() const {
  const std::vector<bool> kept = this->kept();
  std::vector<double> values;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (kept[i]) values.push_back(values_[i]);
  }
  return perfbench::median(std::move(values));
}

void Run::wrong(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  correct_.store(false);
  std::lock_guard<std::mutex> lock(logMutex_);
  if (logged_++ < 20) std::fprintf(stderr, "lclbench: WRONG: %s\n", what.c_str());
}

// --- spans ---------------------------------------------------------------------

namespace {

std::atomic<bool> gTracing{false};
std::mutex gSpanMutex;
// A deque: appending never moves the records, so the lock is held briefly.
std::deque<SpanRecord> gSpans;  // guarded by gSpanMutex
thread_local std::vector<int> tOpen;
std::atomic<int> gThreads{0};
thread_local int tThread = 0;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void setTracing(bool on) { gTracing.store(on); }
bool tracing() { return gTracing.load(std::memory_order_relaxed); }

std::vector<SpanRecord> spanRecords() {
  std::lock_guard<std::mutex> lock(gSpanMutex);
  return {gSpans.begin(), gSpans.end()};
}

Span::Span(const char* name, std::uint64_t requestId) {
  if (!tracing()) return;
  const int parent = tOpen.empty() ? -1 : tOpen.back();
  std::lock_guard<std::mutex> lock(gSpanMutex);
  if (requestId == 0 && parent >= 0) {
    requestId = gSpans[static_cast<std::size_t>(parent)].requestId;
  }
  if (tThread == 0) tThread = ++gThreads;
  index_ = static_cast<int>(gSpans.size());
  gSpans.push_back(SpanRecord{name, nowNs(), -1, parent, requestId, tThread});
  tOpen.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = nowNs();
  tOpen.pop_back();
  std::lock_guard<std::mutex> lock(gSpanMutex);
  gSpans[static_cast<std::size_t>(index_)].endNs = end;
}

std::map<std::string, double> selfSecondsByModule(
    const std::vector<SpanRecord>& records) {
  std::vector<std::vector<int>> children(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].parent >= 0) {
      children[static_cast<std::size_t>(records[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& span = records[i];
    if (span.endNs < span.startNs) continue;  // never closed
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (int child : children[i]) {
      const SpanRecord& c = records[static_cast<std::size_t>(child)];
      const std::int64_t begin = std::max(c.startNs, span.startNs);
      const std::int64_t end = std::min(c.endNs, span.endNs);
      if (end > begin) covered.emplace_back(begin, end);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coveredNs = 0;
    std::int64_t reach = span.startNs;
    for (const auto& [begin, end] : covered) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) coveredNs += end - from;
      reach = std::max(reach, end);
    }
    const std::string name = span.name;
    const std::string module = name.substr(0, name.find('.'));
    self[module] += 1e-9 * static_cast<double>(span.endNs - span.startNs -
                                               coveredNs);
  }
  return self;
}

bool writeSpans(const std::vector<SpanRecord>& records,
                const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = records.empty() ? 0 : records.front().startNs;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& span = records[i];
    if (i > 0) out << ',';
    char line[384];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  span.name, span.thread,
                  1e-3 * static_cast<double>(span.startNs - origin),
                  1e-3 * static_cast<double>(span.endNs - span.startNs), i,
                  span.parent,
                  static_cast<unsigned long long>(span.requestId));
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
