// The unified verification front door (lcl/verify_api.hpp) and the only
// verification implementation in the library. verify() lifts a 2D request
// to its d = 2 form (GridLcl::asGridLclD on TorusD(2, n)) at the front
// door and views a labelling file as a TorusD plus its mapped labels, so
// everything below runs on (TorusD, GridLclD, labels): tier selection in
// selectKernel, then one line runner (runLines) over the verifier_detail
// kernel slices -- inline for a serial request, chunked across the pool
// otherwise. An in-core labelling runs it over all its lines at once, a
// file slab by slab (filePass). The slices check the labels they read, so
// there is no separate range scan (except for a tier pin's precondition);
// a slice's out-of-range sentinel settles in verifyLabelling and filePass.
// The single-labelling conveniences at the end only build requests.
#include "lcl/verify_api.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/verifier.hpp"
#include "support/faultpoint.hpp"
#include "support/telemetry.hpp"
#include "support/timing.hpp"

namespace lclgrid {

namespace {

using verifier_detail::kOutOfRange;

// --- request shape ----------------------------------------------------------

/// Labelling size validation, including the torus/problem dimension match.
void checkLabelling(const TorusD& torus, const GridLclD& lcl,
                    std::span<const int> labels) {
  if (torus.dims() != lcl.dims()) {
    throw std::invalid_argument("verifier: torus/problem dimension mismatch");
  }
  if (static_cast<long long>(labels.size()) != torus.size()) {
    throw std::invalid_argument("verifier: labelling size mismatch");
  }
}

/// Number of labellings in a back-to-back batch; throws when the batch is
/// not a whole number of tori.
std::size_t batchCount(const TorusD& torus, std::span<const int> labelsBatch) {
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  if (stride == 0 || labelsBatch.size() % stride != 0) {
    throw std::invalid_argument(
        "verifier: batch size is not a multiple of torus.size()");
  }
  return labelsBatch.size() / stride;
}

/// A labelling file's dims and sigma must match the problem's. Node ids
/// are 64-bit on every dimension.
void checkFile(const StreamLabelling& file, const GridLclD& lcl) {
  if (file.dims() != lcl.dims()) {
    throw std::invalid_argument(
        "stream verify: file dims " + std::to_string(file.dims()) +
        " does not match problem dims " + std::to_string(lcl.dims()));
  }
  if (file.sigma() != lcl.sigma()) {
    throw std::invalid_argument(
        "stream verify: file sigma " + std::to_string(file.sigma()) +
        " does not match problem sigma " + std::to_string(lcl.sigma()));
  }
}

/// EngineOptions::grain counts lines for a single labelling; the
/// functional fallback shards by node index, so the line grain is scaled
/// by the line length to keep the chunk payload (and hence the scheduling
/// overhead) identical on both paths.
std::int64_t nodeGrain(std::int64_t lineGrain, const TorusD& torus) {
  return lineGrain > 0 ? lineGrain * torus.n() : 0;
}

// --- the sharding scheme ----------------------------------------------------
// One labelling is sharded into contiguous ranges of axis-0 lines (grid
// rows at d = 2; a range of the line space is a slab along the outermost
// axes). Each shard runs the exact serial kernel slice, and per-shard
// violation counts (or the slices' out-of-range sentinel) are combined in
// chunk order, so every result is bit-identical to the serial pass; the
// determinism tests pin this down for 1/2/8 threads.

/// Violations of slice(begin, end, stopAtFirst) over items [begin, end).
/// No pool: one inline call, the serial path. With a pool: chunks of
/// `grain` items run across it. A slice may return kOutOfRange instead of
/// a count. With stopAtFirst the chunks cooperatively early-exit after the
/// first violation or out-of-range label and the result is 0 or 1 (an
/// out-of-range label is a violated node). Otherwise counts are summed in
/// chunk order and any kOutOfRange chunk makes the result kOutOfRange
/// (later chunks skip their work) -- scheduling-independent either way.
template <typename Slice>
std::int64_t runSlices(engine::ThreadPool* pool, std::int64_t begin,
                       std::int64_t end, std::int64_t grain, bool stopAtFirst,
                       const Slice& slice) {
  if (pool == nullptr) {
    const std::int64_t violations = slice(begin, end, stopAtFirst);
    return stopAtFirst && violations != 0 ? 1 : violations;
  }
  std::atomic<bool> stop{false};
  if (!stopAtFirst) {
    return pool->parallelReduce(
        begin, end, grain, std::int64_t{0},
        [&](std::int64_t s, std::int64_t t) {
          if (stop.load(std::memory_order_relaxed)) return kOutOfRange;
          const std::int64_t violations = slice(s, t, false);
          if (violations == kOutOfRange) {
            stop.store(true, std::memory_order_relaxed);
          }
          return violations;
        },
        [](std::int64_t a, std::int64_t b) {
          return a == kOutOfRange || b == kOutOfRange ? kOutOfRange : a + b;
        });
  }
  pool->parallelFor(begin, end, grain, [&](std::int64_t s, std::int64_t t) {
    if (stop.load(std::memory_order_relaxed)) return;
    if (slice(s, t, true) != 0) stop.store(true, std::memory_order_relaxed);
  });
  return stop.load() ? 1 : 0;
}

/// A tier pin's precondition: every label in [0, sigma). Sharded with a
/// pool, with chunks after the first out-of-range find returning
/// immediately. Automatic selection runs no such scan: the kernel slices
/// check the rows they read.
bool allInRange(engine::ThreadPool* pool, std::int64_t grain,
                const TorusD& torus, int sigma, std::span<const int> labels) {
  return runSlices(pool, 0, static_cast<std::int64_t>(labels.size()),
                   nodeGrain(grain, torus), /*stopAtFirst=*/true,
                   [&](std::int64_t begin, std::int64_t end, bool) {
                     return verifier_detail::allLabelsInRange(
                                sigma,
                                labels.subspan(
                                    static_cast<std::size_t>(begin),
                                    static_cast<std::size_t>(end - begin)))
                                ? std::int64_t{0}
                                : std::int64_t{1};
                   }) == 0;
}

// --- kernel-tier attribution (support/telemetry.hpp) ------------------------
// The four tiers share one set of counter names; all of this compiles to
// nothing with -DLCLGRID_TELEMETRY=OFF.

/// Span name for a tier's pass ('/'-separated span naming scheme,
/// docs/observability.md). String literals: safe to hand to ScopedSpan.
const char* spanName(VerifyTier tier) {
  static constexpr const char* kNames[4] = {
      "verify/functional", "verify/table", "verify/bitsliced", "verify/stream"};
  return kNames[static_cast<std::size_t>(tier)];
}

/// Attributes one pass to the tier it dispatched to: bumps
/// verify.calls.<tier> and verify.nodes.<tier>, and on the bit-sliced tier
/// also verify.simd.<rung> for the SimdTier ladder rung in effect
/// (individual rows below the width floors still run scalar -- the counter
/// records the dispatched rung, see docs/perf.md).
void recordCall(VerifyTier tier, std::int64_t nodes) {
  namespace tm = telemetry;
  static const tm::Counter calls[4] = {
      tm::counter("verify.calls.functional"),
      tm::counter("verify.calls.table"), tm::counter("verify.calls.bitsliced"),
      tm::counter("verify.calls.stream")};
  static const tm::Counter nodeCounts[4] = {
      tm::counter("verify.nodes.functional"),
      tm::counter("verify.nodes.table"), tm::counter("verify.nodes.bitsliced"),
      tm::counter("verify.nodes.stream")};
  const auto index = static_cast<std::size_t>(tier);
  calls[index].increment();
  nodeCounts[index].add(nodes);
  if (tier == VerifyTier::kBitsliced) {
    static const tm::Counter simd[3] = {tm::counter("verify.simd.scalar"),
                                        tm::counter("verify.simd.avx2"),
                                        tm::counter("verify.simd.avx512")};
    simd[static_cast<std::size_t>(bitslice::simdTier())].increment();
  }
}

/// Bumps verify.range_fallbacks: a kernel slice met a label outside
/// [0, sigma) and a count request (in-core or file) reruns on the
/// functional tier -- the trace's answer to why the functional tier ran.
void recordRangeFallback() {
  static const telemetry::Counter fallbacks =
      telemetry::counter("verify.range_fallbacks");
  fallbacks.increment();
}

// --- kernels ----------------------------------------------------------------

/// Plan existence for a kBitsliced pin: independent of the LCLGRID_BITSLICE
/// gate and the node floor (pins bypass both; the plan itself is compiled
/// unconditionally when the relation fits a plan shape). d = 2 reads the
/// delegated 2D table's plan.
bool hasBitslicePlan(const GridLclD& lcl) {
  if (!lcl.hasTable()) return false;
  if (const LclTable* table2d = lcl.table().as2d()) {
    return table2d->bitslicePlan() != nullptr;
  }
  return lcl.table().bitslicePlanD() != nullptr;
}

/// The kernel tier of one labelling -- the only place the engine selects
/// one. Automatic selection reads no labels (the kernel slices check the
/// rows they read); a pinned table or bit-sliced tier validates its
/// precondition with a range scan, sharded when `pool` is attached (null
/// for serial execution).
VerifyTier selectKernel(engine::ThreadPool* pool, std::int64_t grain,
                        const TorusD& torus, const GridLclD& lcl,
                        std::span<const int> labels, TierPin pin) {
  const auto labelsInRange = [&] {
    return allInRange(pool, grain, torus, lcl.sigma(), labels);
  };
  switch (pin) {
    case TierPin::kAuto:
      if (!lcl.hasTable()) return VerifyTier::kFunctional;
      return verifier_detail::bitsliceSelected(
                 lcl, static_cast<long long>(labels.size()))
                 ? VerifyTier::kBitsliced
                 : VerifyTier::kTable;
    case TierPin::kFunctional:
      return VerifyTier::kFunctional;
    case TierPin::kTable:
      if (!lcl.hasTable()) {
        throw std::invalid_argument(
            "verify: tier pin kTable needs a compiled table");
      }
      if (!labelsInRange()) {
        throw std::invalid_argument(
            "verify: tier pin kTable needs every label in [0, sigma)");
      }
      return VerifyTier::kTable;
    case TierPin::kBitsliced:
      if (!hasBitslicePlan(lcl)) {
        throw std::invalid_argument(
            "verify: tier pin kBitsliced needs a bit-slice plan");
      }
      if (!labelsInRange()) {
        throw std::invalid_argument(
            "verify: tier pin kBitsliced needs every label in [0, sigma)");
      }
      return VerifyTier::kBitsliced;
  }
  throw std::invalid_argument("verify: unknown tier pin");
}

/// The line runner: violations of axis-0 lines [lineBegin, lineEnd) on
/// `kernel` through runSlices, or kOutOfRange. The bit-sliced slices read
/// `planes` at d >= 3 (staged by the caller) and the raw labels at d = 2;
/// the functional slices shard by node. It records no telemetry, so a
/// whole labelling and each slab of a file run the same code.
std::int64_t runLines(engine::ThreadPool* pool, std::int64_t grain,
                      const TorusD& torus, const GridLclD& lcl,
                      std::span<const int> labels, const LabelPlanes& planes,
                      VerifyTier kernel, std::int64_t lineBegin,
                      std::int64_t lineEnd, bool stopAtFirst) {
  switch (kernel) {
    case VerifyTier::kBitsliced:
      return runSlices(pool, lineBegin, lineEnd, grain, stopAtFirst,
                       [&](std::int64_t begin, std::int64_t end, bool stop) {
                         return verifier_detail::bitsliceViolationLinesD(
                             lcl.table(), torus, planes, labels.data(), begin,
                             end, stop);
                       });
    case VerifyTier::kTable:
      return runSlices(pool, lineBegin, lineEnd, grain, stopAtFirst,
                       [&](std::int64_t begin, std::int64_t end, bool stop) {
                         return verifier_detail::tableViolationLinesD(
                             lcl.table(), torus, labels.data(), begin, end,
                             stop);
                       });
    default:
      return runSlices(pool, lineBegin * torus.n(), lineEnd * torus.n(),
                       nodeGrain(grain, torus), stopAtFirst,
                       [&](std::int64_t begin, std::int64_t end, bool stop) {
                         return verifier_detail::functionalViolationRangeD(
                             torus, lcl, labels, begin, end, stop);
                       });
  }
}

/// The bit-sliced pass over one labelling. d = 2 runs the self-contained
/// rolling row kernel on the raw labels (no planes). The staged d >= 3
/// kernel first transposes the labelling into plane buffers (sharded:
/// disjoint line ranges, so the writes are race-free), checking each line
/// as it stages it. A serial early-exit pass stages progressively instead,
/// one halo block (haloLines) ahead of the scan, so a violation in the
/// first block costs O(block) transposition, not O(N): every outer-axis
/// neighbour of a line lies within +-1 block, so the scan of block i only
/// needs blocks i-1, i, i+1 (cyclically) -- the wrap block is staged up
/// front, the rest one block ahead. (A sharded staggered stage would
/// serialise on block order.)
std::int64_t bitslicePass(engine::ThreadPool* pool, std::int64_t grain,
                          const TorusD& torus, const GridLclD& lcl,
                          std::span<const int> labels, bool stopAtFirst) {
  LabelPlanes planes = verifier_detail::bitsliceMakePlanesD(torus, lcl.table());
  const std::int64_t lines = verifier_detail::lineCountD(torus);
  const auto scan = [&](std::int64_t begin, std::int64_t end, bool stop) {
    return runLines(pool, grain, torus, lcl, labels, planes,
                    VerifyTier::kBitsliced, begin, end, stop);
  };
  const auto stage = [&](std::int64_t begin, std::int64_t end) {
    return verifier_detail::bitsliceStageLinesD(lcl.sigma(), labels, planes,
                                                begin, end);
  };
  if (planes.rows() > 0 && pool == nullptr && stopAtFirst) {
    const std::int64_t blockLines = verifier_detail::haloLines(torus);
    if (!stage(lines - blockLines, lines)) return 1;  // wrap block
    std::int64_t stagedEnd = 0;
    for (std::int64_t begin = 0; begin < lines; begin += blockLines) {
      const std::int64_t end = std::min(begin + blockLines, lines);
      const std::int64_t need = std::min(end + blockLines, lines - blockLines);
      if (need > stagedEnd) {
        if (!stage(stagedEnd, need)) return 1;
        stagedEnd = need;
      }
      if (scan(begin, end, /*stop=*/true) != 0) return 1;
    }
    return 0;
  }
  if (planes.rows() > 0) {
    const std::int64_t staged = runSlices(
        pool, 0, lines, grain, stopAtFirst,
        [&](std::int64_t begin, std::int64_t end, bool) {
          return stage(begin, end) ? std::int64_t{0} : kOutOfRange;
        });
    if (staged != 0) return staged;
  }
  return scan(0, lines, stopAtFirst);
}

/// Violations of one labelling on the resolved kernel: the exact count or
/// kOutOfRange, or (stopAtFirst) 0 / 1 with an early exit at the first
/// violation -- cooperatively across shards when pooled.
std::int64_t runKernel(engine::ThreadPool* pool, std::int64_t grain,
                       const TorusD& torus, const GridLclD& lcl,
                       std::span<const int> labels, VerifyTier kernel,
                       bool stopAtFirst) {
  recordCall(kernel, static_cast<std::int64_t>(labels.size()));
  telemetry::ScopedSpan span(spanName(kernel));
  if (kernel == VerifyTier::kBitsliced) {
    return bitslicePass(pool, grain, torus, lcl, labels, stopAtFirst);
  }
  return runLines(pool, grain, torus, lcl, labels, LabelPlanes(), kernel, 0,
                  verifier_detail::lineCountD(torus), stopAtFirst);
}

/// One labelling on its selected kernel, settling an out-of-range label: in
/// verify mode runSlices already counts it as a violated node; in count
/// mode the labelling is recounted on the functional tier, which becomes
/// the reported `tier`.
std::int64_t verifyLabelling(engine::ThreadPool* pool, std::int64_t grain,
                             const TorusD& torus, const GridLclD& lcl,
                             std::span<const int> labels, VerifyTier& tier,
                             bool stopAtFirst) {
  const std::int64_t violations =
      runKernel(pool, grain, torus, lcl, labels, tier, stopAtFirst);
  if (violations != kOutOfRange) return violations;
  recordRangeFallback();
  tier = VerifyTier::kFunctional;
  return runKernel(pool, grain, torus, lcl, labels, tier, stopAtFirst);
}

// --- labelling files --------------------------------------------------------

/// Writes the checkpoint after a slab; a failure degrades the pass to "no
/// checkpoint" (counted, never fatal). The stream.checkpoint fault point
/// fires only after a durable write, so abort@nth=K in a crash test kills
/// the pass with exactly K checkpoints on disk.
void checkpointSlab(const std::string& path,
                    const StreamCheckpoint& checkpoint) {
  static const telemetry::Counter written =
      telemetry::counter("stream.checkpoints");
  static const telemetry::Counter failed =
      telemetry::counter("stream.checkpoint_failures");
  if (writeStreamCheckpoint(path, checkpoint)) {
    written.increment();
    (void)FAULT_POINT("stream.checkpoint");
  } else {
    failed.increment();
  }
}

/// One pass over a labelling file, viewed as `torus` + `labels`: the line
/// runner over each slab of axis-0 rows (streamSlabRows), on one kernel
/// for the whole pass, so thread counts cannot diverge. Between slabs the
/// pages behind the cursor are dropped, except the first halo block (the
/// final rows' cyclic neighbours), and a count pass with a checkpoint path
/// records a checkpoint. Verify mode exits at the end of the first slab
/// holding a violation; in count mode a slab meeting an out-of-range label
/// restarts the pass on the functional tier, as verifyLabelling recounts
/// an in-core labelling.
std::int64_t filePass(engine::ThreadPool* pool, std::int64_t grain,
                      const StreamLabelling& file, const TorusD& torus,
                      const GridLclD& lcl, std::span<const int> labels,
                      const StreamWindow& window, bool stopAtFirst) {
  // The in-core rule, except that d >= 3 stays on the table tier: its
  // bit-sliced kernel needs the whole labelling staged into plane buffers,
  // the full-grid allocation a file pass exists to avoid.
  VerifyTier kernel =
      selectKernel(nullptr, grain, torus, lcl, labels, TierPin::kAuto);
  if (kernel == VerifyTier::kBitsliced && torus.dims() > 2) {
    kernel = VerifyTier::kTable;
  }
  const long long lines = file.lines();
  const long long slabRows = streamSlabRows(file.n(), lines, window.rows);
  const long long halo = verifier_detail::haloLines(torus);
  // Checkpointing covers count passes only: verify early-exits, is cheap
  // to rerun, and its "first violation" short-circuit would make resumed
  // totals meaningless.
  const bool checkpointing = !stopAtFirst && !window.checkpointPath.empty();

  // Streaming-tier attribution and the bounded-memory gauges: one call per
  // pass, slabs and dropped rows as they stream by, and the process RSS
  // high-water after the pass (the docs/perf.md bounded-window claim in
  // gauge form).
  recordCall(VerifyTier::kStream, file.size());
  telemetry::ScopedSpan passSpan(spanName(VerifyTier::kStream));
  static const telemetry::Counter slabCounter =
      telemetry::counter("stream.slabs");
  static const telemetry::Counter droppedRows =
      telemetry::counter("stream.rows_dropped");
  static const telemetry::Counter resumeCounter =
      telemetry::counter("stream.resumes");
  static const telemetry::Gauge rssGauge =
      telemetry::gauge("stream.peak_rss_kb");
  struct RssAtExit {
    const telemetry::Gauge& gauge;
    ~RssAtExit() { gauge.max(support::peakRssKb()); }
  } rssAtExit{rssGauge};

  // Resume: a fingerprint-matching checkpoint restores the cursor and the
  // running total. Bit-identity needs no slab alignment -- totals are
  // exact int64 sums over disjoint row ranges, so any partition of
  // [0, lines) yields the identical count.
  StreamCheckpoint record;
  long long startRow = 0;
  std::int64_t startTotal = 0;
  bool resumeFunctional = false;
  if (checkpointing) {
    record.labellingFingerprint = file.fingerprint();
    record.problemFingerprint = lcl.hasTable() ? lcl.table().fingerprint() : 0;
    if (const auto loaded = loadStreamCheckpoint(window.checkpointPath)) {
      if (loaded->labellingFingerprint == record.labellingFingerprint &&
          loaded->problemFingerprint == record.problemFingerprint &&
          loaded->nextRow <= lines &&
          (loaded->functionalPhase || kernel != VerifyTier::kFunctional)) {
        startRow = loaded->nextRow;
        startTotal = loaded->total;
        resumeFunctional = loaded->functionalPhase;
        resumeCounter.increment();
      }
    }
  }

  // One slab walk on `tier`, resumable at `from` with running `total`;
  // nullopt when a slab met an out-of-range label (count mode; functional
  // slices judge every label themselves and never do).
  const LabelPlanes noPlanes;  // d = 2 bit-sliced slices read the labels
  const auto walk = [&](VerifyTier tier, long long from,
                        std::int64_t total) -> std::optional<std::int64_t> {
    long long dropCursor = std::max(halo, from);  // rows [0, halo) stay
    for (long long begin = from; begin < lines; begin += slabRows) {
      const long long end = std::min(lines, begin + slabRows);
      std::int64_t violations;
      {
        slabCounter.increment();
        telemetry::ScopedSpan slabSpan("stream/slab");
        (void)FAULT_POINT("stream.slab");
        violations = runLines(pool, grain, torus, lcl, labels, noPlanes,
                              tier, begin, end, stopAtFirst);
      }
      if (violations == kOutOfRange) return std::nullopt;
      total += violations;
      if (stopAtFirst && total > 0) return total;
      const long long dropEnd = end - halo;
      if (dropEnd > dropCursor) {
        file.dropRows(dropCursor, dropEnd);
        droppedRows.add(dropEnd - dropCursor);
        dropCursor = dropEnd;
      }
      if (checkpointing) {
        record.functionalPhase = tier == VerifyTier::kFunctional;
        record.nextRow = end;
        record.total = total;
        checkpointSlab(window.checkpointPath, record);
      }
    }
    return total;
  };

  std::optional<std::int64_t> total =
      walk(resumeFunctional ? VerifyTier::kFunctional : kernel, startRow,
           startTotal);
  if (!total) {
    // An out-of-range label surfaced mid-file (count passes): the whole
    // pass restarts on the functional tier, mirroring the in-core
    // functional recount (dropped pages are simply paged back in). A crash
    // between the fallback and the first functional checkpoint resumes on
    // the selected kernel, rediscovers the label and falls back again --
    // always to the same functional-from-zero restart.
    recordRangeFallback();
    total = walk(VerifyTier::kFunctional, 0, 0);
  }
  // A verify pass that stopped early never checkpoints, so this removes
  // only a finished count pass's record.
  if (checkpointing) removeStreamCheckpoint(window.checkpointPath);
  return *total;
}

// --- dispatch ---------------------------------------------------------------

/// The dispatch of every request: one labelling, a back-to-back batch, or
/// a labelling file (`file` set, viewed as `torus` + `labels`). Fills
/// everything except nanos.
VerifyResult dispatch(const TorusD& torus, const GridLclD& lcl,
                      std::span<const int> labels, const StreamLabelling* file,
                      const VerifyOptions& options) {
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool =
      handle.pool().lanes() == 1 ? nullptr : &handle.pool();
  const std::int64_t grain = options.engine.grain;
  const bool stopAtFirst = !options.countViolations;

  VerifyResult result;
  if (file != nullptr) {
    result.tier = VerifyTier::kStream;
    result.violations = filePass(pool, grain, *file, torus, lcl, labels,
                                 options.window, stopAtFirst);
    result.feasible = result.violations == 0;
    return result;
  }
  const std::size_t count = batchCount(torus, labels);
  result.labellings = static_cast<std::int64_t>(count);
  if (count == 0) {
    result.feasible = true;
    return result;
  }
  if (count == 1) {
    checkLabelling(torus, lcl, labels);
    result.tier = selectKernel(pool, grain, torus, lcl, labels, options.tier);
    result.violations = verifyLabelling(pool, grain, torus, lcl, labels,
                                        result.tier, stopAtFirst);
    result.feasible = result.violations == 0;
    return result;
  }

  // Batch: one labelling per work item (grain counts labellings), each
  // selecting its own kernel (and falling back on its own) and running
  // serially. The reported tier is the first labelling's.
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  checkLabelling(torus, lcl, labels.subspan(0, stride));
  std::vector<std::int64_t> violations(count, 0);
  const auto oneLabelling = [&](std::size_t i) {
    const std::span<const int> sub = labels.subspan(i * stride, stride);
    VerifyTier kernel =
        selectKernel(nullptr, grain, torus, lcl, sub, options.tier);
    violations[i] =
        verifyLabelling(nullptr, grain, torus, lcl, sub, kernel, stopAtFirst);
    if (i == 0) result.tier = kernel;
  };
  if (pool != nullptr) {
    pool->parallelFor(0, static_cast<std::int64_t>(count), grain,
                      [&](std::int64_t begin, std::int64_t end) {
                        for (std::int64_t i = begin; i < end; ++i) {
                          oneLabelling(static_cast<std::size_t>(i));
                        }
                      });
  } else {
    for (std::size_t i = 0; i < count; ++i) oneLabelling(i);
  }
  // In verify mode each infeasible labelling contributes its early exit's
  // 1, so the total counts infeasible labellings.
  for (std::int64_t v : violations) result.violations += v;
  result.feasible = result.violations == 0;
  if (options.countViolations) {
    result.violationsPerLabelling = std::move(violations);
  } else {
    result.feasiblePerLabelling.reserve(count);
    for (std::int64_t v : violations) {
      result.feasiblePerLabelling.push_back(v == 0 ? 1 : 0);
    }
  }
  return result;
}

/// The single-labelling conveniences' request: it must not silently turn a
/// whole multiple of the torus size into a batch, hence the size check.
VerifyResult verifyOne(const TorusD& torus, const GridLclD& lcl,
                       std::span<const int> labels,
                       const engine::EngineOptions& engine,
                       bool countViolations) {
  checkLabelling(torus, lcl, labels);
  VerifyRequest request;
  request.problemD = &lcl;
  request.torusD = &torus;
  request.labels = labels;
  request.options.countViolations = countViolations;
  request.options.engine = engine;
  return verify(request);
}

}  // namespace

const char* verifyTierName(VerifyTier tier) {
  switch (tier) {
    case VerifyTier::kFunctional:
      return "functional";
    case VerifyTier::kTable:
      return "table";
    case VerifyTier::kBitsliced:
      return "bitsliced";
    case VerifyTier::kStream:
      return "stream";
  }
  return "unknown";
}

VerifyResult verify(const VerifyRequest& request) {
  // --- resolve the problem: a 2D problem runs as its d = 2 form -----------
  if (request.problem != nullptr && request.problemD != nullptr) {
    throw std::invalid_argument(
        "verify: request names both a 2D and a d-dimensional problem");
  }
  if (request.problem == nullptr && request.problemD == nullptr) {
    throw std::invalid_argument("verify: request names no problem");
  }
  const GridLclD& lcl = request.problem != nullptr
                            ? request.problem->asGridLclD()
                            : *request.problemD;

  // --- resolve the instance -------------------------------------------------
  const bool hasFile = request.file != nullptr;
  const bool hasPath = !request.labellingPath.empty();
  const bool hasInline = request.torus != nullptr || request.torusD != nullptr;
  if (static_cast<int>(hasFile) + static_cast<int>(hasPath) +
          static_cast<int>(hasInline) !=
      1) {
    throw std::invalid_argument(
        "verify: request needs exactly one instance (torus labels, an open "
        "labelling, or a labelling path)");
  }

  VerifyResult result;
  const auto started = std::chrono::steady_clock::now();
  if (hasFile || hasPath) {
    // StreamLabelling's constructor validates the header (std::runtime_error
    // on bad magic / truncation), matching the documented error contract.
    std::optional<StreamLabelling> opened;
    if (hasPath) opened.emplace(request.labellingPath);
    const StreamLabelling& file = hasPath ? *opened : *request.file;
    if (request.options.tier != TierPin::kAuto) {
      throw std::invalid_argument(
          "verify: streaming requests accept only TierPin::kAuto");
    }
    checkFile(file, lcl);
    const TorusD torus(file.dims(), file.n());
    const std::span<const int> labels(file.labels(),
                                      static_cast<std::size_t>(file.size()));
    result = dispatch(torus, lcl, labels, &file, request.options);
  } else {
    std::optional<TorusD> lifted;
    const TorusD* torus = request.torusD;
    if (request.problem != nullptr) {
      if (request.torus == nullptr) {
        throw std::invalid_argument(
            "verify: a 2D problem needs VerifyRequest::torus");
      }
      torus = &lifted.emplace(2, request.torus->n());
    } else if (torus == nullptr) {
      throw std::invalid_argument(
          "verify: a d-dimensional problem needs VerifyRequest::torusD");
    }
    result = dispatch(*torus, lcl, request.labels, nullptr, request.options);
  }
  result.nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  result.fingerprint = lcl.hasTable() ? lcl.table().fingerprint() : 0;
  return result;
}

bool verify(const Torus2D& torus, const GridLcl& lcl,
            std::span<const int> labels, const engine::EngineOptions& engine) {
  return verifyOne(TorusD(2, torus.n()), lcl.asGridLclD(), labels, engine,
                   false)
      .feasible;
}

std::int64_t countViolations(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels,
                             const engine::EngineOptions& engine) {
  return verifyOne(TorusD(2, torus.n()), lcl.asGridLclD(), labels, engine,
                   true)
      .violations;
}

bool verify(const TorusD& torus, const GridLclD& lcl,
            std::span<const int> labels, const engine::EngineOptions& engine) {
  return verifyOne(torus, lcl, labels, engine, false).feasible;
}

std::int64_t countViolations(const TorusD& torus, const GridLclD& lcl,
                             std::span<const int> labels,
                             const engine::EngineOptions& engine) {
  return verifyOne(torus, lcl, labels, engine, true).violations;
}

}  // namespace lclgrid
