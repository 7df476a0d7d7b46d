// Internal sharding machinery of verify(VerifyRequest) (engine/verify_api.cpp).
// One labelling is sharded into contiguous ranges of axis-0 lines (grid
// rows at d = 2; a chunk of the line space is a slab along the outermost
// axes) -- each shard runs the exact serial kernel slice (lcl/verifier.hpp
// verifier_detail), and per-shard violation counts (or the slices'
// out-of-range sentinel) are combined in chunk order, so every result is
// bit-identical to the serial pass; the determinism tests pin this down for
// 1/2/8 threads.
//
// runSlices is the one place that decides between running a slice inline
// (no pool: the serial path) and chunking it across a pool; the in-core
// dispatch and the streaming pass builder (shardedStream) both go through
// it. Everything here works on (TorusD, GridLclD): verify() lifts a 2D
// request to its d = 2 form first, and the d = 2 line slices delegate to
// the 2D row kernels, so the sharding scheme exists once.
//
// NOT a stable API: include it only from src/engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "engine/thread_pool.hpp"
#include "grid/torusd.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"

namespace lclgrid::engine::shard_detail {

/// Labelling size validation, including the torus/problem dimension match.
inline void checkLabelling(const TorusD& torus, const GridLclD& lcl,
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
inline std::size_t batchCount(const TorusD& torus,
                              std::span<const int> labelsBatch) {
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  if (stride == 0 || labelsBatch.size() % stride != 0) {
    throw std::invalid_argument(
        "verifier: batch size is not a multiple of torus.size()");
  }
  return labelsBatch.size() / stride;
}

/// EngineOptions::grain counts lines for a single labelling; the
/// functional fallback shards by node index, so the line grain is scaled
/// by the line length to keep the chunk payload (and hence the scheduling
/// overhead) identical on both paths.
inline std::int64_t nodeGrain(std::int64_t lineGrain, const TorusD& torus) {
  return lineGrain > 0 ? lineGrain * torus.n() : 0;
}

// --- the sharding scheme ---------------------------------------------------

/// Violations of slice(begin, end, stopAtFirst) over items [begin, end).
/// No pool: one inline call, the serial path. With a pool: chunks of
/// `grain` items run across it. A slice may return kOutOfRange instead of
/// a count. With stopAtFirst the chunks cooperatively early-exit after the
/// first violation or out-of-range label and the result is 0 or 1 (an
/// out-of-range label is a violated node). Otherwise counts are summed in
/// chunk order and any kOutOfRange chunk makes the result kOutOfRange
/// (later chunks skip their work) -- scheduling-independent either way.
template <typename Slice>
std::int64_t runSlices(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                       std::int64_t grain, bool stopAtFirst,
                       const Slice& slice) {
  using verifier_detail::kOutOfRange;
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
inline bool allInRange(ThreadPool* pool, std::int64_t grain,
                       const TorusD& torus, int sigma,
                       std::span<const int> labels) {
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

// --- streaming (out-of-core) passes ----------------------------------------
// The slab walk itself (window geometry, drop-behind, functional restart,
// checkpoints) is stream_verify_detail::runStreamPass;
// this builder supplies its per-slab callbacks, which run the in-core
// slices through runSlices -- inline without a pool, chunk-ordered across
// one with it -- so counts are bit-identical to the in-core engine at every
// thread count.

/// One streaming pass over `file`, validated against the problem here;
/// `pool` may be null for the serial pass.
inline std::int64_t shardedStream(ThreadPool* pool, std::int64_t grain,
                                  const StreamLabelling& file,
                                  const GridLclD& lcl,
                                  const StreamWindow& window,
                                  bool stopAtFirst) {
  stream_verify_detail::checkStreamD(file, lcl);
  const TorusD torus(file.dims(), file.n());
  const int n = file.n();
  const int* labels = file.labels();
  const std::span<const int> all(labels,
                                 static_cast<std::size_t>(file.size()));
  stream_verify_detail::StreamPass pass;
  pass.file = &file;
  pass.window =
      stream_verify_detail::resolveWindowRows(n, file.lines(), window.rows);
  pass.wrapKeep = stream_verify_detail::wrapWindowRows(file.dims(), n);
  pass.dropBehind = window.dropBehind;
  pass.tablePath = lcl.hasTable();
  if (!window.checkpointPath.empty()) {
    pass.checkpointPath = window.checkpointPath;
    pass.checkpointEverySlabs = std::max(1LL, window.checkpointEverySlabs);
    // The labelling fingerprint is computed only when checkpointing is on.
    pass.labellingFingerprint = file.fingerprint();
    pass.problemFingerprint =
        lcl.hasTable() ? lcl.table().fingerprint() : 0;
  }
  if (pass.tablePath) {
    // Streaming selects the bit-sliced tier only where it needs no plane
    // staging (d = 2), so the slices read the raw mapped labels.
    const bool sliced = stream_verify_detail::streamUsesBitslice(file, lcl);
    static const LabelPlanes kNoPlanes;
    pass.kernelRows = [pool, grain, &torus, &lcl, labels, sliced](
                          long long begin, long long end, bool stop) {
      return runSlices(
          pool, begin, end, grain, stop,
          [&](std::int64_t s, std::int64_t t, bool first) {
            return sliced ? verifier_detail::bitsliceViolationLinesD(
                                lcl.table(), torus, kNoPlanes, labels, s, t,
                                first)
                          : verifier_detail::tableViolationLinesD(
                                lcl.table(), torus, labels, s, t, first);
          });
    };
  }
  pass.functionalRows = [pool, grain, &torus, &lcl, all, n](
                            long long begin, long long end, bool stop) {
    return runSlices(pool, begin * n, end * n, nodeGrain(grain, torus), stop,
                     [&](std::int64_t s, std::int64_t t, bool first) {
                       return verifier_detail::functionalViolationRangeD(
                           torus, lcl, all, s, t, first);
                     });
  };
  return stream_verify_detail::runStreamPass(pass, stopAtFirst);
}

}  // namespace lclgrid::engine::shard_detail
