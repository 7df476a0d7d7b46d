// The unified verification front door (lcl/verify_api.hpp) and the only
// verification implementation in the library. verify() lifts a 2D request
// to its d = 2 form (GridLcl::asGridLclD on TorusD(2, n)) at the front
// door, so everything below runs on (TorusD, GridLclD): tier selection in
// selectKernel, then a direct dispatch onto the verifier_detail kernel
// slices through the sharding scheme of engine/shard_detail.hpp -- inline
// for a serial request, chunked across the pool otherwise. The slices check
// the labels they read, so there is no separate range scan (except for a
// tier pin's precondition); a slice's out-of-range sentinel settles in
// verifyLabelling. The single-labelling conveniences at the end only build
// requests.
#include "lcl/verify_api.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>

#include "engine/shard_detail.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/verify_probes.hpp"

namespace lclgrid {

namespace {

namespace sd = engine::shard_detail;

/// The probe tier of an in-core kernel (the enums share their order).
verify_probes::Tier probeTier(VerifyTier tier) {
  static_assert(static_cast<int>(VerifyTier::kFunctional) ==
                    static_cast<int>(verify_probes::Tier::kFunctional) &&
                static_cast<int>(VerifyTier::kTable) ==
                    static_cast<int>(verify_probes::Tier::kTable) &&
                static_cast<int>(VerifyTier::kBitsliced) ==
                    static_cast<int>(verify_probes::Tier::kBitsliced));
  return static_cast<verify_probes::Tier>(tier);
}

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
    return sd::allInRange(pool, grain, torus, lcl.sigma(), labels);
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

/// The bit-sliced pass over one labelling. d = 2 runs the self-contained
/// rolling row kernel on the raw labels (no planes). The staged d >= 3
/// kernel first transposes the labelling into plane buffers (sharded:
/// disjoint line ranges, so the writes are race-free), checking each line
/// as it stages it. A serial early-exit pass stages progressively instead,
/// one outermost-axis block (lines / n lines) ahead of the scan, so a
/// violation in the first block costs O(block) transposition, not O(N):
/// every outer-axis neighbour of a line lies within +-1 block, so the scan
/// of block i only needs blocks i-1, i, i+1 (cyclically) -- the wrap block
/// is staged up front, the rest one block ahead. (A sharded staggered stage
/// would serialise on block order.)
std::int64_t bitslicePass(engine::ThreadPool* pool, std::int64_t grain,
                          const TorusD& torus, const GridLclD& lcl,
                          std::span<const int> labels, bool stopAtFirst) {
  LabelPlanes planes = verifier_detail::bitsliceMakePlanesD(torus, lcl.table());
  const auto slice = [&](std::int64_t begin, std::int64_t end, bool stop) {
    return verifier_detail::bitsliceViolationLinesD(
        lcl.table(), torus, planes, labels.data(), begin, end, stop);
  };
  const std::int64_t lines = verifier_detail::lineCountD(torus);
  const auto stage = [&](std::int64_t begin, std::int64_t end) {
    return verifier_detail::bitsliceStageLinesD(lcl.sigma(), labels, planes,
                                                begin, end);
  };
  if (planes.rows() > 0 && pool == nullptr && stopAtFirst) {
    const std::int64_t blockLines =
        std::max<std::int64_t>(1, lines / torus.n());
    if (!stage(lines - blockLines, lines)) return 1;  // wrap block
    std::int64_t stagedEnd = 0;
    for (std::int64_t begin = 0; begin < lines; begin += blockLines) {
      const std::int64_t end = std::min(begin + blockLines, lines);
      const std::int64_t need = std::min(end + blockLines, lines - blockLines);
      if (need > stagedEnd) {
        if (!stage(stagedEnd, need)) return 1;
        stagedEnd = need;
      }
      if (slice(begin, end, /*stop=*/true) != 0) return 1;
    }
    return 0;
  }
  if (planes.rows() > 0) {
    const std::int64_t staged = sd::runSlices(
        pool, 0, lines, grain, stopAtFirst,
        [&](std::int64_t begin, std::int64_t end, bool) {
          return stage(begin, end) ? std::int64_t{0}
                                   : verifier_detail::kOutOfRange;
        });
    if (staged != 0) return staged;
  }
  return sd::runSlices(pool, 0, lines, grain, stopAtFirst, slice);
}

/// Violations of one labelling on the resolved kernel: the exact count or
/// kOutOfRange, or (stopAtFirst) 0 / 1 with an early exit at the first
/// violation -- cooperatively across shards when pooled.
std::int64_t runKernel(engine::ThreadPool* pool, std::int64_t grain,
                       const TorusD& torus, const GridLclD& lcl,
                       std::span<const int> labels, VerifyTier kernel,
                       bool stopAtFirst) {
  verify_probes::recordCall(probeTier(kernel),
                            static_cast<std::int64_t>(labels.size()));
  telemetry::ScopedSpan span(verify_probes::spanName(probeTier(kernel)));
  switch (kernel) {
    case VerifyTier::kBitsliced:
      return bitslicePass(pool, grain, torus, lcl, labels, stopAtFirst);
    case VerifyTier::kTable:
      return sd::runSlices(
          pool, 0, verifier_detail::lineCountD(torus), grain, stopAtFirst,
          [&](std::int64_t begin, std::int64_t end, bool stop) {
            return verifier_detail::tableViolationLinesD(
                lcl.table(), torus, labels.data(), begin, end, stop);
          });
    default:
      return sd::runSlices(
          pool, 0, static_cast<std::int64_t>(labels.size()),
          sd::nodeGrain(grain, torus), stopAtFirst,
          [&](std::int64_t begin, std::int64_t end, bool stop) {
            return verifier_detail::functionalViolationRangeD(
                torus, lcl, labels, begin, end, stop);
          });
  }
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
  if (violations != verifier_detail::kOutOfRange) return violations;
  verify_probes::recordRangeFallback();
  tier = VerifyTier::kFunctional;
  return runKernel(pool, grain, torus, lcl, labels, tier, stopAtFirst);
}

/// Dispatch of an in-core request (single labelling or batch); fills
/// everything except nanos.
VerifyResult dispatchInCore(const TorusD& torus, const GridLclD& lcl,
                            std::span<const int> labels,
                            const VerifyOptions& options) {
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool =
      handle.pool().lanes() == 1 ? nullptr : &handle.pool();
  const std::int64_t grain = options.engine.grain;
  const bool stopAtFirst = !options.countViolations;

  VerifyResult result;
  const std::size_t count = sd::batchCount(torus, labels);
  result.labellings = static_cast<std::int64_t>(count);
  if (count == 0) {
    result.feasible = true;
    return result;
  }
  if (count == 1) {
    sd::checkLabelling(torus, lcl, labels);
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
  sd::checkLabelling(torus, lcl, labels.subspan(0, stride));
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

/// Dispatch of a streaming request: one pass of shard_detail's builder,
/// inline on a 1-lane pool, slab-sharded otherwise.
VerifyResult dispatchStream(const StreamLabelling& file, const GridLclD& lcl,
                            const VerifyOptions& options) {
  if (options.tier != TierPin::kAuto) {
    throw std::invalid_argument(
        "verify: streaming requests accept only TierPin::kAuto");
  }
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool =
      handle.pool().lanes() == 1 ? nullptr : &handle.pool();
  VerifyResult result;
  result.tier = VerifyTier::kStream;
  result.violations = sd::shardedStream(pool, options.engine.grain, file, lcl,
                                        options.window,
                                        !options.countViolations);
  result.feasible = result.violations == 0;
  return result;
}

/// The single-labelling conveniences' request: it must not silently turn a
/// whole multiple of the torus size into a batch, hence the size check.
VerifyResult verifyOne(const TorusD& torus, const GridLclD& lcl,
                       std::span<const int> labels,
                       const engine::EngineOptions& engine,
                       bool countViolations) {
  sd::checkLabelling(torus, lcl, labels);
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
    result = dispatchStream(file, lcl, request.options);
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
    result = dispatchInCore(*torus, lcl, request.labels, request.options);
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
