// The verification front door: the one implementation behind every check
// of a labelling in the library. A request names the problem, the
// instance (inline labels, a back-to-back batch, or an LCLLABv1 file) and
// the options; verify() selects the kernel tier and the regime (serial or
// pool-sharded) and dispatches. A file is mapped and viewed as a TorusD
// plus its labels, and runs the same dispatch slab by slab (out-of-core
// streaming):
//
//   VerifyRequest request;
//   request.problem = &lcl;            // or problemD (with torusD)
//   request.torus = &torus;
//   request.labels = labels;           // one labelling, or a back-to-back
//   request.options.countViolations = true;       //   batch, or a file
//   VerifyResult result = verify(request);
//   // result.feasible, result.violations, result.tier, result.nanos
//
// 2D is d = 2: verify() lifts a 2D request once, at the front door, to its
// d = 2 form (GridLcl::asGridLclD on a TorusD(2, n)), and from there only
// the d-dimensional engine runs -- one set of tier, sharding and streaming
// rules, whose d = 2 slices delegate to the 2D row kernels. The lift shares
// the compiled table and keeps the 2D predicate's verdicts, so counts,
// tiers and the fingerprint (LclTable::fingerprint()) are the 2D ones.
//
// Semantics: verify-mode early-exits at the first violation (first
// violating 64-node word on the bit-sliced tier, first violating shard
// chunk when threaded, first violating slab when streaming); count-mode
// scans everything and reports the exact total. A label outside [0, sigma)
// is a violated node. There is no separate range scan: each table or
// bit-sliced kernel slice checks the rows it reads just before first use,
// and one that meets an out-of-range label stops. Verify mode then answers
// infeasible; count mode recounts that labelling on the functional tier
// (reported as VerifyTier::kFunctional, counted by the
// verify.range_fallbacks telemetry counter), a streaming pass restarting
// on it. Counts are bit-identical on every kernel tier, thread count and
// transport, and the two modes agree on feasibility. The verification
// service daemon (src/service) dispatches exclusively through this entry
// point; the four single-labelling conveniences at the end only fill a
// request.
//
// Tier selection and pinning: by default (TierPin::kAuto) the request runs
// the tier the engine selects per docs/perf.md. A pinned tier runs exactly
// that kernel, bypassing the bit-slice node floor and the LCLGRID_BITSLICE
// gate, and throws std::invalid_argument when the problem/instance cannot
// run it (no compiled table, no bit-slice plan, out-of-range labels -- a
// table or bit-sliced pin scans the labels up front for this).
// Streaming requests (a file or labellingPath) always report
// VerifyTier::kStream and accept only kAuto; the pass itself runs the
// in-core tier the engine selects (the table tier at d >= 3, whose
// bit-sliced kernel would stage the whole labelling).
//
// Thread-safety: verify() only reads the torus, the problem and the label
// buffers; uncompiled problems must carry re-entrant predicates (every
// problem in the library does).
//
// Implemented in src/engine/verify_api.cpp -- link lclgrid_engine (or the
// umbrella `lclgrid` target).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine_options.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/stream_verify.hpp"

namespace lclgrid {

class Torus2D;
class TorusD;

/// The kernel tier a request ran on (docs/perf.md).
enum class VerifyTier { kFunctional, kTable, kBitsliced, kStream };

const char* verifyTierName(VerifyTier tier);

/// Tier pin for VerifyOptions: kAuto selects per the engine's rules; a
/// pinned tier runs exactly that kernel or throws std::invalid_argument.
enum class TierPin { kAuto, kFunctional, kTable, kBitsliced };

struct VerifyOptions {
  /// false: decide feasibility, early-exit at the first violation (the
  /// `violations` field is then 0 or 1, a lower bound). true: scan
  /// everything, report the exact violation total.
  bool countViolations = false;
  /// Threads / grain / pool for the execution; threads == 1 runs serially
  /// on the caller (the exact serial kernel slices).
  engine::EngineOptions engine{.threads = 1};
  TierPin tier = TierPin::kAuto;
  /// Slab geometry for streaming (file / labellingPath) requests.
  StreamWindow window;
};

struct VerifyRequest {
  // --- problem reference: exactly one of problem / problemD ----------------
  const GridLcl* problem = nullptr;
  const GridLclD* problemD = nullptr;

  // --- instance: inline labels over a torus, or an LCLLABv1 file ------------
  /// Geometry for inline labels (torus for GridLcl, torusD for GridLclD).
  const Torus2D* torus = nullptr;
  const TorusD* torusD = nullptr;
  /// One labelling (labels.size() == torus size) or a back-to-back batch
  /// (a whole multiple); the batch runs one labelling per work item
  /// (EngineOptions::grain then counts labellings).
  std::span<const int> labels;
  /// An already-open LCLLABv1 labelling (streamed zero-copy), or ...
  const StreamLabelling* file = nullptr;
  /// ... a path to open one for the duration of the call.
  std::string labellingPath;

  VerifyOptions options;
};

struct VerifyResult {
  /// True iff every labelling of the request is feasible.
  bool feasible = false;
  /// Total violations across the request: exact when
  /// options.countViolations, otherwise 0 (feasible) or >= 1 (early exit).
  std::int64_t violations = 0;
  /// Labellings covered (1 for single / file requests).
  std::int64_t labellings = 1;
  /// Per-labelling verdicts / counts, filled only for batches
  /// (labellings > 1); single-labelling requests report through the
  /// aggregate fields alone, keeping the hot path allocation-free.
  std::vector<std::uint8_t> feasiblePerLabelling;
  std::vector<std::int64_t> violationsPerLabelling;  // count mode only
  /// The tier the request ran on: kFunctional when a count request
  /// recounted an out-of-range labelling there. Batches select (and fall
  /// back) per labelling and report the first labelling's tier.
  VerifyTier tier = VerifyTier::kFunctional;
  /// Fingerprint of the problem's compiled table (0 when uncompiled); a
  /// 2D problem reports LclTable::fingerprint().
  std::uint64_t fingerprint = 0;
  /// Wall time of the dispatch (excluding request validation), for the
  /// service's latency accounting.
  std::int64_t nanos = 0;
};

/// The one verification entry point: validates the request, lifts a 2D
/// request to d = 2, resolves the instance, selects (or honours the
/// pinned) kernel tier and dispatches. Throws std::invalid_argument on
/// malformed requests (no/ambiguous problem, missing instance, size or
/// dimension mismatches, unsatisfiable tier pin) and std::runtime_error
/// for unreadable labelling files. Counts are bit-identical across tiers
/// and thread counts.
VerifyResult verify(const VerifyRequest& request);

// --- single-labelling conveniences ------------------------------------------
// Each fills a VerifyRequest for one labelling (labels.size() must equal
// the torus size -- std::invalid_argument otherwise, never a silent batch)
// and returns its verdict / exact violation count. Out-of-alphabet labels
// count as violated nodes.

/// True iff the labelling is a feasible solution of the LCL on the torus.
bool verify(const Torus2D& torus, const GridLcl& lcl,
            std::span<const int> labels,
            const engine::EngineOptions& engine = {.threads = 1});

/// Number of violated node constraints.
std::int64_t countViolations(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels,
                             const engine::EngineOptions& engine = {
                                 .threads = 1});

bool verify(const TorusD& torus, const GridLclD& lcl,
            std::span<const int> labels,
            const engine::EngineOptions& engine = {.threads = 1});

std::int64_t countViolations(const TorusD& torus, const GridLclD& lcl,
                             std::span<const int> labels,
                             const engine::EngineOptions& engine = {
                                 .threads = 1});

}  // namespace lclgrid
