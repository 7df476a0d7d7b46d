// Verification of LCL labellings on tori: the locally checkable predicate is
// evaluated at every node. Used as the ground truth behind every algorithm
// and every synthesis result in the library.
//
// This header holds two things:
//  * diagnostics (listViolations / renderLabelling) -- per-node reports with
//    coordinates and label names, for tests and debugging; listViolations
//    is also the tests' independent oracle on both torus families;
//  * the kernel slices (verifier_detail) of the three in-core tiers (see
//    docs/perf.md for the selection rules and measurements):
//     - functional -- the predicate loop, for uncompiled problems, and
//       the count-mode recount of a labelling with out-of-alphabet labels;
//     - row-pointer -- one compiled-table row load and a bit test per node;
//     - bit-sliced -- for small alphabets the labelling is transposed into
//       bit-planes (lcl/label_planes.hpp) and one uint64_t operation
//       decides 64 nodes, via the plan the table synthesised at compile
//       time. Every tier produces identical counts.
//
// The slices are d-dimensional, over axis-0 lines of a TorusD. A 2D
// problem runs as its d = 2 form (GridLcl::asGridLclD), whose table and
// bit-sliced line slices delegate to the 2D row kernels
// (tableViolationRows, bitsliceViolationRows) on the shared LclTable.
//
// Verification itself -- tier selection, sharding, batches and labelling
// files -- is verify(VerifyRequest) in lcl/verify_api.hpp, which runs these
// slices over a whole labelling or, for a file, slab by slab; so do its
// single-labelling verify / countViolations conveniences.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"

namespace lclgrid {

struct Violation {
  /// Linear node id; wide enough for TorusD instances beyond 2^31 nodes.
  long long node = -1;
  std::string description;
};

/// All violated node constraints (empty means the labelling is feasible).
std::vector<Violation> listViolations(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labels,
                                      int maxReported = 16);

/// All violated node constraints on a d-dimensional torus.
std::vector<Violation> listViolations(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labels,
                                      int maxReported = 16);

/// Row-range and node-range slices of the kernels, exposed so
/// verify(VerifyRequest) runs the exact same code serially and per shard.
/// Not part of the stable API.
namespace verifier_detail {

/// What a table or bit-sliced slice returns instead of a count when a
/// label it reads lies outside [0, sigma). Each slice checks every row (or
/// axis-0 line) it reads once, just before first use, so an out-of-range
/// label never indexes a table row; the engine turns the sentinel into an
/// infeasible verdict (verify mode) or a functional recount (count mode).
inline constexpr std::int64_t kOutOfRange = -1;

/// True iff every label lies in [0, sigma): the branch-free, vectorised
/// check the table slices run per row and tier pins run over the labelling
/// (the bit-sliced slices fold it into their transpose / packing loads).
bool allLabelsInRange(int sigma, std::span<const int> labels);

/// Violations of the compiled-table kernel on grid rows [yBegin, yEnd),
/// or kOutOfRange. stopAtFirst returns at most 1.
std::int64_t tableViolationRows(const LclTable& table, int n,
                                const int* labels, int yBegin, int yEnd,
                                bool stopAtFirst);

/// Violations of the bit-sliced kernel on grid rows [yBegin, yEnd) of an
/// nRows x n row-major labelling (rows wrap cyclically), or kOutOfRange;
/// the table must carry a plan. Rows are transposed into rolling
/// bit-plane (or packed-nibble) buffers internally, so a shard is
/// self-contained. stopAtFirst returns at most 1, deciding per 64-node
/// word. Counts are bit-identical to tableViolationRows.
std::int64_t bitsliceViolationRows(const LclTable& table, int n, int nRows,
                                   const int* labels, int yBegin, int yEnd,
                                   bool stopAtFirst);

/// d-dimensional slices (src/lcl/verifier_d.cpp). A "line" is a contiguous
/// run of n nodes along axis 0; lines are indexed row-major over the outer
/// axes (axis 1 fastest), so a line range is a slab along the outermost
/// axis -- the unit the engine shards across threads.
/// Number of axis-0 lines: torus.size() / torus.n().
long long lineCountD(const TorusD& torus);

/// Lines in one outermost-axis block: n^(dims-2), and 1 for dims <= 2.
/// Every neighbour line of line L lies within one block of L, cyclically,
/// so this is the halo a slice reads beyond its lines.
long long haloLines(const TorusD& torus);

/// Violations of the compiled-table kernel on lines [lineBegin, lineEnd),
/// or kOutOfRange. Routes d = 2 through tableViolationRows on the
/// delegated LclTable. For d >= 3 the slice checks its lines plus
/// haloLines of halo on each side, cyclically. stopAtFirst returns at
/// most 1.
std::int64_t tableViolationLinesD(const LclTableD& table, const TorusD& torus,
                                  const int* labels, long long lineBegin,
                                  long long lineEnd, bool stopAtFirst);

/// True iff in-range labellings of this d-dimensional problem at this
/// instance size run the bit-sliced kernel: the gate is on, the instance
/// clears the setup floor, and either the d = 2 delegated table carries a
/// 2D plan (the rolling row kernel runs directly on the labels) or the
/// table carries a per-axis plan (the staged line kernel below).
bool bitsliceSelected(const GridLclD& lcl, long long nodes);

/// Plane buffer sized for the staged d >= 3 line kernel (lineCountD rows
/// of torus.n() labels, plan->planes planes). Default-constructed (empty)
/// when the table delegates to 2D -- that path needs no staging.
LabelPlanes bitsliceMakePlanesD(const TorusD& torus, const LclTableD& table);

/// Transposes lines [lineBegin, lineEnd) of the labelling into `planes`
/// -- the staging pass the engine shards separately from the kernel pass
/// -- checking each line just before it is transposed. Returns false,
/// with staging stopped, at the first line holding a label outside
/// [0, sigma).
bool bitsliceStageLinesD(int sigma, std::span<const int> labels,
                         LabelPlanes& planes, long long lineBegin,
                         long long lineEnd);

/// Violations of the bit-sliced kernel on lines [lineBegin, lineEnd), or
/// kOutOfRange. d = 2 tables route through bitsliceViolationRows on the
/// raw labels (planes unused); d >= 3 reads the staged planes, whose
/// labels staging already checked. Counts are bit-identical to
/// tableViolationLinesD.
std::int64_t bitsliceViolationLinesD(const LclTableD& table,
                                     const TorusD& torus,
                                     const LabelPlanes& planes,
                                     const int* labels, long long lineBegin,
                                     long long lineEnd, bool stopAtFirst);

/// Violations of the functional fallback on nodes [vBegin, vEnd), walked
/// along axis-0 lines (the range may start and end mid-line). An
/// out-of-alphabet centre is a violated node; every other node is judged
/// by GridLclD::allows, which sends out-of-range neighbours to the
/// problem's predicate.
std::int64_t functionalViolationRangeD(const TorusD& torus,
                                       const GridLclD& lcl,
                                       std::span<const int> labels,
                                       long long vBegin, long long vEnd,
                                       bool stopAtFirst);

}  // namespace verifier_detail

/// Renders a labelling as an ASCII grid (row y = n-1 on top, matching the
/// north-up orientation), using the problem's label names.
std::string renderLabelling(const Torus2D& torus, const GridLcl& lcl,
                            std::span<const int> labels);

}  // namespace lclgrid
