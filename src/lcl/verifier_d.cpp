// The d-dimensional kernel slices and diagnostics declared in
// lcl/verifier.hpp. The compiled path is a flat line-pointer kernel --
// nodes are walked one axis-0 line (n contiguous labels) at a time, with
// one neighbour line pointer per outer axis recomputed per line, so the
// inner loop is 2d loads, one table-row load and a bit test per node, no
// TorusD::step and no per-node allocation; the functional fallback walks
// the same lines. d = 2 routes through the proven 2D row kernel on the
// delegated LclTable (one 2D code path in the library); every 2D request
// runs here as d = 2. verify(VerifyRequest) (engine/verify_api.cpp) runs
// these slices serially or sharded across a pool, over a whole labelling
// or over the slabs of a labelling file.
#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "lcl/verifier.hpp"

namespace lclgrid {

namespace {

using verifier_detail::kOutOfRange;

/// lineStride[a] = n^(a-1): the distance in line space of a +1 step along
/// outer axis a (axis 1 is the fastest-varying line coordinate); entry 0
/// is unused.
std::vector<long long> outerLineStrides(int dims, int n) {
  std::vector<long long> lineStride(static_cast<std::size_t>(dims), 0);
  long long stride = 1;
  for (int a = 1; a < dims; ++a) {
    lineStride[static_cast<std::size_t>(a)] = stride;
    stride *= n;
  }
  return lineStride;
}

/// Calls f(a, pos, neg) for every outer axis a in [1, dims) with the lines
/// one step from `line` along +a and -a, cyclically.
template <typename F>
void forEachOuterNeighbour(long long line, int n,
                           const std::vector<long long>& lineStride, F&& f) {
  long long rem = line;
  for (std::size_t a = 1; a < lineStride.size(); ++a) {
    const long long ls = lineStride[a];
    const int coord = static_cast<int>(rem % n);
    rem /= n;
    f(static_cast<int>(a), line + (coord + 1 == n ? ls * (1 - n) : ls),
      line + (coord == 0 ? ls * (n - 1) : -ls));
  }
}

/// Table-driven kernel over axis-0 lines [lineBegin, lineEnd) of one
/// labelling, or kOutOfRange. Every neighbour line of line L lies within
/// one halo block (haloLines) of L, cyclically, so the slice checks
/// [lineBegin - block, lineBegin + block) up front and line L + block
/// before line L reads its neighbours; no out-of-range label indexes the
/// table.
template <bool StopAtFirst>
std::int64_t tableViolationLines(const LclTableD& table, const TorusD& torus,
                                 const int* labels, long long lineBegin,
                                 long long lineEnd) {
  const int n = torus.n();
  if (const LclTable* table2d = table.as2d()) {
    return verifier_detail::tableViolationRows(*table2d, n, labels,
                                               static_cast<int>(lineBegin),
                                               static_cast<int>(lineEnd),
                                               StopAtFirst);
  }
  if (lineBegin >= lineEnd) return 0;
  const long long lines = verifier_detail::lineCountD(torus);
  const long long block = verifier_detail::haloLines(torus);
  const auto lineOk = [&](long long line) {
    const long long wrapped = ((line % lines) + lines) % lines;
    return verifier_detail::allLabelsInRange(
        table.sigma(), std::span<const int>(labels + wrapped * n,
                                            static_cast<std::size_t>(n)));
  };
  // A halo that covers the torus is checked whole, each line once.
  const bool whole = lineEnd - lineBegin + 2 * block >= lines;
  const long long checkBegin = whole ? 0 : lineBegin - block;
  const long long checkEnd = whole ? lines : lineBegin + block;
  for (long long line = checkBegin; line < checkEnd; ++line) {
    if (!lineOk(line)) return kOutOfRange;
  }
  const int dims = torus.dims();
  const std::size_t* strides = table.slotStrides();
  const std::uint64_t* rows = table.rowData();
  const std::vector<long long> lineStride = outerLineStrides(dims, n);
  std::vector<const int*> posLine(static_cast<std::size_t>(dims), nullptr);
  std::vector<const int*> negLine(static_cast<std::size_t>(dims), nullptr);
  std::int64_t bad = 0;
  for (long long line = lineBegin; line < lineEnd; ++line) {
    if (!whole && !lineOk(line + block)) return kOutOfRange;
    const int* row = labels + line * n;
    forEachOuterNeighbour(line, n, lineStride,
                          [&](int a, long long pos, long long neg) {
                            posLine[static_cast<std::size_t>(a)] =
                                labels + pos * n;
                            negLine[static_cast<std::size_t>(a)] =
                                labels + neg * n;
                          });
    for (int x = 0; x < n; ++x) {
      std::size_t index =
          strides[0] * static_cast<std::size_t>(row[x + 1 == n ? 0 : x + 1]) +
          strides[1] * static_cast<std::size_t>(row[x == 0 ? n - 1 : x - 1]);
      for (int a = 1; a < dims; ++a) {
        index +=
            strides[2 * a] *
                static_cast<std::size_t>(posLine[static_cast<std::size_t>(a)][x]) +
            strides[2 * a + 1] *
                static_cast<std::size_t>(negLine[static_cast<std::size_t>(a)][x]);
      }
      if (!((rows[index] >> row[x]) & 1u)) {
        if constexpr (StopAtFirst) return 1;
        ++bad;
      }
    }
  }
  return bad;
}

/// Bit-sliced kernel over axis-0 lines [lineBegin, lineEnd) of a staged
/// LabelPlanes buffer (one plane set per line, transposed up front -- the
/// engine shards the staging pass separately). Per line: the axis-0 pair
/// network runs on the line's planes against their one-bit cyclic shift
/// (both directions via one extra stream shift), and each outer axis's
/// network runs against the pos/neg neighbour lines' planes, ANDed into
/// one ok-word -- 2d pair checks for 64 nodes per word sweep.
template <bool StopAtFirst>
std::int64_t planesLineViolations(const bitslice::BitslicePlanD& plan,
                                  const TorusD& torus,
                                  const LabelPlanes& planes,
                                  long long lineBegin, long long lineEnd) {
  const int n = torus.n();
  const int dims = torus.dims();
  const int B = plan.planes;
  const std::size_t W = planes.wordsPerRow();
  const std::uint64_t tail = bitslice::rowTailMask(n);
  const std::vector<long long> lineStride = outerLineStrides(dims, n);
  std::vector<std::uint64_t> store((static_cast<std::size_t>(B) + 3) * W);
  std::uint64_t* shiftP = store.data();  // east-shifted planes of the line
  std::uint64_t* strmA = shiftP + static_cast<std::size_t>(B) * W;
  std::uint64_t* strmB = strmA + W;
  std::uint64_t* okAcc = strmB + W;
  std::int64_t bad = 0;
  for (long long line = lineBegin; line < lineEnd; ++line) {
    const std::uint64_t* curP = planes.row(line);
    for (int b = 0; b < B; ++b) {
      bitslice::shiftUpCyclic(curP + static_cast<std::size_t>(b) * W,
                              shiftP + static_cast<std::size_t>(b) * W, n);
    }
    plan.axes[0].eval(curP, shiftP, W, strmA);  // bit x = P0(c[x], c[x+1])
    bitslice::shiftDownCyclic(strmA, strmB, n);  // bit x = P0(c[x-1], c[x])
    for (std::size_t w = 0; w < W; ++w) okAcc[w] = strmA[w] & strmB[w];
    forEachOuterNeighbour(
        line, n, lineStride, [&](int a, long long pos, long long neg) {
          const bitslice::PairNetwork& axis =
              plan.axes[static_cast<std::size_t>(a)];
          axis.eval(curP, planes.row(pos), W, strmA);
          for (std::size_t w = 0; w < W; ++w) okAcc[w] &= strmA[w];
          axis.eval(planes.row(neg), curP, W, strmA);
          for (std::size_t w = 0; w < W; ++w) okAcc[w] &= strmA[w];
        });
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t violated =
          ~okAcc[w] & (w + 1 == W ? tail : ~std::uint64_t{0});
      if (violated != 0) {
        if constexpr (StopAtFirst) return 1;
        bad += std::popcount(violated);
      }
    }
  }
  return bad;
}

/// Fallback for uncompiled problems or out-of-alphabet labels, over nodes
/// [vBegin, vEnd), walked one axis-0 line at a time like the table kernel:
/// the outer-axis neighbour line pointers are computed once per line and
/// the axis-0 neighbours wrap within the line, so no TorusD::step runs per
/// node. An out-of-alphabet centre is a violated node; GridLclD::allows
/// judges the rest. The range may start and end mid-line.
template <bool StopAtFirst>
std::int64_t functionalViolations(const TorusD& torus, const GridLclD& lcl,
                                  std::span<const int> labels,
                                  long long vBegin, long long vEnd) {
  const int n = torus.n();
  const int dims = torus.dims();
  const int* base = labels.data();
  const std::vector<long long> lineStride = outerLineStrides(dims, n);
  std::vector<const int*> posLine(static_cast<std::size_t>(dims), nullptr);
  std::vector<const int*> negLine(static_cast<std::size_t>(dims), nullptr);
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::int64_t bad = 0;
  for (long long line = vBegin / n; line * n < vEnd; ++line) {
    const long long first = line * n;
    const int* row = base + first;
    forEachOuterNeighbour(line, n, lineStride,
                          [&](int a, long long pos, long long neg) {
                            posLine[static_cast<std::size_t>(a)] =
                                base + pos * n;
                            negLine[static_cast<std::size_t>(a)] =
                                base + neg * n;
                          });
    const int xBegin = static_cast<int>(std::max(vBegin - first, 0LL));
    const int xEnd = static_cast<int>(std::min<long long>(vEnd - first, n));
    for (int x = xBegin; x < xEnd; ++x) {
      const int c = row[x];
      bool violated = true;
      if (c >= 0 && c < lcl.sigma()) {
        nbrs[0] = row[x + 1 == n ? 0 : x + 1];
        nbrs[1] = row[x == 0 ? n - 1 : x - 1];
        for (int a = 1; a < dims; ++a) {
          nbrs[static_cast<std::size_t>(2 * a)] =
              posLine[static_cast<std::size_t>(a)][x];
          nbrs[static_cast<std::size_t>(2 * a + 1)] =
              negLine[static_cast<std::size_t>(a)][x];
        }
        violated = !lcl.allows(c, nbrs);
      }
      if (violated) {
        if constexpr (StopAtFirst) return 1;
        ++bad;
      }
    }
  }
  return bad;
}

void checkDims(const TorusD& torus, const GridLclD& lcl) {
  if (torus.dims() != lcl.dims()) {
    throw std::invalid_argument("verifier: torus/problem dimension mismatch");
  }
}

}  // namespace

std::vector<Violation> listViolations(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labels,
                                      int maxReported) {
  checkDims(torus, lcl);
  if (static_cast<long long>(labels.size()) != torus.size()) {
    throw std::invalid_argument("listViolations: labelling size mismatch");
  }
  const int dims = torus.dims();
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::vector<Violation> violations;
  for (long long v = 0; v < torus.size() &&
                        static_cast<int>(violations.size()) < maxReported;
       ++v) {
    const int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= lcl.sigma()) {
      violations.push_back({v, "label out of alphabet"});
      continue;
    }
    for (int a = 0; a < dims; ++a) {
      nbrs[static_cast<std::size_t>(2 * a)] =
          labels[static_cast<std::size_t>(torus.step(v, a, true))];
      nbrs[static_cast<std::size_t>(2 * a + 1)] =
          labels[static_cast<std::size_t>(torus.step(v, a, false))];
    }
    if (!lcl.allows(c, nbrs)) {
      std::ostringstream os;
      os << "constraint violated at (";
      const std::vector<int> coords = torus.coords(v);
      for (int a = 0; a < dims; ++a) {
        if (a > 0) os << ",";
        os << coords[static_cast<std::size_t>(a)];
      }
      os << "): c=" << lcl.labelName(c);
      for (int a = 0; a < dims; ++a) {
        os << " +" << a << "="
           << lcl.labelName(nbrs[static_cast<std::size_t>(2 * a)]) << " -" << a
           << "=" << lcl.labelName(nbrs[static_cast<std::size_t>(2 * a + 1)]);
      }
      violations.push_back({v, os.str()});
    }
  }
  return violations;
}

namespace verifier_detail {

long long lineCountD(const TorusD& torus) {
  return torus.size() / torus.n();
}

long long haloLines(const TorusD& torus) {
  return std::max(1LL, lineCountD(torus) / torus.n());
}

std::int64_t tableViolationLinesD(const LclTableD& table, const TorusD& torus,
                                  const int* labels, long long lineBegin,
                                  long long lineEnd, bool stopAtFirst) {
  return stopAtFirst
             ? tableViolationLines<true>(table, torus, labels, lineBegin,
                                         lineEnd)
             : tableViolationLines<false>(table, torus, labels, lineBegin,
                                          lineEnd);
}

bool bitsliceSelected(const GridLclD& lcl, long long nodes) {
  if (!bitslice::enabled() || nodes < bitslice::kMinNodesForBitslice ||
      !lcl.hasTable()) {
    return false;
  }
  const LclTableD& table = lcl.table();
  if (const LclTable* table2d = table.as2d()) {
    return table2d->bitslicePlan() != nullptr;
  }
  return table.bitslicePlanD() != nullptr;
}

LabelPlanes bitsliceMakePlanesD(const TorusD& torus, const LclTableD& table) {
  if (table.as2d() != nullptr) return LabelPlanes();
  return LabelPlanes(torus.n(), lineCountD(torus),
                     table.bitslicePlanD()->planes);
}

bool bitsliceStageLinesD(int sigma, std::span<const int> labels,
                         LabelPlanes& planes, long long lineBegin,
                         long long lineEnd) {
  const int n = planes.n();
  for (long long line = lineBegin; line < lineEnd; ++line) {
    const int* row = labels.data() + static_cast<std::size_t>(line) * n;
    if (!bitslice::transposeRow(row, n, planes.planes(), sigma,
                                planes.row(line))) {
      return false;
    }
  }
  return true;
}

std::int64_t bitsliceViolationLinesD(const LclTableD& table,
                                     const TorusD& torus,
                                     const LabelPlanes& planes,
                                     const int* labels, long long lineBegin,
                                     long long lineEnd, bool stopAtFirst) {
  if (const LclTable* table2d = table.as2d()) {
    return bitsliceViolationRows(
        *table2d, torus.n(), static_cast<int>(lineCountD(torus)), labels,
        static_cast<int>(lineBegin), static_cast<int>(lineEnd), stopAtFirst);
  }
  const bitslice::BitslicePlanD& plan = *table.bitslicePlanD();
  return stopAtFirst ? planesLineViolations<true>(plan, torus, planes,
                                                  lineBegin, lineEnd)
                     : planesLineViolations<false>(plan, torus, planes,
                                                   lineBegin, lineEnd);
}

std::int64_t functionalViolationRangeD(const TorusD& torus,
                                       const GridLclD& lcl,
                                       std::span<const int> labels,
                                       long long vBegin, long long vEnd,
                                       bool stopAtFirst) {
  return stopAtFirst
             ? functionalViolations<true>(torus, lcl, labels, vBegin, vEnd)
             : functionalViolations<false>(torus, lcl, labels, vBegin, vEnd);
}

}  // namespace verifier_detail

}  // namespace lclgrid
