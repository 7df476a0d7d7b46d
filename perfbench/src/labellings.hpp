// Seeded input labellings with planted violations. Every base labelling is
// a proper solution of its problem; violations are planted at isolated
// cells (pairwise L1 distance >= 5, so no node's radius-1 window sees two
// plants), and the exact violation total they imply is computed node-locally
// with the problem's predicate -- independently of every verify kernel, so
// each verify result can be checked against it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "support/numeric.hpp"

namespace perfbench {

/// A labelling and the violation count it must verify to.
struct Instance {
  int n = 0;
  std::vector<int> labels;
  std::int64_t expected = 0;
};

/// A proper labelling of a 2D problem spec ("vc:4", "nh1p", "mis", "mm") on
/// the n x n torus (n even), with `plants` violations planted.
Instance makeInstance2D(const std::string& spec, const lclgrid::GridLcl& lcl,
                        int n, int plants, lclgrid::SplitMix64& rng);

/// The same for a proper 4-colouring of the d-dimensional torus (n even).
Instance makeInstanceD(const lclgrid::GridLclD& lcl, int dims, int n,
                       int plants, lclgrid::SplitMix64& rng);

/// A streamed vc:4 labelling too large to build in memory: each row is a
/// pure function of (seed, row), plus the planted cells.
class StreamedColouring {
 public:
  StreamedColouring(const lclgrid::GridLcl& lcl, int n, int plants, lclgrid::SplitMix64& rng);
  int n() const { return n_; }
  /// Fills one row (out.size() == n) with the planted labelling.
  void row(int y, std::span<int> out) const;
  std::int64_t expected() const { return expected_; }

 private:
  /// The random colour bits of row y, nodes [64 * block, 64 * block + 64).
  std::uint64_t blockBits(int y, int block) const;
  int baseAt(int x, int y) const;
  int labelAt(int x, int y) const;

  int n_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::pair<long long, int>> plants_;  // (node, label), by node
  std::int64_t expected_ = 0;
};

}  // namespace perfbench
