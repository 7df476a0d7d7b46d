// d-dimensional toroidal grid with n^d nodes (Sections 8 and 10). Each node
// has 2d neighbours, one per signed axis direction; the orientation gives
// every node consistent "+i" / "-i" port labels for each dimension i.
#pragma once

#include <vector>

namespace lclgrid {

class TorusD {
 public:
  /// Throws std::invalid_argument unless dims >= 1, n >= 1 and n^dims fits
  /// in long long.
  TorusD(int dims, int n);

  int dims() const { return dims_; }
  int n() const { return n_; }
  long long size() const { return size_; }

  /// Linear node id from a coordinate vector (wrapped mod n).
  long long id(const std::vector<int>& coords) const;
  /// Coordinate vector of a node id.
  std::vector<int> coords(long long v) const;
  /// Coordinate of v along one axis.
  int coord(long long v, int axis) const;

  /// Neighbour of v along `axis`, displaced by +1 (positive = true) or -1.
  long long step(long long v, int axis, bool positive) const;
  /// Node displaced from v by `delta` along `axis`.
  long long shiftAxis(long long v, int axis, int delta) const;
  /// Node displaced from v by the offset vector.
  long long shift(long long v, const std::vector<int>& delta) const;

  int axisDist(int a, int b) const;
  int l1(long long u, long long v) const;
  int linf(long long u, long long v) const;

  /// All nodes within L-infinity distance r of v (includes v).
  std::vector<long long> linfBall(long long v, int r) const;
  /// All nodes within L1 distance r of v (includes v).
  std::vector<long long> l1Ball(long long v, int r) const;

  /// Total number of undirected edges: d * n^d.
  long long edgeCount() const;

 private:
  int dims_;
  int n_;
  long long size_;
  std::vector<long long> strides_;
};

}  // namespace lclgrid
