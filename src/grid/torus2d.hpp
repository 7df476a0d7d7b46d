// The 2-dimensional toroidal n x n grid of Section 3: nodes are (x, y) with
// coordinates mod n, edges connect L1-distance-1 pairs, and all edges carry a
// consistent global orientation (each node knows north/east/south/west).
//
// Node identity used by the library is the linear index y*n + x. The
// *distributed* algorithms never read these coordinates directly -- they only
// move through `step`/`shift` relative to a node, mirroring the LOCAL model
// where nodes see the orientation but not their coordinates.
#pragma once

#include <utility>
#include <vector>

#include "grid/direction.hpp"

namespace lclgrid {

class Torus2D {
 public:
  /// Throws std::invalid_argument unless n >= 1 and n * n fits in int.
  explicit Torus2D(int n);

  int n() const { return n_; }
  int size() const { return n_ * n_; }

  /// Linear node id for (possibly out-of-range) coordinates; wraps mod n.
  int id(int x, int y) const;
  /// Coordinates of a node id, in [0, n) x [0, n).
  std::pair<int, int> xy(int v) const;
  int xOf(int v) const { return v % n_; }
  int yOf(int v) const { return v / n_; }

  /// The neighbour of v in direction d (distance `dist` steps).
  int step(int v, Dir d, int dist = 1) const;
  /// The node at relative offset (dx east, dy north) from v.
  int shift(int v, int dx, int dy) const;

  /// Toroidal coordinate distance min(|a-b|, n-|a-b|) along one axis.
  int axisDist(int a, int b) const;
  /// L1 (grid) distance between nodes -- the distance of G.
  int l1(int u, int v) const;
  /// L-infinity distance between nodes -- the distance of G[k] powers.
  int linf(int u, int v) const;

  /// All nodes w with l1(v, w) <= r (includes v). On small tori the ball
  /// wraps and is deduplicated.
  std::vector<int> l1Ball(int v, int r) const;
  /// All nodes w with linf(v, w) <= r (includes v).
  std::vector<int> linfBall(int v, int r) const;

  /// Adjacency of the L1 power graph G^(k): all w != v with l1 <= k.
  std::vector<int> l1PowerNeighbours(int v, int k) const;
  /// Adjacency of the L-infinity power graph G[k].
  std::vector<int> linfPowerNeighbours(int v, int k) const;

 private:
  int n_;
};

/// Maximum degree of G^(k) on a large torus: |L1 ball of radius k| - 1.
int l1PowerDegreeBound(int k);
/// Maximum degree of G[k] on a large torus: (2k+1)^2 - 1.
int linfPowerDegreeBound(int k);

}  // namespace lclgrid
