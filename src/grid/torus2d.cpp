#include "grid/torus2d.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace lclgrid {

namespace {
int mod(int a, int n) {
  int r = a % n;
  return r < 0 ? r + n : r;
}
}  // namespace

Torus2D::Torus2D(int n) : n_(n) {
  if (n < 1) throw std::invalid_argument("Torus2D: n must be positive");
  if (static_cast<long long>(n) * n > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("Torus2D: n * n must fit in int");
  }
}

int Torus2D::id(int x, int y) const { return mod(y, n_) * n_ + mod(x, n_); }

std::pair<int, int> Torus2D::xy(int v) const { return {v % n_, v / n_}; }

int Torus2D::step(int v, Dir d, int dist) const {
  return shift(v, dxOf(d) * dist, dyOf(d) * dist);
}

int Torus2D::shift(int v, int dx, int dy) const {
  return id(xOf(v) + dx, yOf(v) + dy);
}

int Torus2D::axisDist(int a, int b) const {
  int d = mod(a - b, n_);
  return std::min(d, n_ - d);
}

int Torus2D::l1(int u, int v) const {
  return axisDist(xOf(u), xOf(v)) + axisDist(yOf(u), yOf(v));
}

int Torus2D::linf(int u, int v) const {
  return std::max(axisDist(xOf(u), xOf(v)), axisDist(yOf(u), yOf(v)));
}

std::vector<int> Torus2D::l1Ball(int v, int r) const {
  std::vector<int> ball;
  // Enumerate the offset diamond and deduplicate wrapped nodes via sort.
  for (int dy = -r; dy <= r; ++dy) {
    int span = r - (dy < 0 ? -dy : dy);
    for (int dx = -span; dx <= span; ++dx) {
      ball.push_back(shift(v, dx, dy));
    }
  }
  std::sort(ball.begin(), ball.end());
  ball.erase(std::unique(ball.begin(), ball.end()), ball.end());
  return ball;
}

std::vector<int> Torus2D::linfBall(int v, int r) const {
  std::vector<int> ball;
  for (int dy = -r; dy <= r; ++dy) {
    for (int dx = -r; dx <= r; ++dx) {
      ball.push_back(shift(v, dx, dy));
    }
  }
  std::sort(ball.begin(), ball.end());
  ball.erase(std::unique(ball.begin(), ball.end()), ball.end());
  return ball;
}

std::vector<int> Torus2D::l1PowerNeighbours(int v, int k) const {
  std::vector<int> nbrs = l1Ball(v, k);
  nbrs.erase(std::remove(nbrs.begin(), nbrs.end(), v), nbrs.end());
  return nbrs;
}

std::vector<int> Torus2D::linfPowerNeighbours(int v, int k) const {
  std::vector<int> nbrs = linfBall(v, k);
  nbrs.erase(std::remove(nbrs.begin(), nbrs.end(), v), nbrs.end());
  return nbrs;
}

int l1PowerDegreeBound(int k) { return 2 * k * (k + 1); }

int linfPowerDegreeBound(int k) { return (2 * k + 1) * (2 * k + 1) - 1; }

}  // namespace lclgrid
