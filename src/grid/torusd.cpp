#include "grid/torusd.hpp"

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

TorusD::TorusD(int dims, int n) : dims_(dims), n_(n) {
  if (dims < 1) throw std::invalid_argument("TorusD: dims must be positive");
  if (n < 1) throw std::invalid_argument("TorusD: n must be positive");
  size_ = 1;
  strides_.resize(dims_);
  for (int i = 0; i < dims_; ++i) {
    strides_[i] = size_;
    if (size_ > std::numeric_limits<long long>::max() / n_) {
      throw std::invalid_argument("TorusD: n^dims must fit in long long");
    }
    size_ *= n_;
  }
}

long long TorusD::id(const std::vector<int>& coords) const {
  if (static_cast<int>(coords.size()) != dims_) {
    throw std::invalid_argument("TorusD::id: wrong coordinate arity");
  }
  long long v = 0;
  for (int i = 0; i < dims_; ++i) v += strides_[i] * mod(coords[i], n_);
  return v;
}

std::vector<int> TorusD::coords(long long v) const {
  std::vector<int> c(dims_);
  for (int i = 0; i < dims_; ++i) {
    c[i] = static_cast<int>(v % n_);
    v /= n_;
  }
  return c;
}

int TorusD::coord(long long v, int axis) const {
  return static_cast<int>((v / strides_[axis]) % n_);
}

long long TorusD::step(long long v, int axis, bool positive) const {
  return shiftAxis(v, axis, positive ? 1 : -1);
}

long long TorusD::shiftAxis(long long v, int axis, int delta) const {
  int c = coord(v, axis);
  int nc = mod(c + delta, n_);
  return v + static_cast<long long>(nc - c) * strides_[axis];
}

long long TorusD::shift(long long v, const std::vector<int>& delta) const {
  for (int i = 0; i < dims_; ++i) v = shiftAxis(v, i, delta[i]);
  return v;
}

int TorusD::axisDist(int a, int b) const {
  int d = mod(a - b, n_);
  return std::min(d, n_ - d);
}

int TorusD::l1(long long u, long long v) const {
  int total = 0;
  for (int i = 0; i < dims_; ++i) total += axisDist(coord(u, i), coord(v, i));
  return total;
}

int TorusD::linf(long long u, long long v) const {
  int worst = 0;
  for (int i = 0; i < dims_; ++i) {
    worst = std::max(worst, axisDist(coord(u, i), coord(v, i)));
  }
  return worst;
}

std::vector<long long> TorusD::linfBall(long long v, int r) const {
  std::vector<long long> ball = {v};
  for (int axis = 0; axis < dims_; ++axis) {
    std::vector<long long> next;
    next.reserve(ball.size() * (2 * r + 1));
    for (long long u : ball) {
      for (int delta = -r; delta <= r; ++delta) {
        next.push_back(shiftAxis(u, axis, delta));
      }
    }
    ball.swap(next);
  }
  std::sort(ball.begin(), ball.end());
  ball.erase(std::unique(ball.begin(), ball.end()), ball.end());
  return ball;
}

std::vector<long long> TorusD::l1Ball(long long v, int r) const {
  std::vector<long long> ball = linfBall(v, r);
  ball.erase(std::remove_if(ball.begin(), ball.end(),
                            [&](long long u) { return l1(v, u) > r; }),
             ball.end());
  return ball;
}

long long TorusD::edgeCount() const { return static_cast<long long>(dims_) * size_; }

}  // namespace lclgrid
