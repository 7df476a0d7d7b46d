#include "labellings.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace perfbench {

using lclgrid::Dir;
using lclgrid::GridLcl;
using lclgrid::GridLclD;
using lclgrid::SplitMix64;
using lclgrid::Torus2D;
using lclgrid::TorusD;

namespace {

/// Violating nodes among v and its four neighbours, read through `at`.
template <typename At>
int violationsAround(const GridLcl& lcl, const Torus2D& torus, int v, At&& at) {
  const std::array<int, 5> nodes = {v, torus.step(v, Dir::North),
                                    torus.step(v, Dir::East),
                                    torus.step(v, Dir::South),
                                    torus.step(v, Dir::West)};
  int count = 0;
  for (int u : nodes) {
    if (!lcl.allows(at(u), at(torus.step(u, Dir::North)),
                    at(torus.step(u, Dir::East)),
                    at(torus.step(u, Dir::South)),
                    at(torus.step(u, Dir::West)))) {
      ++count;
    }
  }
  return count;
}

bool isolated(const Torus2D& torus, const std::vector<int>& chosen, int v) {
  for (int p : chosen) {
    if (torus.l1(p, v) < 5) return false;
  }
  return true;
}

/// Plants violations into `labels` (read and written through `get`/`set`)
/// and returns their exact total.
template <typename Get, typename Set>
std::int64_t plant2D(const GridLcl& lcl, const Torus2D& torus, int plants,
                     SplitMix64& rng, Get&& get, Set&& set) {
  std::vector<int> chosen;
  std::int64_t total = 0;
  for (int tries = 0; static_cast<int>(chosen.size()) < plants; ++tries) {
    if (tries > 100 * plants + 1000) {
      throw std::runtime_error("plant2D: no room for the planted violations");
    }
    const int v = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(torus.size())));
    if (!isolated(torus, chosen, v)) continue;
    const int original = get(v);
    const int offset = 1 + static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(lcl.sigma() - 1)));
    for (int step = 0; step < lcl.sigma() - 1; ++step) {
      set(v, (original + offset + step) % lcl.sigma());
      const int count = violationsAround(lcl, torus, v, get);
      if (count > 0) {
        chosen.push_back(v);
        total += count;
        break;
      }
      set(v, original);
    }
  }
  return total;
}

std::vector<int> baseLabelling(const std::string& spec, int n, SplitMix64& rng) {
  std::vector<int> labels(static_cast<std::size_t>(n) * n, 0);
  auto bit = [&rng, word = std::uint64_t{0}, left = 0]() mutable {
    if (left == 0) {
      word = rng.next();
      left = 64;
    }
    --left;
    const int b = static_cast<int>(word & 1);
    word >>= 1;
    return b;
  };
  if (spec == "vc:4") {
    // Neighbours differ in coordinate parity, hence in the low label bit.
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        labels[static_cast<std::size_t>(y) * n + x] = ((x + y) & 1) | (bit() << 1);
      }
    }
  } else if (spec == "nh1p") {
    for (int y = 0; y < n; ++y) {
      int* row = &labels[static_cast<std::size_t>(y) * n];
      for (int x = 0; x < n; ++x) {
        const bool blocked = (x > 0 && row[x - 1] == 1) || (x == n - 1 && row[0] == 1);
        row[x] = blocked ? 0 : bit();
      }
    }
  } else if (spec == "mis") {
    // Random independent set, then a greedy pass makes it maximal. Indexed
    // directly: Torus2D::step made this the slowest input at 8192^2.
    auto free = [&](int x, int y) {
      const int* row = &labels[static_cast<std::size_t>(y) * n];
      const int* up = &labels[static_cast<std::size_t>(y == 0 ? n - 1 : y - 1) * n];
      const int* down = &labels[static_cast<std::size_t>(y == n - 1 ? 0 : y + 1) * n];
      return row[x == 0 ? n - 1 : x - 1] != 1 && row[x == n - 1 ? 0 : x + 1] != 1 &&
             up[x] != 1 && down[x] != 1;
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          int& label = labels[static_cast<std::size_t>(y) * n + x];
          if (label == 0 && (pass == 1 || bit() == 1) && free(x, y)) label = 1;
        }
      }
    }
  } else if (spec == "mm") {
    // Horizontal dominoes, each row at a random offset: 2 = matched east,
    // 4 = matched west.
    for (int y = 0; y < n; ++y) {
      const int offset = bit();
      for (int x = 0; x < n; ++x) {
        labels[static_cast<std::size_t>(y) * n + x] = ((x - offset) & 1) == 0 ? 2 : 4;
      }
    }
  } else {
    throw std::invalid_argument("baseLabelling: no generator for " + spec);
  }
  return labels;
}

}  // namespace

Instance makeInstance2D(const std::string& spec, const GridLcl& lcl, int n,
                        int plants, SplitMix64& rng) {
  Instance instance;
  instance.n = n;
  instance.labels = baseLabelling(spec, n, rng);
  const Torus2D torus(n);
  std::vector<int>& labels = instance.labels;
  instance.expected = plant2D(
      lcl, torus, plants, rng,
      [&labels](int v) { return labels[static_cast<std::size_t>(v)]; },
      [&labels](int v, int label) { labels[static_cast<std::size_t>(v)] = label; });
  return instance;
}

Instance makeInstanceD(const GridLclD& lcl, int dims, int n, int plants,
                       SplitMix64& rng) {
  const TorusD torus(dims, n);
  Instance instance;
  instance.n = n;
  instance.labels.resize(static_cast<std::size_t>(torus.size()));
  std::uint64_t word = 0;
  for (long long v = 0; v < torus.size(); ++v) {
    if (v % 64 == 0) word = rng.next();
    int parity = 0;
    for (int axis = 0; axis < dims; ++axis) parity += torus.coord(v, axis);
    instance.labels[static_cast<std::size_t>(v)] =
        (parity & 1) | static_cast<int>(((word >> (v % 64)) & 1) << 1);
  }
  std::vector<int>& labels = instance.labels;
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims));
  auto violating = [&](long long u) {
    for (int axis = 0; axis < dims; ++axis) {
      nbrs[static_cast<std::size_t>(2 * axis)] =
          labels[static_cast<std::size_t>(torus.step(u, axis, true))];
      nbrs[static_cast<std::size_t>(2 * axis + 1)] =
          labels[static_cast<std::size_t>(torus.step(u, axis, false))];
    }
    return !lcl.allows(labels[static_cast<std::size_t>(u)], nbrs);
  };
  std::vector<long long> chosen;
  for (int tries = 0; static_cast<int>(chosen.size()) < plants; ++tries) {
    if (tries > 100 * plants + 1000) {
      throw std::runtime_error("makeInstanceD: no room for the planted violations");
    }
    const long long v = static_cast<long long>(rng.nextBelow(static_cast<std::uint64_t>(torus.size())));
    bool far = true;
    for (long long p : chosen) far = far && torus.l1(p, v) >= 5;
    if (!far) continue;
    const std::vector<long long> ball = torus.l1Ball(v, 1);
    const int original = labels[static_cast<std::size_t>(v)];
    labels[static_cast<std::size_t>(v)] =
        (original + 1 + static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(lcl.sigma() - 1)))) %
        lcl.sigma();
    int count = 0;
    for (long long u : ball) count += violating(u) ? 1 : 0;
    if (count == 0) {
      labels[static_cast<std::size_t>(v)] = original;
      continue;
    }
    chosen.push_back(v);
    instance.expected += count;
  }
  return instance;
}

StreamedColouring::StreamedColouring(const GridLcl& lcl, int n, int plants,
                                     SplitMix64& rng)
    : n_(n), seed_(rng.next()) {
  const Torus2D torus(n);
  std::vector<std::pair<long long, int>>& planted = plants_;
  auto get = [this](int v) { return labelAt(v % n_, v / n_); };
  auto set = [&planted, this](int v, int label) {
    const auto it = std::find_if(planted.begin(), planted.end(),
                                 [v](const auto& p) { return p.first == v; });
    const int base = baseAt(v % n_, v / n_);
    if (it != planted.end()) {
      if (label == base) {
        planted.erase(it);
      } else {
        it->second = label;
      }
    } else if (label != base) {
      planted.emplace_back(v, label);
    }
  };
  expected_ = plant2D(lcl, torus, plants, rng, get, set);
  std::sort(plants_.begin(), plants_.end());
}

std::uint64_t StreamedColouring::blockBits(int y, int block) const {
  return SplitMix64(seed_ ^ (static_cast<std::uint64_t>(y) << 32) ^
                    static_cast<std::uint64_t>(block))
      .next();
}

int StreamedColouring::baseAt(int x, int y) const {
  return ((x + y) & 1) | static_cast<int>(((blockBits(y, x >> 6) >> (x & 63)) & 1) << 1);
}

int StreamedColouring::labelAt(int x, int y) const {
  const long long v = static_cast<long long>(y) * n_ + x;
  for (const auto& [node, label] : plants_) {
    if (node == v) return label;
  }
  return baseAt(x, y);
}

void StreamedColouring::row(int y, std::span<int> out) const {
  for (int block = 0; block * 64 < n_; ++block) {
    const std::uint64_t word = blockBits(y, block);
    const int end = std::min(n_, block * 64 + 64);
    for (int x = block * 64; x < end; ++x) {
      out[static_cast<std::size_t>(x)] =
          ((x + y) & 1) | static_cast<int>(((word >> (x & 63)) & 1) << 1);
    }
  }
  const long long rowStart = static_cast<long long>(y) * n_;
  auto it = std::lower_bound(plants_.begin(), plants_.end(),
                             std::make_pair(rowStart, 0));
  for (; it != plants_.end() && it->first < rowStart + n_; ++it) {
    out[static_cast<std::size_t>(it->first - rowStart)] = it->second;
  }
}

}  // namespace perfbench
