#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "grid/bounded_grid.hpp"
#include "grid/direction.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"

namespace lclgrid {
namespace {

TEST(Direction, OppositesAndOffsets) {
  EXPECT_EQ(opposite(Dir::North), Dir::South);
  EXPECT_EQ(opposite(Dir::East), Dir::West);
  for (Dir d : kAllDirs) {
    EXPECT_EQ(dxOf(d) + dxOf(opposite(d)), 0);
    EXPECT_EQ(dyOf(d) + dyOf(opposite(d)), 0);
  }
}

TEST(Torus2D, IdAndCoordinatesRoundTrip) {
  Torus2D torus(5);
  for (int v = 0; v < torus.size(); ++v) {
    auto [x, y] = torus.xy(v);
    EXPECT_EQ(torus.id(x, y), v);
  }
}

TEST(Torus2D, WrapsCoordinates) {
  Torus2D torus(4);
  EXPECT_EQ(torus.id(-1, 0), torus.id(3, 0));
  EXPECT_EQ(torus.id(0, -1), torus.id(0, 3));
  EXPECT_EQ(torus.id(4, 5), torus.id(0, 1));
}

TEST(Torus2D, StepsAreInverses) {
  Torus2D torus(7);
  for (int v = 0; v < torus.size(); ++v) {
    for (Dir d : kAllDirs) {
      EXPECT_EQ(torus.step(torus.step(v, d), opposite(d)), v);
    }
  }
}

TEST(Torus2D, StepMatchesOrientation) {
  Torus2D torus(6);
  int v = torus.id(2, 3);
  EXPECT_EQ(torus.step(v, Dir::North), torus.id(2, 4));
  EXPECT_EQ(torus.step(v, Dir::East), torus.id(3, 3));
  EXPECT_EQ(torus.step(v, Dir::South), torus.id(2, 2));
  EXPECT_EQ(torus.step(v, Dir::West), torus.id(1, 3));
}

TEST(Torus2D, DistancesWrapAround) {
  Torus2D torus(10);
  EXPECT_EQ(torus.l1(torus.id(0, 0), torus.id(9, 0)), 1);
  EXPECT_EQ(torus.l1(torus.id(0, 0), torus.id(5, 5)), 10);
  EXPECT_EQ(torus.linf(torus.id(0, 0), torus.id(9, 9)), 1);
  EXPECT_EQ(torus.linf(torus.id(0, 0), torus.id(4, 2)), 4);
}

TEST(Torus2D, L1BallSizesMatchFormula) {
  Torus2D torus(31);  // large enough that balls do not wrap
  int v = torus.id(15, 15);
  for (int r = 0; r <= 5; ++r) {
    auto ball = torus.l1Ball(v, r);
    // |B_1(r)| = 2r^2 + 2r + 1 on the 2-dimensional grid.
    EXPECT_EQ(static_cast<int>(ball.size()), 2 * r * r + 2 * r + 1) << r;
    for (int u : ball) EXPECT_LE(torus.l1(v, u), r);
  }
}

TEST(Torus2D, LinfBallSizesMatchFormula) {
  Torus2D torus(31);
  int v = torus.id(10, 10);
  for (int r = 0; r <= 5; ++r) {
    auto ball = torus.linfBall(v, r);
    EXPECT_EQ(static_cast<int>(ball.size()), (2 * r + 1) * (2 * r + 1)) << r;
  }
}

TEST(Torus2D, BallsDeduplicateOnSmallTori) {
  Torus2D torus(3);
  auto ball = torus.l1Ball(0, 5);  // radius exceeds torus size
  EXPECT_EQ(static_cast<int>(ball.size()), torus.size());
}

TEST(Torus2D, PowerDegreeBounds) {
  EXPECT_EQ(l1PowerDegreeBound(1), 4);
  EXPECT_EQ(l1PowerDegreeBound(3), 24);
  EXPECT_EQ(linfPowerDegreeBound(1), 8);
  Torus2D torus(31);
  EXPECT_EQ(static_cast<int>(torus.l1PowerNeighbours(5, 3).size()),
            l1PowerDegreeBound(3));
  EXPECT_EQ(static_cast<int>(torus.linfPowerNeighbours(5, 2).size()),
            linfPowerDegreeBound(2));
}

TEST(Torus2D, RejectsBadSize) {
  EXPECT_THROW(Torus2D(0), std::invalid_argument);
  // size() is n * n in int: 46340^2 fits, 46341^2 and 65536^2 do not.
  EXPECT_NO_THROW(Torus2D(46340));
  EXPECT_THROW(Torus2D(46341), std::invalid_argument);
  EXPECT_THROW(Torus2D(65536), std::invalid_argument);
}

// --- TorusD ---------------------------------------------------------------

TEST(TorusD, MatchesTorus2DDistances) {
  Torus2D t2(8);
  TorusD td(2, 8);
  for (int u = 0; u < t2.size(); ++u) {
    for (int v = 0; v < t2.size(); v += 7) {
      auto [ux, uy] = t2.xy(u);
      auto [vx, vy] = t2.xy(v);
      long long du = td.id({ux, uy});
      long long dv = td.id({vx, vy});
      EXPECT_EQ(t2.l1(u, v), td.l1(du, dv));
      EXPECT_EQ(t2.linf(u, v), td.linf(du, dv));
    }
  }
}

TEST(TorusD, RejectsBadSize) {
  EXPECT_THROW(TorusD(0, 4), std::invalid_argument);
  EXPECT_THROW(TorusD(2, 0), std::invalid_argument);
  // size() is n^dims in long long: (2^21 - 1)^3 and 2^62 fit, 2^63 does not.
  EXPECT_NO_THROW(TorusD(3, (1 << 21) - 1));
  EXPECT_THROW(TorusD(3, 1 << 21), std::invalid_argument);
  EXPECT_NO_THROW(TorusD(62, 2));
  EXPECT_THROW(TorusD(63, 2), std::invalid_argument);
  EXPECT_THROW(TorusD(3, 3000000), std::invalid_argument);
}

TEST(TorusD, CoordsRoundTrip) {
  TorusD torus(3, 5);
  for (long long v = 0; v < torus.size(); v += 11) {
    EXPECT_EQ(torus.id(torus.coords(v)), v);
  }
}

TEST(TorusD, StepInverses) {
  TorusD torus(3, 4);
  long long v = torus.id({1, 2, 3});
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_EQ(torus.step(torus.step(v, axis, true), axis, false), v);
  }
}

TEST(TorusD, LinfBallSize3D) {
  TorusD torus(3, 11);
  auto ball = torus.linfBall(torus.id({5, 5, 5}), 2);
  EXPECT_EQ(static_cast<long long>(ball.size()), 5LL * 5 * 5);
}

TEST(TorusD, L1BallSize3D) {
  TorusD torus(3, 11);
  auto ball = torus.l1Ball(torus.id({5, 5, 5}), 2);
  // |B_1(2)| in 3D: 1 + 6 + (6 + 12 + 8) hmm -- compute directly instead.
  long long count = 0;
  for (int dx = -2; dx <= 2; ++dx) {
    for (int dy = -2; dy <= 2; ++dy) {
      for (int dz = -2; dz <= 2; ++dz) {
        if (std::abs(dx) + std::abs(dy) + std::abs(dz) <= 2) ++count;
      }
    }
  }
  EXPECT_EQ(static_cast<long long>(ball.size()), count);
}

TEST(TorusD, EdgeCount) {
  TorusD torus(2, 6);
  EXPECT_EQ(torus.edgeCount(), 2LL * 36);
}

// --- BoundedGrid ------------------------------------------------------------

TEST(BoundedGrid, DegreesClassifyNodes) {
  BoundedGrid grid(5);
  int corners = 0, sides = 0, internal = 0;
  for (int v = 0; v < grid.size(); ++v) {
    switch (grid.degree(v)) {
      case 2: ++corners; break;
      case 3: ++sides; break;
      case 4: ++internal; break;
      default: FAIL() << "unexpected degree";
    }
  }
  EXPECT_EQ(corners, 4);
  EXPECT_EQ(sides, 4 * (5 - 2));
  EXPECT_EQ(internal, (5 - 2) * (5 - 2));
}

TEST(BoundedGrid, CornersAreDetected) {
  BoundedGrid grid(4);
  auto corners = grid.corners();
  EXPECT_EQ(corners.size(), 4u);
  for (int c : corners) EXPECT_TRUE(grid.isCorner(c));
  EXPECT_FALSE(grid.isCorner(grid.id(1, 1)));
  EXPECT_TRUE(grid.isBoundary(grid.id(0, 2)));
  EXPECT_FALSE(grid.isBoundary(grid.id(2, 2)));
}

TEST(BoundedGrid, NeighbourRespectsBoundary) {
  BoundedGrid grid(3);
  EXPECT_FALSE(grid.neighbour(grid.id(0, 0), Dir::West).has_value());
  EXPECT_FALSE(grid.neighbour(grid.id(0, 0), Dir::South).has_value());
  EXPECT_TRUE(grid.neighbour(grid.id(0, 0), Dir::North).has_value());
  EXPECT_TRUE(grid.neighbour(grid.id(0, 0), Dir::East).has_value());
}

}  // namespace
}  // namespace lclgrid
