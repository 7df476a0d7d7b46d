#include "lcl/problems.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

namespace lclgrid::problems {

GridLcl vertexColouring(int k) {
  if (k < 1) throw std::invalid_argument("vertexColouring: k must be >= 1");
  GridLcl lcl(
      "vertex-" + std::to_string(k) + "-colouring", k, kDepAll,
      [](int c, int n, int e, int s, int w) {
        return c != n && c != e && c != s && c != w;
      });
  return lcl;
}

GridLcl maximalIndependentSet() {
  return GridLcl("maximal-independent-set", 2, kDepAll,
                 [](int c, int n, int e, int s, int w) {
                   if (c == 1) return n == 0 && e == 0 && s == 0 && w == 0;
                   // Summed wide: garbage labels reach the predicate (the
                   // verifier's functional tier) and must not overflow.
                   return static_cast<long long>(n) + e + s + w >= 1;
                 });
}

GridLcl independentSet() {
  return GridLcl("independent-set", 2, kDepAll,
                 [](int c, int n, int e, int s, int w) {
                   if (c == 1) return n == 0 && e == 0 && s == 0 && w == 0;
                   return true;
                 });
}

GridLcl maximalMatching() {
  // 0 = unmatched, 1 = matched north, 2 = east, 3 = south, 4 = west.
  GridLcl lcl("maximal-matching", 5, kDepAll,
              [](int c, int n, int e, int s, int w) {
                if (c == 1 && n != 3) return false;  // partner must point back
                if (c == 2 && e != 4) return false;
                if (c == 3 && s != 1) return false;
                if (c == 4 && w != 2) return false;
                if (c == 0) {
                  // Maximality: no unmatched neighbour.
                  return n != 0 && e != 0 && s != 0 && w != 0;
                }
                return true;
              });
  lcl.setLabelNames({"-", "N", "E", "S", "W"});
  return lcl;
}

int edgeColourOfE(int label, int k) { return label % k; }
int edgeColourOfN(int label, int k) { return label / k; }
int edgeLabelFrom(int eColour, int nColour, int k) {
  return nColour * k + eColour;
}

GridLcl edgeColouring(int k) {
  if (k < 1) throw std::invalid_argument("edgeColouring: k must be >= 1");
  // The four edges incident to a node: own E, own N, west neighbour's E,
  // south neighbour's N. All four must receive distinct colours.
  GridLcl lcl(
      "edge-" + std::to_string(k) + "-colouring", k * k,
      static_cast<std::uint8_t>(kDepS | kDepW),
      [k](int c, int /*n*/, int /*e*/, int s, int w) {
        int ownE = edgeColourOfE(c, k);
        int ownN = edgeColourOfN(c, k);
        int westE = edgeColourOfE(w, k);
        int southN = edgeColourOfN(s, k);
        return ownE != ownN && ownE != westE && ownE != southN &&
               ownN != westE && ownN != southN && westE != southN;
      });
  return lcl;
}

bool orientationEOut(int label) { return (label & 1) != 0; }
bool orientationNOut(int label) { return (label & 2) != 0; }
int orientationLabel(bool eOut, bool nOut) {
  return (eOut ? 1 : 0) | (nOut ? 2 : 0);
}

int orientationInDegree(int centre, int south, int west) {
  int inDegree = 0;
  if (!orientationEOut(centre)) ++inDegree;  // E-edge points inwards
  if (!orientationNOut(centre)) ++inDegree;  // N-edge points inwards
  if (orientationEOut(west)) ++inDegree;     // west neighbour's E-edge enters
  if (orientationNOut(south)) ++inDegree;    // south neighbour's N-edge enters
  return inDegree;
}

std::string orientationSetName(const std::set<int>& x) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int v : x) {
    if (!first) os << ",";
    os << v;
    first = false;
  }
  os << "}";
  return os.str();
}

GridLcl orientation(const std::set<int>& allowedInDegrees) {
  for (int v : allowedInDegrees) {
    if (v < 0 || v > 4) {
      throw std::invalid_argument("orientation: in-degrees must be in 0..4");
    }
  }
  std::array<bool, 5> allowed{};
  for (int v : allowedInDegrees) allowed[static_cast<std::size_t>(v)] = true;
  GridLcl lcl("orientation-" + orientationSetName(allowedInDegrees), 4,
              static_cast<std::uint8_t>(kDepS | kDepW),
              [allowed](int c, int /*n*/, int /*e*/, int s, int w) {
                return allowed[static_cast<std::size_t>(
                    orientationInDegree(c, s, w))];
              });
  lcl.setLabelNames({"<v", ">v", "<^", ">^"});
  return lcl;
}

GridLcl noHorizontalOnePair() {
  return GridLcl("no-horizontal-1-pair", 2,
                 static_cast<std::uint8_t>(kDepE | kDepW),
                 [](int c, int /*n*/, int e, int /*s*/, int w) {
                   return !(c == 1 && (e == 1 || w == 1));
                 });
}

GridLcl weakColouring(int k, int mismatches) {
  if (k < 1) throw std::invalid_argument("weakColouring: k must be >= 1");
  if (mismatches < 0 || mismatches > 4) {
    throw std::invalid_argument("weakColouring: mismatches must be in 0..4");
  }
  return GridLcl("weak-" + std::to_string(k) + "-colouring-" +
                     std::to_string(mismatches),
                 k, kDepAll,
                 [mismatches](int c, int n, int e, int s, int w) {
                   int differing = (c != n) + (c != e) + (c != s) + (c != w);
                   return differing >= mismatches;
                 });
}

}  // namespace lclgrid::problems
