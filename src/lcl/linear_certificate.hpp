// Linear-algebra certificates that a radius-1 LCL has no labelling on a
// torus. The global solver (lcl/global_solver.hpp) asks for one before any
// CDCL call: counting obstructions such as Lemma 24's parity argument are
// exponentially hard for resolution, but one linear system decides them.
//
// Write an allowed tuple of a compiled table -- the centre label and the
// labels of the dependent neighbour slots -- as a 0/1 vector with one
// indicator per label for the centre, one per label for each dependent
// slot, and a constant 1: k * sigma + 1 entries, where k is 1 + the number
// of dependent slots. The F_p-linear relations that every allowed tuple
// satisfies form the null space of these vectors. The prime p *obstructs*
// the table when no constant vector c in F_p^sigma satisfies every relation
// with every position set to c (a linear system in sigma unknowns).
//
// Theorem. If p obstructs the table, a torus of any dimension d whose side
// n is not divisible by p has no labelling.
// Proof. Let x[v][a] = 1 iff node v carries label a. The indicator vector x
// of a valid labelling satisfies every relation at every node: it solves
// the torus's F_p system. That system is invariant under translations, so
// every translate of x solves it too. When p does not divide n, 1/n^d
// exists in F_p, and the average of x over all n^d translations solves the
// (affine) system as well. The average is constant: at every node it is
// (the number of nodes labelled a) / n^d for each label a. So a labelling
// yields a constant solution; if none exists, no labelling exists.
//
// Examples, from the paper's counting arguments:
//  * {1,3}-orientations (Lemma 24): the in-degree is 1 mod 2 at every node,
//    a relation over the centre, south and west labels, yet at a constant
//    labelling each node's in-degree terms add up to 2 (the n^2 in-degrees
//    sum to the 2n^2 edges). p = 2 obstructs: every odd n is ruled out.
//  * {0,3}- and {1,4}-orientations: the in-degree is 0 (resp. 1) mod 3,
//    against the same sum 2: p = 3 obstructs, ruling out every n with
//    3 not dividing n.
//  * 2d-edge-colouring (Theorem 21) and vertex 2-colouring: odd n.
// A table with a constant labelling is never obstructed (that labelling is
// a constant solution). What the certificate leaves to CDCL: sides divisible
// by p, other primes, and obstructions no linear congruence expresses.
//
// Cost, independent of n: the table is walked row by row, and a row is
// tested against each current relation with k lookups and one mask test
// whatever its number of allowed centres. Only a row that breaks a relation
// changes the basis, and the walk stops once only the k identities "each
// position carries exactly one label" remain.
#pragma once

#include "lcl/lcl_table_d.hpp"

namespace lclgrid {

/// Which of the primes 2 and 3 obstruct a compiled table (see above).
struct LinearCertificate {
  bool mod2 = false;  // no labelling for odd n
  bool mod3 = false;  // no labelling for n not divisible by 3

  /// True iff the certificate proves that the torus of side n (any
  /// dimension) has no labelling.
  bool rulesOut(int n) const {
    return (mod2 && n % 2 != 0) || (mod3 && n % 3 != 0);
  }
};

/// Computes the F_2 and F_3 certificates of a compiled table.
LinearCertificate linearCertificate(const LclTableD& table);

}  // namespace lclgrid
