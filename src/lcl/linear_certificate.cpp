#include "lcl/linear_certificate.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace lclgrid {

namespace {

/// The inverse of a nonzero residue modulo the prime p.
int inverseMod(int a, int p) {
  int inverse = 1;
  while (a * inverse % p != 1) ++inverse;
  return inverse;
}

/// row -= factor * pivot over F_p, for residues in [0, p).
void subtractMultiple(std::span<int> row, std::span<const int> pivot,
                      int factor, int p) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = (row[i] + (p - factor) * pivot[i]) % p;
  }
}

/// True iff the F_p system has a solution. Each row holds `unknowns`
/// coefficients followed by the right-hand side.
bool solvable(std::vector<std::vector<int>> rows, std::size_t unknowns,
              int p) {
  std::size_t rank = 0;
  for (std::size_t col = 0; col < unknowns && rank < rows.size(); ++col) {
    std::size_t pivot = rank;
    while (pivot < rows.size() && rows[pivot][col] == 0) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[pivot], rows[rank]);
    const int scale = inverseMod(rows[rank][col], p);
    for (std::size_t i = rank + 1; i < rows.size(); ++i) {
      if (rows[i][col] != 0) {
        subtractMultiple(rows[i], rows[rank], rows[i][col] * scale % p, p);
      }
    }
    ++rank;
  }
  // Every row below the rank has zero coefficients; a nonzero right-hand
  // side there reads 0 = b.
  for (std::size_t i = rank; i < rows.size(); ++i) {
    if (rows[i][unknowns] != 0) return false;
  }
  return true;
}

/// A basis of the F_p relations that every tuple added so far satisfies.
/// A relation has one coefficient per column: the centre's labels first,
/// then each dependent slot's labels, then the constant. Before the first
/// tuple every vector is a relation, so the basis starts as the unit
/// vectors; each tuple that breaks a relation removes one dimension.
class Relations {
 public:
  Relations(std::size_t sigma, std::size_t positions, int p)
      : sigma_(sigma),
        width_(positions * sigma + 1),
        p_(p),
        count_(width_),
        coefficients_(width_ * width_, 0),
        centreWith_(width_ * static_cast<std::size_t>(p), 0) {
    for (std::size_t i = 0; i < width_; ++i) editable(i)[i] = 1;
    refreshCentreMasks();
  }

  std::size_t count() const { return count_; }
  std::span<const int> relation(std::size_t i) const {
    return std::span<const int>(coefficients_).subspan(i * width_, width_);
  }

  /// True iff every tuple of a table row -- each centre label in the
  /// `centres` mask beside the neighbour columns `columns` -- satisfies
  /// every relation: k lookups per relation, whatever the row holds.
  bool satisfiedBy(std::uint64_t centres,
                   std::span<const std::size_t> columns) const {
    const std::size_t p = static_cast<std::size_t>(p_);
    for (std::size_t i = 0; i < count_; ++i) {
      const std::span<const int> r = relation(i);
      int sum = r.back();
      for (std::size_t column : columns) sum += r[column];
      // Each of the row's tuples needs r[centre] = -sum.
      const std::size_t wanted = static_cast<std::size_t>((p_ - sum % p_) % p_);
      if ((centres & ~centreWith_[i * p + wanted]) != 0) return false;
    }
    return true;
  }

  /// Keeps the combinations of the relations that every tuple of the row
  /// satisfies.
  void addRow(std::uint64_t centres, std::span<const std::size_t> columns) {
    for (std::size_t centre = 0; centre < sigma_; ++centre) {
      if ((centres >> centre) & 1u) addTuple(centre, columns);
    }
    refreshCentreMasks();
  }

 private:
  std::span<int> editable(std::size_t i) {
    return std::span<int>(coefficients_).subspan(i * width_, width_);
  }

  /// One tuple: the first relation it breaks is the pivot; it is
  /// eliminated from the other broken ones and dropped.
  void addTuple(std::size_t centre, std::span<const std::size_t> columns) {
    dots_.assign(count_, 0);
    std::size_t pivot = count_;
    for (std::size_t i = 0; i < count_; ++i) {
      const std::span<const int> r = relation(i);
      int dot = r[centre] + r.back();
      for (std::size_t column : columns) dot += r[column];
      dots_[i] = dot % p_;
      if (dots_[i] != 0 && pivot == count_) pivot = i;
    }
    if (pivot == count_) return;
    const int scale = inverseMod(dots_[pivot], p_);
    for (std::size_t i = pivot + 1; i < count_; ++i) {
      if (dots_[i] != 0) {
        subtractMultiple(editable(i), relation(pivot), dots_[i] * scale % p_,
                         p_);
      }
    }
    --count_;
    if (pivot != count_) {
      const std::span<const int> last = relation(count_);
      std::copy(last.begin(), last.end(), editable(pivot).begin());
    }
  }

  /// centreWith_[i * p + v] masks the centre labels whose coefficient in
  /// relation i is v.
  void refreshCentreMasks() {
    std::fill(centreWith_.begin(), centreWith_.end(), 0);
    const std::size_t p = static_cast<std::size_t>(p_);
    for (std::size_t i = 0; i < count_; ++i) {
      const std::span<const int> r = relation(i);
      for (std::size_t centre = 0; centre < sigma_; ++centre) {
        centreWith_[i * p + static_cast<std::size_t>(r[centre])] |=
            std::uint64_t{1} << centre;
      }
    }
  }

  std::size_t sigma_;
  std::size_t width_;
  int p_;
  std::size_t count_;
  std::vector<int> coefficients_;  // the first count_ rows of width_
  std::vector<std::uint64_t> centreWith_;
  std::vector<int> dots_;
};

/// True iff the prime p obstructs the table (see the header).
bool obstructs(const LclTableD& table, int p) {
  const std::size_t sigma = static_cast<std::size_t>(table.sigma());
  std::vector<std::size_t> strides;  // of the dependent neighbour slots
  for (int slot = 0; slot < 2 * table.dims(); ++slot) {
    if ((table.deps() >> slot) & 1u) {
      strides.push_back(table.slotStrides()[slot]);
    }
  }
  const std::size_t positions = 1 + strides.size();
  Relations relations(sigma, positions, p);

  // One row per neighbour assignment; the strides are powers of sigma. The
  // walk visits them in a diagonal order -- step t reads row t's labels
  // and adds the stride-1 slot's label to every other slot, mod sigma --
  // a bijection under which every slot takes every label within the first
  // sigma steps. It stops once only the k identities "each position
  // carries exactly one label" are left, since no tuple breaks those.
  std::vector<std::size_t> columns(strides.size());
  const std::uint64_t* rows = table.rowData();
  for (std::size_t t = 0;
       t < table.rowCount() && relations.count() > positions; ++t) {
    std::size_t index = 0;
    for (std::size_t j = 0; j < strides.size(); ++j) {
      std::size_t label = t / strides[j] % sigma;
      if (strides[j] != 1) label = (label + t % sigma) % sigma;
      index += strides[j] * label;
      columns[j] = (j + 1) * sigma + label;
    }
    if (rows[index] != 0 && !relations.satisfiedBy(rows[index], columns)) {
      relations.addRow(rows[index], columns);
    }
  }

  // Every position set to the constant c: relation r reads
  // sum_a (sum over positions of r[position][a]) * c_a + r[constant] = 0.
  std::vector<std::vector<int>> system(relations.count());
  for (std::size_t i = 0; i < relations.count(); ++i) {
    const std::span<const int> r = relations.relation(i);
    std::vector<int>& row = system[i];
    row.assign(sigma + 1, 0);
    for (std::size_t position = 0; position < positions; ++position) {
      for (std::size_t a = 0; a < sigma; ++a) row[a] += r[position * sigma + a];
    }
    for (int& coefficient : row) coefficient %= p;
    row.back() = (p - r.back()) % p;
  }
  return !solvable(std::move(system), sigma, p);
}

}  // namespace

LinearCertificate linearCertificate(const LclTableD& table) {
  return {obstructs(table, 2), obstructs(table, 3)};
}

}  // namespace lclgrid
