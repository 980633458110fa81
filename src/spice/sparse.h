// Sparse linear algebra for the MNA engine.
//
// Row-compressed matrix with a split symbolic/numeric LU:
//   * the nonzero pattern is fixed once per analysis (device connectivity
//     does not change between Newton iterations), so fill-in is computed
//     a single time and every refactorization reuses the structure;
//   * factorization is up-looking row LU with diagonal pivoting.  MNA
//     conductance matrices with gmin on every diagonal are close to
//     diagonally dominant, so diagonal pivoting is numerically safe;
//     voltage-source branch rows are ordered last, where elimination fill
//     has already populated their diagonal.  A near-zero pivot throws
//     Singular_matrix_error rather than silently producing garbage.
//
// Natural ordering is used: netlist builders create nodes along the
// physical structure (e.g. down a bit line), which keeps the profile
// banded without a separate ordering pass.
#ifndef MPSRAM_SPICE_SPARSE_H
#define MPSRAM_SPICE_SPARSE_H

#include <cstddef>
#include <vector>

namespace mpsram::spice {

/// Fixed-pattern sparse square matrix in CSR form with value access by
/// bound slot or by (row, col) binary search.
class Sparse_matrix {
public:
    /// Build the pattern from (row, col) pairs; duplicates are merged and
    /// all diagonal entries are added unconditionally.
    Sparse_matrix(std::size_t n,
                  const std::vector<std::pair<int, int>>& entries);

    std::size_t size() const { return n_; }
    std::size_t nonzeros() const { return cols_.size(); }

    /// values[slot(row,col)] += v.  (row, col) must be in the pattern.
    /// A binary search per call: for setup and tests, not hot loops.
    void add(int row, int col, double v);

    /// Slot index of (row, col), or -1 if not in pattern.
    int slot(int row, int col) const;

    /// Values by slot, for owners that bind slots once (the MNA stamp
    /// program writes every entry through this).
    double* value_data() { return values_.data(); }

    /// r = rhs - A x in one pass (serial, deterministic: each row's
    /// products summed in column order from 0.0, then subtracted from
    /// rhs).  The residual of the factorization-reuse Newton path.
    void residual(const std::vector<double>& rhs,
                  const std::vector<double>& x, std::vector<double>& r) const;

    const std::vector<int>& row_ptr() const { return row_ptr_; }
    const std::vector<int>& cols() const { return cols_; }
    const std::vector<double>& values() const { return values_; }

    /// Dense row extraction (tests/diagnostics).
    std::vector<double> dense_row(int row) const;

private:
    std::size_t n_;
    std::vector<int> row_ptr_;   ///< size n+1
    std::vector<int> cols_;      ///< sorted within each row
    std::vector<double> values_;
};

/// Symbolic + numeric LU of a Sparse_matrix pattern.
class Sparse_lu {
public:
    /// Compute fill-in for the given pattern (one-time cost).
    explicit Sparse_lu(const Sparse_matrix& pattern);

    /// Numeric factorization of the matrix values (same pattern as the
    /// constructor argument).  Throws Singular_matrix_error on a pivot
    /// whose magnitude falls below `pivot_floor`.
    void factor(const Sparse_matrix& a, double pivot_floor = 1e-13);

    /// Solve L U x = b in place.
    void solve(std::vector<double>& b) const;

    std::size_t fill_nonzeros() const { return u_cols_flat_.size() + l_cols_flat_.size(); }

private:
    std::size_t n_;

    // Filled pattern, per row: L columns (< row) and U columns (>= row).
    std::vector<int> l_row_ptr_;
    std::vector<int> l_cols_flat_;
    std::vector<int> u_row_ptr_;
    std::vector<int> u_cols_flat_;

    // Numeric values aligned with the flat column arrays.
    std::vector<double> l_values_;
    std::vector<double> u_values_;
    std::vector<double> diag_inv_;
    std::vector<double> work_;  ///< factor() row scratch, kept all zero

    // First U slot per row is the diagonal (enforced during symbolic).
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_SPARSE_H
