#include "spice/sparse.h"

#include <algorithm>
#include <cmath>

#include "spice/exceptions.h"
#include "util/check.h"
#include "util/contracts.h"

namespace mpsram::spice {

// --- Sparse_matrix -----------------------------------------------------------

Sparse_matrix::Sparse_matrix(std::size_t n,
                             const std::vector<std::pair<int, int>>& entries)
    : n_(n)
{
    util::expects(n > 0, "matrix must be non-empty");

    // Gather per-row column sets (including the full diagonal).
    std::vector<std::vector<int>> row_cols(n);
    for (std::size_t i = 0; i < n; ++i) {
        row_cols[i].push_back(static_cast<int>(i));
    }
    for (const auto& [r, c] : entries) {
        util::expects(r >= 0 && static_cast<std::size_t>(r) < n &&
                          c >= 0 && static_cast<std::size_t>(c) < n,
                      "pattern entry out of range");
        row_cols[static_cast<std::size_t>(r)].push_back(c);
    }

    row_ptr_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        auto& rc = row_cols[i];
        std::sort(rc.begin(), rc.end());
        rc.erase(std::unique(rc.begin(), rc.end()), rc.end());
        row_ptr_[i + 1] = row_ptr_[i] + static_cast<int>(rc.size());
    }
    cols_.reserve(static_cast<std::size_t>(row_ptr_[n]));
    for (std::size_t i = 0; i < n; ++i) {
        cols_.insert(cols_.end(), row_cols[i].begin(), row_cols[i].end());
    }
    values_.assign(cols_.size(), 0.0);
}

int Sparse_matrix::slot(int row, int col) const
{
    const auto lo = cols_.begin() + row_ptr_[static_cast<std::size_t>(row)];
    const auto hi =
        cols_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
    const auto it = std::lower_bound(lo, hi, col);
    if (it == hi || *it != col) return -1;
    return static_cast<int>(it - cols_.begin());
}

void Sparse_matrix::add(int row, int col, double v)
{
    const int s = slot(row, col);
    util::expects(s >= 0, "stamp outside the assembled pattern");
    values_[static_cast<std::size_t>(s)] += v;
}

void Sparse_matrix::residual(const std::vector<double>& rhs,
                             const std::vector<double>& x,
                             std::vector<double>& r) const
{
    util::expects(x.size() == n_ && rhs.size() == n_,
                  "residual operand size mismatch");
    r.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        double acc = 0.0;
        for (int s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) {
            acc += values_[static_cast<std::size_t>(s)] *
                   x[static_cast<std::size_t>(cols_[static_cast<std::size_t>(s)])];
        }
        r[i] = rhs[i] - acc;
    }
}

std::vector<double> Sparse_matrix::dense_row(int row) const
{
    std::vector<double> out(n_, 0.0);
    for (int s = row_ptr_[static_cast<std::size_t>(row)];
         s < row_ptr_[static_cast<std::size_t>(row) + 1]; ++s) {
        out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(s)])] =
            values_[static_cast<std::size_t>(s)];
    }
    return out;
}

// --- Sparse_lu ---------------------------------------------------------------

Sparse_lu::Sparse_lu(const Sparse_matrix& pattern) : n_(pattern.size())
{
    // Symbolic factorization by row merging: the filled pattern of row i is
    // its original pattern united with the U-patterns of every L column it
    // touches, processed in ascending column order.
    std::vector<std::vector<int>> u_rows(n_);  // cols >= row, sorted
    std::vector<std::vector<int>> l_rows(n_);  // cols < row, sorted

    std::vector<char> in_row(n_, 0);
    std::vector<int> work;

    const auto& rp = pattern.row_ptr();
    const auto& pc = pattern.cols();

    for (std::size_t i = 0; i < n_; ++i) {
        work.clear();
        for (int s = rp[i]; s < rp[i + 1]; ++s) {
            const int c = pc[static_cast<std::size_t>(s)];
            if (!in_row[static_cast<std::size_t>(c)]) {
                in_row[static_cast<std::size_t>(c)] = 1;
                work.push_back(c);
            }
        }
        std::sort(work.begin(), work.end());

        // Process L columns in ascending order, merging fill as we go.
        // `work` stays sorted; we walk it with an index since it grows.
        for (std::size_t wi = 0; wi < work.size(); ++wi) {
            const int k = work[wi];
            if (k >= static_cast<int>(i)) break;
            bool added = false;
            for (int c : u_rows[static_cast<std::size_t>(k)]) {
                if (c <= k) continue;
                if (!in_row[static_cast<std::size_t>(c)]) {
                    in_row[static_cast<std::size_t>(c)] = 1;
                    work.push_back(c);
                    added = true;
                }
            }
            if (added) {
                std::sort(work.begin() + static_cast<std::ptrdiff_t>(wi) + 1,
                          work.end());
            }
        }

        for (int c : work) {
            in_row[static_cast<std::size_t>(c)] = 0;
            if (c < static_cast<int>(i)) {
                l_rows[i].push_back(c);
            } else {
                u_rows[i].push_back(c);
            }
        }
        util::invariant(!u_rows[i].empty() &&
                            u_rows[i].front() == static_cast<int>(i),
                        "diagonal entry missing from filled pattern");
    }

    // Flatten.
    l_row_ptr_.assign(n_ + 1, 0);
    u_row_ptr_.assign(n_ + 1, 0);
    for (std::size_t i = 0; i < n_; ++i) {
        l_row_ptr_[i + 1] = l_row_ptr_[i] + static_cast<int>(l_rows[i].size());
        u_row_ptr_[i + 1] = u_row_ptr_[i] + static_cast<int>(u_rows[i].size());
    }
    l_cols_flat_.reserve(static_cast<std::size_t>(l_row_ptr_[n_]));
    u_cols_flat_.reserve(static_cast<std::size_t>(u_row_ptr_[n_]));
    for (std::size_t i = 0; i < n_; ++i) {
        l_cols_flat_.insert(l_cols_flat_.end(), l_rows[i].begin(),
                            l_rows[i].end());
        u_cols_flat_.insert(u_cols_flat_.end(), u_rows[i].begin(),
                            u_rows[i].end());
    }
    l_values_.assign(l_cols_flat_.size(), 0.0);
    u_values_.assign(u_cols_flat_.size(), 0.0);
    diag_inv_.assign(n_, 0.0);
    work_.assign(n_, 0.0);
}

void Sparse_lu::factor(const Sparse_matrix& a, double pivot_floor)
{
    util::expects(a.size() == n_, "matrix size mismatch");

    // Dense row scratch; all zero between rows (the elimination loop
    // clears the L entries, the gather loop the U entries).
    std::vector<double>& work = work_;

    const auto& rp = a.row_ptr();
    const auto& pc = a.cols();
    const auto& pv = a.values();

    for (std::size_t i = 0; i < n_; ++i) {
        // Scatter row i of A into the dense workspace.
        for (int s = rp[i]; s < rp[i + 1]; ++s) {
            work[static_cast<std::size_t>(pc[static_cast<std::size_t>(s)])] =
                pv[static_cast<std::size_t>(s)];
        }

        // Eliminate with previous rows along the filled L pattern
        // (ascending column order by construction).
        for (int ls = l_row_ptr_[i]; ls < l_row_ptr_[i + 1]; ++ls) {
            const int k = l_cols_flat_[static_cast<std::size_t>(ls)];
            const double f =
                work[static_cast<std::size_t>(k)] *
                diag_inv_[static_cast<std::size_t>(k)];
            l_values_[static_cast<std::size_t>(ls)] = f;
            work[static_cast<std::size_t>(k)] = 0.0;
            // Subtract f * U_row(k) (skipping the diagonal, handled above).
            const std::size_t ku = static_cast<std::size_t>(k);
            for (int us = u_row_ptr_[ku] + 1; us < u_row_ptr_[ku + 1]; ++us) {
                work[static_cast<std::size_t>(
                    u_cols_flat_[static_cast<std::size_t>(us)])] -=
                    f * u_values_[static_cast<std::size_t>(us)];
            }
        }

        // Gather the U part.
        for (int us = u_row_ptr_[i]; us < u_row_ptr_[i + 1]; ++us) {
            const int c = u_cols_flat_[static_cast<std::size_t>(us)];
            u_values_[static_cast<std::size_t>(us)] =
                work[static_cast<std::size_t>(c)];
            work[static_cast<std::size_t>(c)] = 0.0;
        }

        const double piv =
            u_values_[static_cast<std::size_t>(u_row_ptr_[i])];
        // NaN slips past the floor test below (every NaN comparison is
        // false) and would poison the whole back-substitution.
        MPSRAM_ASSERT(std::isfinite(piv), "non-finite LU pivot",
                      MPSRAM_VAL(piv), MPSRAM_VAL(i));
        if (std::fabs(piv) < pivot_floor) {
            throw Singular_matrix_error(
                "near-zero pivot at row " + std::to_string(i));
        }
        diag_inv_[i] = 1.0 / piv;
    }
}

void Sparse_lu::solve(std::vector<double>& b) const
{
    util::expects(b.size() == n_, "rhs size mismatch");

    // Forward: L y = b (unit diagonal).
    for (std::size_t i = 0; i < n_; ++i) {
        double acc = b[i];
        for (int ls = l_row_ptr_[i]; ls < l_row_ptr_[i + 1]; ++ls) {
            acc -= l_values_[static_cast<std::size_t>(ls)] *
                   b[static_cast<std::size_t>(
                       l_cols_flat_[static_cast<std::size_t>(ls)])];
        }
        b[i] = acc;
    }

    // Backward: U x = y.
    for (std::size_t ii = n_; ii-- > 0;) {
        double acc = b[ii];
        for (int us = u_row_ptr_[ii] + 1; us < u_row_ptr_[ii + 1]; ++us) {
            acc -= u_values_[static_cast<std::size_t>(us)] *
                   b[static_cast<std::size_t>(
                       u_cols_flat_[static_cast<std::size_t>(us)])];
        }
        b[ii] = acc * diag_inv_[ii];
    }
}

} // namespace mpsram::spice
