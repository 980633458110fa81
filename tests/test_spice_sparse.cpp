#include "spice/sparse.h"

#include <random>

#include <gtest/gtest.h>

#include "spice/exceptions.h"
#include "util/contracts.h"

namespace {

using mpsram::spice::Sparse_lu;
using mpsram::spice::Sparse_matrix;

Sparse_matrix dense_pattern(std::size_t n)
{
    std::vector<std::pair<int, int>> entries;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            entries.push_back({static_cast<int>(i), static_cast<int>(j)});
        }
    }
    return Sparse_matrix(n, entries);
}

TEST(SparseMatrix, PatternMergesDuplicatesAndAddsDiagonal)
{
    const Sparse_matrix m(3, {{0, 1}, {0, 1}, {2, 0}});
    // Diagonal (3) + (0,1) + (2,0).
    EXPECT_EQ(m.nonzeros(), 5u);
    EXPECT_GE(m.slot(0, 0), 0);
    EXPECT_GE(m.slot(0, 1), 0);
    EXPECT_EQ(m.slot(0, 2), -1);
}

TEST(SparseMatrix, AddAccumulates)
{
    Sparse_matrix m(2, {{0, 1}});
    m.add(0, 1, 2.0);
    m.add(0, 1, 3.0);
    const auto row = m.dense_row(0);
    EXPECT_DOUBLE_EQ(row[1], 5.0);
}

TEST(SparseMatrix, AddOutsidePatternThrows)
{
    Sparse_matrix m(2, {});
    EXPECT_THROW(m.add(0, 1, 1.0), mpsram::util::Precondition_error);
}

TEST(SparseLu, Solves2x2)
{
    Sparse_matrix m = dense_pattern(2);
    m.add(0, 0, 4.0);
    m.add(0, 1, 1.0);
    m.add(1, 0, 2.0);
    m.add(1, 1, 3.0);

    Sparse_lu lu(m);
    lu.factor(m);
    std::vector<double> b = {9.0, 13.0};  // solution: x = (1.4, 3.4)
    lu.solve(b);
    EXPECT_NEAR(b[0], 1.4, 1e-12);
    EXPECT_NEAR(b[1], 3.4, 1e-12);
}

TEST(SparseLu, SolvesTridiagonalLadder)
{
    // Classic conductance ladder: -1 2 -1 tridiagonal.
    const std::size_t n = 50;
    std::vector<std::pair<int, int>> entries;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        entries.push_back({static_cast<int>(i), static_cast<int>(i + 1)});
        entries.push_back({static_cast<int>(i + 1), static_cast<int>(i)});
    }
    Sparse_matrix m(n, entries);
    for (std::size_t i = 0; i < n; ++i) {
        m.add(static_cast<int>(i), static_cast<int>(i), 2.0);
        if (i + 1 < n) {
            m.add(static_cast<int>(i), static_cast<int>(i + 1), -1.0);
            m.add(static_cast<int>(i + 1), static_cast<int>(i), -1.0);
        }
    }
    Sparse_lu lu(m);
    lu.factor(m);

    // Known solution: with b = A*x for x_i = i.
    std::vector<double> x_ref(n);
    for (std::size_t i = 0; i < n; ++i) x_ref[i] = static_cast<double>(i);
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = 2.0 * x_ref[i];
        if (i > 0) b[i] -= x_ref[i - 1];
        if (i + 1 < n) b[i] -= x_ref[i + 1];
    }
    lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(b[i], x_ref[i], 1e-9) << "row " << i;
    }
}

TEST(SparseLu, TridiagonalHasNoFill)
{
    const std::size_t n = 100;
    std::vector<std::pair<int, int>> entries;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        entries.push_back({static_cast<int>(i), static_cast<int>(i + 1)});
        entries.push_back({static_cast<int>(i + 1), static_cast<int>(i)});
    }
    const Sparse_matrix m(n, entries);
    const Sparse_lu lu(m);
    // L has n-1 entries, U has n diag + n-1 upper = fill-free.
    EXPECT_EQ(lu.fill_nonzeros(), (n - 1) + (2 * n - 1));
}

TEST(SparseLu, SingularMatrixThrows)
{
    Sparse_matrix m = dense_pattern(2);
    m.add(0, 0, 1.0);
    m.add(0, 1, 1.0);
    m.add(1, 0, 1.0);
    m.add(1, 1, 1.0);  // rank 1
    Sparse_lu lu(m);
    EXPECT_THROW(lu.factor(m), mpsram::spice::Singular_matrix_error);
}

TEST(SparseLu, ZeroDiagonalResolvedByFill)
{
    // MNA-style: [0 1; 1 0] has zero diagonals but is perfectly solvable
    // once elimination creates fill... with diagonal pivoting and no row
    // swap this specific matrix is NOT factorizable -> must throw, and
    // callers (the MNA layer) must order equations to avoid it.
    Sparse_matrix m = dense_pattern(2);
    m.add(0, 1, 1.0);
    m.add(1, 0, 1.0);
    Sparse_lu lu(m);
    EXPECT_THROW(lu.factor(m), mpsram::spice::Singular_matrix_error);
}

class RandomSpdTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSpdTest, FactorSolveResidualSmall)
{
    // Property: for random diagonally dominant sparse systems, the
    // LU-solve residual ||Ax - b|| stays tiny.
    const int seed = GetParam();
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::uniform_real_distribution<double> val(0.1, 2.0);
    std::uniform_int_distribution<int> pick(0, 39);

    const std::size_t n = 40;
    std::vector<std::pair<int, int>> entries;
    std::vector<std::tuple<int, int, double>> offdiag;
    for (int k = 0; k < 120; ++k) {
        const int i = pick(rng);
        const int j = pick(rng);
        if (i == j) continue;
        const double g = val(rng);
        entries.push_back({i, j});
        entries.push_back({j, i});
        offdiag.push_back({i, j, g});
    }
    Sparse_matrix m(n, entries);
    std::vector<double> diag(n, 1e-3);  // gmin-style floor
    for (const auto& [i, j, g] : offdiag) {
        m.add(i, j, -g);
        m.add(j, i, -g);
        diag[static_cast<std::size_t>(i)] += g;
        diag[static_cast<std::size_t>(j)] += g;
    }
    for (std::size_t i = 0; i < n; ++i) {
        m.add(static_cast<int>(i), static_cast<int>(i), diag[i]);
    }

    Sparse_lu lu(m);
    lu.factor(m);

    std::vector<double> b(n);
    for (double& x : b) x = val(rng);
    std::vector<double> x = b;
    lu.solve(x);

    // Residual check against the dense rows.
    for (std::size_t i = 0; i < n; ++i) {
        const auto row = m.dense_row(static_cast<int>(i));
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
        EXPECT_NEAR(acc, b[i], 1e-9) << "row " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpdTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
