#include "util/numeric.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/contracts.h"

namespace {

using mpsram::util::bisect;
using mpsram::util::lerp;
using mpsram::util::Piecewise_linear;
using mpsram::util::polyval;
using mpsram::util::rel_diff;
using mpsram::util::segment_crossing;

TEST(Lerp, InterpolatesAndExtrapolates)
{
    EXPECT_DOUBLE_EQ(lerp(0.0, 0.0, 1.0, 10.0, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(lerp(0.0, 0.0, 1.0, 10.0, 2.0), 20.0);
    EXPECT_THROW(lerp(1.0, 0.0, 1.0, 1.0, 0.5),
                 mpsram::util::Precondition_error);
}

TEST(PiecewiseLinear, AtClampsOutsideRange)
{
    const Piecewise_linear w({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
    EXPECT_DOUBLE_EQ(w.at(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(w.at(3.0), 0.0);
    EXPECT_DOUBLE_EQ(w.at(0.5), 5.0);
    EXPECT_DOUBLE_EQ(w.at(1.5), 5.0);
}

TEST(PiecewiseLinear, AppendEnforcesMonotoneX)
{
    Piecewise_linear w;
    w.append(0.0, 1.0);
    w.append(1.0, 2.0);
    EXPECT_THROW(w.append(0.5, 3.0), mpsram::util::Precondition_error);
}

TEST(PiecewiseLinear, ConstructorValidates)
{
    EXPECT_THROW(Piecewise_linear({0.0, 0.0}, {1.0, 2.0}),
                 mpsram::util::Precondition_error);
    EXPECT_THROW(Piecewise_linear({0.0}, {1.0, 2.0}),
                 mpsram::util::Precondition_error);
}

TEST(PiecewiseLinear, FirstCrossingRising)
{
    const Piecewise_linear w({0.0, 1.0, 2.0}, {0.0, 1.0, 1.0});
    EXPECT_NEAR(w.first_crossing(0.5), 0.5, 1e-12);
    EXPECT_NEAR(w.first_crossing(1.0), 1.0, 1e-12);
}

TEST(PiecewiseLinear, FirstCrossingFalling)
{
    const Piecewise_linear w({0.0, 2.0}, {1.0, 0.0});
    EXPECT_NEAR(w.first_crossing(0.25), 1.5, 1e-12);
}

TEST(PiecewiseLinear, FirstCrossingHonorsFrom)
{
    // Crosses 0.5 upward at t=0.5 and downward at t=2.5.
    const Piecewise_linear w({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 1.0, 0.0});
    EXPECT_NEAR(w.first_crossing(0.5, 1.2), 2.5, 1e-12);
}

TEST(PiecewiseLinear, FirstCrossingMissReturnsNegative)
{
    const Piecewise_linear w({0.0, 1.0}, {0.0, 0.4});
    EXPECT_LT(w.first_crossing(0.5), 0.0);
}

TEST(PiecewiseLinear, FirstCrossingFlatAtLevelSpanningFrom)
{
    // Regression: the segment [1, 2] starts exactly at the level with its
    // start before `from` and stays flat at the level.  The old code
    // skipped it entirely (the y0 == 0 early-return was gated on
    // xs_[i-1] >= from and the sign-change test excluded y0 == 0) and
    // returned -1; the waveform is at the level at `from` itself.
    const Piecewise_linear w({0.0, 1.0, 2.0}, {0.0, 0.5, 0.5});
    EXPECT_DOUBLE_EQ(w.first_crossing(0.5, 1.5), 1.5);
    // Start of the flat run at-or-after `from` keeps reporting the sample.
    EXPECT_DOUBLE_EQ(w.first_crossing(0.5, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(w.first_crossing(0.5, 0.5), 1.0);
}

TEST(PiecewiseLinear, FirstCrossingLeavesLevelBeforeFrom)
{
    // Touches the level only at x=0, before `from`, then leaves: no
    // crossing to report.
    const Piecewise_linear w({0.0, 1.0, 2.0}, {0.5, 1.0, 2.0});
    EXPECT_LT(w.first_crossing(0.5, 0.25), 0.0);
    // ... but the touch itself counts when `from` is at or before it.
    EXPECT_DOUBLE_EQ(w.first_crossing(0.5, 0.0), 0.0);
}

TEST(PiecewiseLinear, FirstCrossingSingleSample)
{
    const Piecewise_linear at_level({1.0}, {0.5});
    EXPECT_DOUBLE_EQ(at_level.first_crossing(0.5), 1.0);
    EXPECT_LT(at_level.first_crossing(0.5, 2.0), 0.0);
    const Piecewise_linear off_level({1.0}, {0.4});
    EXPECT_LT(off_level.first_crossing(0.5), 0.0);
}

TEST(SegmentCrossing, InterpolatesInsideTheSegment)
{
    EXPECT_DOUBLE_EQ(*segment_crossing(0.0, 0.0, 2.0, 1.0, 0.25, 0.0), 0.5);
    EXPECT_DOUBLE_EQ(*segment_crossing(0.0, 1.0, 2.0, 0.0, 0.25, 0.0), 1.5);
    EXPECT_FALSE(segment_crossing(0.0, 0.0, 1.0, 0.4, 0.5, 0.0));
}

TEST(SegmentCrossing, StartAtLevel)
{
    // y0 == level at or after `from`: the start sample is the crossing.
    EXPECT_DOUBLE_EQ(*segment_crossing(1.0, 0.5, 2.0, 0.9, 0.5, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(*segment_crossing(1.0, 0.5, 2.0, 0.9, 0.5, 0.0), 1.0);
    // y0 == level before `from`: flat at the level reports `from`; a
    // segment leaving the level has no crossing.
    EXPECT_DOUBLE_EQ(*segment_crossing(1.0, 0.5, 2.0, 0.5, 0.5, 1.5), 1.5);
    EXPECT_FALSE(segment_crossing(1.0, 0.5, 2.0, 0.9, 0.5, 1.5));
    EXPECT_FALSE(segment_crossing(1.0, 0.5, 2.0, 0.1, 0.5, 1.5));
}

TEST(SegmentCrossing, CrossingBeforeFrom)
{
    // Crosses 0.25 at x = 0.5: reported from 0.5 on, not after it.
    EXPECT_DOUBLE_EQ(*segment_crossing(0.0, 0.0, 2.0, 1.0, 0.25, 0.5), 0.5);
    EXPECT_FALSE(segment_crossing(0.0, 0.0, 2.0, 1.0, 0.25, 1.0));
    // A segment ending before `from` never crosses, even at its end.
    EXPECT_FALSE(segment_crossing(0.0, 0.0, 2.0, 1.0, 1.0, 2.5));
}

TEST(Polyval, EvaluatesHornerForm)
{
    // 2 + 3x + 4x^2 at x=2 -> 2 + 6 + 16 = 24
    EXPECT_DOUBLE_EQ(polyval({2.0, 3.0, 4.0}, 2.0), 24.0);
    EXPECT_DOUBLE_EQ(polyval({}, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(polyval({7.0}, 5.0), 7.0);
}

TEST(Bisect, FindsSqrtTwo)
{
    const double root =
        bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0, 1e-13);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-12);
}

TEST(Bisect, EndpointRoots)
{
    EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(bisect([](double x) { return x - 1.0; }, 0.0, 1.0),
                     1.0);
}

TEST(Bisect, RequiresSignChange)
{
    EXPECT_THROW(bisect([](double) { return 1.0; }, 0.0, 1.0),
                 mpsram::util::Precondition_error);
}

TEST(RelDiff, BasicProperties)
{
    EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
    EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
    EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
    // Symmetric.
    EXPECT_DOUBLE_EQ(rel_diff(2.0, 3.0), rel_diff(3.0, 2.0));
}

TEST(NormalQuantile, CentralAndModerateTailsRoundTrip)
{
    using mpsram::util::normal_cdf;
    using mpsram::util::normal_quantile;
    for (const double p : {0.01, 0.1, 0.5, 0.9, 0.99, 1e-6, 1.0 - 1e-6}) {
        EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12 + 1e-9 * p);
    }
}

TEST(NormalQuantile, ExtremeTailsStayFinite)
{
    using mpsram::util::normal_quantile;
    // Regression: at p ~ 1e-300 the z estimate sits near -37 where the
    // normal pdf underflows to 0; the Newton refinement used to divide by
    // it and return NaN/Inf.  The guarded version keeps the rational
    // approximation.
    const double z_low = normal_quantile(1e-300);
    ASSERT_TRUE(std::isfinite(z_low));
    EXPECT_LT(z_low, -36.0);
    EXPECT_GT(z_low, -38.5);

    // Near 1 the refinement still applies (pdf ~ 6e-16 at z ~ 8.2) and
    // must stay finite and monotone with the tail.
    const double z_high = normal_quantile(1.0 - 1e-16);
    ASSERT_TRUE(std::isfinite(z_high));
    EXPECT_GT(z_high, 7.5);
    EXPECT_LT(z_high, 8.7);

    // Symmetric spot checks deep in both tails.
    for (const double p : {1e-200, 1e-100, 1e-50}) {
        const double zl = normal_quantile(p);
        const double zh = normal_quantile(1.0 - 1e-16);
        ASSERT_TRUE(std::isfinite(zl));
        ASSERT_TRUE(std::isfinite(zh));
        EXPECT_LT(zl, -14.0);
    }
}

class CrossingConsistencyTest : public ::testing::TestWithParam<double> {};

TEST_P(CrossingConsistencyTest, ValueAtCrossingEqualsLevel)
{
    // Property: at the reported crossing time, the interpolated waveform
    // equals the level (within numerical tolerance).
    const double level = GetParam();
    const Piecewise_linear w({0.0, 1.0, 2.0, 3.0, 4.0},
                             {0.0, 0.8, 0.2, 0.9, 0.1});
    const double t = w.first_crossing(level);
    ASSERT_GE(t, 0.0);
    EXPECT_NEAR(w.at(t), level, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Levels, CrossingConsistencyTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.85));

} // namespace
