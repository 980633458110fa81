#include "util/check.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/runner.h"
#include "spice/analysis.h"
#include "spice/circuit.h"
#include "util/contracts.h"

namespace {

using namespace mpsram;

constexpr double quiet_nan = std::numeric_limits<double>::quiet_NaN();

TEST(Check, AllFinite)
{
    EXPECT_TRUE(util::all_finite({}));
    EXPECT_TRUE(util::all_finite({0.0, -1.5, 1e300}));
    EXPECT_FALSE(util::all_finite({0.0, quiet_nan}));
    EXPECT_FALSE(
        util::all_finite({std::numeric_limits<double>::infinity()}));
}

TEST(Check, PassingCheckIsSilentInEveryBuild)
{
    const double x = 1.0;
    MPSRAM_ASSERT(x > 0.0, "positive stays positive", MPSRAM_VAL(x));
    MPSRAM_REQUIRE(x < 2.0, "small stays small");
    MPSRAM_ENSURE(std::isfinite(x), "finite stays finite", MPSRAM_VAL(x));
    SUCCEED();
}

TEST(Check, EvaluationMatchesBuildMode)
{
    // Checked builds evaluate the condition (and fire nothing when it
    // holds); unchecked builds must not evaluate it at all — the macros
    // are documented as side-effect free because of exactly this.
    int calls = 0;
    auto probe = [&calls] {
        ++calls;
        return true;
    };
    MPSRAM_ASSERT(probe(), "side-effect probe");
#ifdef MPSRAM_CHECKED
    EXPECT_EQ(calls, 1);
#else
    EXPECT_EQ(calls, 0);
#endif
}

TEST(Check, CheckedSlotAcceptsInRangeIndex)
{
    core::Run_context ctx;
    ctx.job_index = 2;
    ctx.worker = 1;
    EXPECT_EQ(core::checked_slot(ctx, 4), 2u);
    EXPECT_EQ(core::checked_worker(ctx, 4), 1u);
}

TEST(Check, CheckedSlotRejectsOutOfRangeIndex)
{
    core::Run_context ctx;
    ctx.job_index = 7;  // plan slot beyond a 4-row result vector
    ctx.worker = -1;    // bogus worker id
#ifdef MPSRAM_CHECKED
    EXPECT_THROW(core::checked_slot(ctx, 4), util::Contract_error);
    EXPECT_THROW(core::checked_worker(ctx, 4), util::Contract_error);
#else
    // Compiled out: the helpers degrade to plain pass-throughs.
    EXPECT_EQ(core::checked_slot(ctx, 4), 7u);
#endif
}

#ifdef MPSRAM_CHECKED

TEST(Check, FailureMessageNamesEverything)
{
    const int limit = 3;
    const int value = 9;
    try {
        MPSRAM_REQUIRE(value < limit, "value exceeded the limit",
                       MPSRAM_VAL(value), MPSRAM_VAL(limit));
        FAIL() << "contract should have fired";
    } catch (const util::Contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MPSRAM_REQUIRE"), std::string::npos) << what;
        EXPECT_NE(what.find("value < limit"), std::string::npos) << what;
        EXPECT_NE(what.find("test_util_check.cpp"), std::string::npos)
            << what;
        EXPECT_NE(what.find("value exceeded the limit"), std::string::npos)
            << what;
        EXPECT_NE(what.find("value = 9"), std::string::npos) << what;
        EXPECT_NE(what.find("limit = 3"), std::string::npos) << what;
    }
}

TEST(Check, FloatCapturesKeepFullPrecision)
{
    const double piv = 0.1;
    try {
        MPSRAM_ASSERT(piv > 1.0, "pivot too small", MPSRAM_VAL(piv));
        FAIL() << "contract should have fired";
    } catch (const util::Contract_error& e) {
        // max_digits10 round-trips the double exactly.
        EXPECT_NE(std::string(e.what()).find("piv = 0.1000000000000000"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Check, IndexFormReportsBothSides)
{
    const std::size_t i = 12;
    const std::size_t n = 10;
    try {
        MPSRAM_REQUIRE_INDEX(i, n);
        FAIL() << "contract should have fired";
    } catch (const util::Contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("index out of range"), std::string::npos)
            << what;
        EXPECT_NE(what.find("12"), std::string::npos) << what;
        EXPECT_NE(what.find("10"), std::string::npos) << what;
    }
}

#endif // MPSRAM_CHECKED

TEST(Check, CheckedBuildRejectsNanCurrentSource)
{
    // Every element parameter but a source waveform is validated at
    // construction, so a NaN waveform value is how a non-finite stamp
    // reaches the assembly outside the MOSFET bank.
#ifndef MPSRAM_CHECKED
    GTEST_SKIP() << "contract layer compiled out in this build";
#else
    spice::Circuit c;
    const spice::Node n1 = c.node("n1");
    c.add_voltage_source("V1", n1, spice::ground_node,
                         spice::Waveform::dc(1.0));
    const spice::Node n2 = c.node("n2");
    c.add_resistor("R1", n1, n2, 1000.0);
    c.add_current_source("INAN", spice::ground_node, n2,
                         spice::Waveform::dc(quiet_nan));

    // Without the stamp guard the NaN sails through assembly, defeats the
    // pivot-floor test (fabs(NaN) < floor is false), and Newton "converges"
    // because fabs(NaN delta) > tol is also false — a silent wrong answer.
    try {
        spice::dc_operating_point(c);
        ADD_FAILURE() << "a NaN current source was not caught";
    } catch (const util::Contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("non-finite RHS stamp"), std::string::npos)
            << what;
    }
#endif
}

TEST(Check, CheckedBuildRejectsNanStampedMosfet)
{
    // The MNA system's MOSFET bank keeps the per-stamp finiteness guard.
    // A NaN beta passes the model's parameter checks and poisons every
    // stamp.
#ifndef MPSRAM_CHECKED
    GTEST_SKIP() << "contract layer compiled out in this build";
#else
    spice::Circuit c;
    const spice::Node vdd = c.node("vdd");
    c.add_voltage_source("Vdd", vdd, spice::ground_node,
                         spice::Waveform::dc(0.7));
    const spice::Node out = c.node("out");
    c.add_resistor("R1", vdd, out, 1000.0);
    spice::Mosfet_params bad;
    bad.beta = quiet_nan;
    c.add_mosfet("MNAN", out, vdd, spice::ground_node, bad);
    try {
        spice::dc_operating_point(c);
        ADD_FAILURE() << "a NaN-stamped MOSFET was not caught";
    } catch (const util::Contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("non-finite Jacobian stamp"), std::string::npos)
            << what;
    }
#endif
}

} // namespace
