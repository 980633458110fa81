#include "pattern/euv.h"

#include <gtest/gtest.h>

#include "sram/layout.h"
#include "tech/technology.h"
#include "util/contracts.h"
#include "util/units.h"

namespace {

using namespace mpsram;
namespace units = mpsram::units;

geom::Wire_array nominal_array()
{
    sram::Array_config cfg;
    cfg.word_lines = 8;
    cfg.bl_pairs = 4;
    return sram::build_metal1_array(tech::n10(), cfg);
}

TEST(Euv, SingleVariationAxis)
{
    const pattern::Euv_engine engine(tech::n10());
    ASSERT_EQ(engine.axes().size(), 1u);
    EXPECT_EQ(engine.axes()[0].name, "cd");
    EXPECT_NEAR(engine.axes()[0].sigma, 1.0 * units::nm, 1e-15);
}

TEST(Euv, DecomposeAssignsSingleMask)
{
    const pattern::Euv_engine engine(tech::n10());
    const geom::Wire_array arr = engine.decompose(nominal_array());
    for (std::size_t i = 0; i < arr.size(); ++i) {
        EXPECT_EQ(arr[i].color, geom::Mask_color::mask_a);
        EXPECT_EQ(arr[i].sadp, geom::Sadp_class::none);
    }
}

TEST(Euv, UniformCdBiasMovesAllWidthsTogether)
{
    const pattern::Euv_engine engine(tech::n10());
    const geom::Wire_array arr = engine.decompose(nominal_array());

    pattern::Process_sample s = {2.5 * units::nm};
    const geom::Wire_array realized = engine.realize(arr, s);
    for (std::size_t i = 0; i < arr.size(); ++i) {
        EXPECT_NEAR(realized[i].width - arr[i].width, 2.5 * units::nm,
                    1e-18);
        EXPECT_DOUBLE_EQ(realized[i].y_center, arr[i].y_center);
    }
}

TEST(Euv, SpacingShrinksByExactlyTheCd)
{
    const tech::Technology t = tech::n10();
    const pattern::Euv_engine engine(t);
    const geom::Wire_array arr = engine.decompose(nominal_array());

    pattern::Process_sample s = {3.0 * units::nm};
    const geom::Wire_array realized = engine.realize(arr, s);
    for (std::size_t i = 0; i + 1 < realized.size(); ++i) {
        EXPECT_NEAR(realized.spacing_above(i),
                    t.metal1.nominal_space() - 3.0 * units::nm, 1e-17);
    }
}

TEST(Euv, NominalSampleIsIdentity)
{
    const pattern::Euv_engine engine(tech::n10());
    const geom::Wire_array arr = engine.decompose(nominal_array());
    const geom::Wire_array realized =
        engine.realize(arr, engine.nominal_sample());
    for (std::size_t i = 0; i < arr.size(); ++i) {
        EXPECT_DOUBLE_EQ(realized[i].width, arr[i].width);
    }
}

TEST(Euv, ValidatesSampleAndPinchOff)
{
    const pattern::Euv_engine engine(tech::n10());
    const geom::Wire_array arr = engine.decompose(nominal_array());
    EXPECT_THROW(engine.realize(arr, std::vector<double>{}),
                 util::Precondition_error);
    EXPECT_THROW(engine.realize(arr, std::vector<double>{-30e-9}),
                 util::Postcondition_error);
}

TEST(EngineFactory, BuildsEveryOption)
{
    const tech::Technology t = tech::n10();
    for (const auto option : tech::patterning_option_tokens.values) {
        const auto engine = pattern::make_engine(option, t);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->option(), option);
        EXPECT_EQ(engine->name(), tech::to_string(option));
        EXPECT_FALSE(engine->axes().empty());
    }
}

TEST(EngineFactory, GaussianSamplesRespectTruncation)
{
    const tech::Technology t = tech::n10();
    const auto engine = pattern::make_engine(tech::Patterning_option::le3, t);
    util::Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const auto s = engine->sample_gaussian(rng, 3.0);
        ASSERT_EQ(s.size(), engine->axes().size());
        for (std::size_t a = 0; a < s.size(); ++a) {
            EXPECT_LE(std::abs(s[a]), 3.0 * engine->axes()[a].sigma + 1e-18);
        }
    }
}

} // namespace
