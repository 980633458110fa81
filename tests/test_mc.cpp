#include "mc/distribution.h"
#include "mc/worst_case.h"

#include <gtest/gtest.h>

#include "analytic/params.h"
#include "pattern/engine.h"
#include "sram/bitline_model.h"
#include "tech/technology.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace mpsram;

struct Fixture {
    tech::Technology t = tech::n10();
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    std::unique_ptr<pattern::Patterning_engine> engine;
    geom::Wire_array nominal;
    sram::Victim_wires victims;
    analytic::Td_params params;

    explicit Fixture(tech::Patterning_option option)
    {
        cfg.word_lines = 64;
        cfg.victim_pair = 6;
        engine = pattern::make_engine(option, t);
        nominal = engine->decompose(sram::build_metal1_array(t, cfg));
        victims = sram::find_victim_wires(nominal, cfg);
        const auto cell = sram::Cell_electrical::n10(t.feol);
        const auto wires = sram::roll_up_nominal(ex, nominal, t, cfg);
        params = analytic::derive_params(t, cell, wires);
    }
};

TEST(WorstCase, CornerBeatsRandomSamples)
{
    // Property: the enumerated worst corner's Cbl is an upper bound for
    // random in-spec samples (3-sigma truncated).
    for (const auto option : tech::patterning_option_tokens.values) {
        Fixture f(option);
        const auto wc = mc::find_worst_case(*f.engine, f.ex, f.nominal,
                                            f.victims.bl, f.victims.vss);
        util::Rng rng(5);
        for (int i = 0; i < 300; ++i) {
            const auto s = f.engine->sample_gaussian(rng, 3.0);
            const auto realized = f.engine->realize(f.nominal, s);
            const double cbl =
                f.ex.wire_rc(realized, f.victims.bl).c_total();
            EXPECT_LE(cbl, wc.corner.metric * (1.0 + 1e-9))
                << tech::to_string(option) << " sample " << i;
        }
    }
}

TEST(WorstCase, Le3CornerSignatureMatchesPaper)
{
    // Table I row 1: all CDs +3s, opposing overlay signs.
    Fixture f(tech::Patterning_option::le3);
    const auto wc = mc::find_worst_case(*f.engine, f.ex, f.nominal,
                                        f.victims.bl, f.victims.vss);
    const auto& axes = f.engine->axes();
    // CDs all at +3 sigma.
    for (int a : {0, 1, 2}) {
        EXPECT_NEAR(wc.corner.sample[static_cast<std::size_t>(a)],
                    3.0 * axes[static_cast<std::size_t>(a)].sigma, 1e-15);
    }
    // Overlays maxed out with opposite signs.
    const double ol_b = wc.corner.sample[3];
    const double ol_c = wc.corner.sample[4];
    EXPECT_NEAR(std::abs(ol_b), 3.0 * axes[3].sigma, 1e-15);
    EXPECT_NEAR(std::abs(ol_c), 3.0 * axes[4].sigma, 1e-15);
    EXPECT_LT(ol_b * ol_c, 0.0);
}

TEST(WorstCase, SadpShowsRvssAntiCorrelation)
{
    Fixture f(tech::Patterning_option::sadp);
    const auto wc = mc::find_worst_case(*f.engine, f.ex, f.nominal,
                                        f.victims.bl, f.victims.vss);
    // Bit line gets wider (R down); the mandrel rail narrower (R up).
    EXPECT_LT(wc.variation.r_factor, 0.9);
    EXPECT_GT(wc.vss_r_factor, 1.1);
}

TEST(WorstCase, Le3DwarfsSadpAndEuvInCbl)
{
    Fixture le3(tech::Patterning_option::le3);
    Fixture sadp(tech::Patterning_option::sadp);
    Fixture euv(tech::Patterning_option::euv);
    const auto wc_le3 = mc::find_worst_case(
        *le3.engine, le3.ex, le3.nominal, le3.victims.bl, le3.victims.vss);
    const auto wc_sadp =
        mc::find_worst_case(*sadp.engine, sadp.ex, sadp.nominal,
                            sadp.victims.bl, sadp.victims.vss);
    const auto wc_euv = mc::find_worst_case(
        *euv.engine, euv.ex, euv.nominal, euv.victims.bl, euv.victims.vss);

    EXPECT_GT(wc_le3.variation.c_percent(),
              5.0 * wc_euv.variation.c_percent());
    EXPECT_GT(wc_euv.variation.c_percent(),
              wc_sadp.variation.c_percent());
}

TEST(Distribution, DeterministicForAGivenSeed)
{
    Fixture f(tech::Patterning_option::le3);
    mc::Distribution_options mo;
    mo.samples = 200;
    mo.seed = 77;
    const auto d1 = mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                         f.victims.bl, f.params, 64, mo);
    const auto d2 = mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                         f.victims.bl, f.params, 64, mo);
    ASSERT_EQ(d1.tdp.size(), d2.tdp.size());
    for (std::size_t i = 0; i < d1.tdp.size(); ++i) {
        EXPECT_DOUBLE_EQ(d1.tdp[i], d2.tdp[i]);
    }
}

TEST(Distribution, DifferentSeedsDiffer)
{
    Fixture f(tech::Patterning_option::le3);
    mc::Distribution_options a;
    a.samples = 50;
    a.seed = 1;
    mc::Distribution_options b = a;
    b.seed = 2;
    const auto d1 = mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                         f.victims.bl, f.params, 64, a);
    const auto d2 = mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                         f.victims.bl, f.params, 64, b);
    EXPECT_NE(d1.tdp[0], d2.tdp[0]);
}

TEST(Distribution, SampleVectorsAligned)
{
    Fixture f(tech::Patterning_option::sadp);
    mc::Distribution_options mo;
    mo.samples = 500;
    const auto d = mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                        f.victims.bl, f.params, 64, mo);
    EXPECT_EQ(d.tdp.size(), 500u);
    EXPECT_EQ(d.rvar.size(), 500u);
    EXPECT_EQ(d.cvar.size(), 500u);
    EXPECT_EQ(d.summary.count, 500u);
    // Each tdp sample reproducible from its factors.
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_NEAR(d.tdp[i],
                    analytic::tdp_percent(f.params, 64, d.rvar[i],
                                          d.cvar[i]),
                    1e-9);
    }
}

TEST(Distribution, Le3WiderThanSadp)
{
    // The paper's Table IV headline at MC level.
    Fixture le3(tech::Patterning_option::le3);
    Fixture sadp(tech::Patterning_option::sadp);
    mc::Distribution_options mo;
    mo.samples = 4000;
    const auto d_le3 =
        mc::tdp_distribution(*le3.engine, le3.ex, le3.nominal,
                             le3.victims.bl, le3.params, 64, mo);
    const auto d_sadp =
        mc::tdp_distribution(*sadp.engine, sadp.ex, sadp.nominal,
                             sadp.victims.bl, sadp.params, 64, mo);
    EXPECT_GT(d_le3.summary.stddev, 2.0 * d_sadp.summary.stddev);
}

TEST(Distribution, MeanTdpIsSmallComparedToWorstCase)
{
    // Worst case is a tail event: the MC mean must sit far below it.
    Fixture f(tech::Patterning_option::le3);
    mc::Distribution_options mo;
    mo.samples = 4000;
    const auto d = mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                        f.victims.bl, f.params, 64, mo);
    EXPECT_LT(d.summary.mean, 2.0);  // vs ~18% at the worst corner
}

TEST(Distribution, Validation)
{
    Fixture f(tech::Patterning_option::euv);
    mc::Distribution_options mo;
    mo.samples = 0;
    EXPECT_THROW(mc::tdp_distribution(*f.engine, f.ex, f.nominal,
                                      f.victims.bl, f.params, 64, mo),
                 util::Precondition_error);
}

} // namespace
