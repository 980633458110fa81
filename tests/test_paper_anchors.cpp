// Paper anchors (`ctest -L paper-anchors`): the DATE'15 numbers and
// orderings the reproduction must keep — Table I's LE3/SADP/EUV worst-case
// rows, the overlay-budget scaling of LE3, Table II's simulated-vs-formula
// td ballpark, Fig. 5's "LE3 @ 8 nm sigma more than 2x SADP", and the
// paper's array shape and victim pair.
#include "core/session.h"

#include <gtest/gtest.h>

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;

// One session shared by the suite: its memos make repeated queries cheap.
const core::Study_session& session()
{
    static const core::Study_session instance;
    return instance;
}

/// Table I row of one option (session-default array length).
core::Worst_case_row worst_case(tech::Patterning_option option,
                                double ol_3sigma = -1.0)
{
    return session()
        .run(Query(Metric::worst_case_rc).with_case({option, 0, ol_3sigma}))
        .as<core::Worst_case_row>(0);
}

/// Fig. 5 Monte-Carlo tdp distribution of one case.
mc::Tdp_distribution mc_tdp(tech::Patterning_option option, int word_lines,
                            const mc::Distribution_options& mo,
                            double ol_3sigma = -1.0)
{
    return session()
        .run(Query(Metric::mc_tdp)
                 .with_case({option, word_lines, ol_3sigma})
                 .with_mc(mo))
        .as<mc::Tdp_distribution>(0);
}

TEST(PaperAnchors, TableOneLe3RowMatchesPaper)
{
    const auto row = worst_case(tech::Patterning_option::le3);
    // Paper: Cbl +61.56%, Rbl -10.36%.  Calibration tolerance: a couple
    // of percentage points.
    EXPECT_NEAR(row.cbl_percent, 61.56, 3.0);
    EXPECT_NEAR(row.rbl_percent, -10.36, 1.0);
    EXPECT_NE(row.corner.find("cd_mask_a=+3s"), std::string::npos);
    EXPECT_NE(row.corner.find("overlay"), std::string::npos);
}

TEST(PaperAnchors, TableOneSadpRowMatchesPaper)
{
    const auto row = worst_case(tech::Patterning_option::sadp);
    EXPECT_NEAR(row.cbl_percent, 4.01, 1.5);
    EXPECT_NEAR(row.rbl_percent, -18.19, 2.0);
    // Anti-correlated rail.
    EXPECT_GT(row.vss_r_percent, 10.0);
}

TEST(PaperAnchors, TableOneEuvRowMatchesPaper)
{
    const auto row = worst_case(tech::Patterning_option::euv);
    EXPECT_NEAR(row.cbl_percent, 6.65, 1.5);
    EXPECT_NEAR(row.rbl_percent, -10.36, 1.0);
    EXPECT_EQ(row.corner, "cd=+3s");
}

TEST(PaperAnchors, Le3AndEuvShareRblSensitivity)
{
    // Both worst cases put +3 nm on the victim wire.
    const auto le3 = worst_case(tech::Patterning_option::le3);
    const auto euv = worst_case(tech::Patterning_option::euv);
    EXPECT_NEAR(le3.rbl_percent, euv.rbl_percent, 1e-9);
}

TEST(PaperAnchors, OverlayBudgetScalesLe3Severity)
{
    const auto tight = worst_case(tech::Patterning_option::le3, 3e-9);
    const auto loose = worst_case(tech::Patterning_option::le3, 8e-9);
    EXPECT_LT(tight.cbl_percent, 0.5 * loose.cbl_percent);
    // Overlay budget does not touch widths.
    EXPECT_NEAR(tight.rbl_percent, loose.rbl_percent, 1e-9);
}

TEST(PaperAnchors, OlOverrideIgnoredForSingleMaskOptions)
{
    const auto a = worst_case(tech::Patterning_option::euv, 3e-9);
    const auto b = worst_case(tech::Patterning_option::euv, 8e-9);
    EXPECT_NEAR(a.cbl_percent, b.cbl_percent, 1e-12);
}

TEST(PaperAnchors, NominalTdSimulationExceedsLumpedFormula)
{
    // Table II's qualitative content at small n.
    const auto row = session()
                         .run(Query(Metric::nominal_td)
                                  .with_case({tech::Patterning_option::euv,
                                              16}))
                         .as<core::Nominal_td_row>(0);
    EXPECT_GT(row.td_simulation, row.td_formula);
    EXPECT_LT(row.td_simulation, 6.0 * row.td_formula);
    // Magnitudes in the paper's ballpark (sim 5.59 ps at 10x16).
    EXPECT_GT(row.td_simulation, 2e-12);
    EXPECT_LT(row.td_simulation, 20e-12);
}

TEST(PaperAnchors, FormulaTracksSimulationAtSmallN)
{
    // Table III: formula vs simulation agree within a few points at
    // small n for every option.
    for (const auto option : tech::patterning_option_tokens.values) {
        const auto row = session()
                             .run(Query(Metric::worst_case_tdp)
                                      .with_case({option, 16}))
                             .as<core::Tdp_row>(0);
        EXPECT_NEAR(row.tdp_formula, row.tdp_simulation, 6.0)
            << tech::to_string(option);
    }
}

TEST(PaperAnchors, DecomposedArrayHasPaperShape)
{
    const auto arr =
        session().decomposed_array(tech::Patterning_option::le3, 64);
    EXPECT_EQ(arr.size(), 40u);  // 10 pairs x 4 tracks
    EXPECT_NE(arr[0].color, geom::Mask_color::unassigned);
}

TEST(PaperAnchors, FormulaParamsMatchPaperRegime)
{
    const auto p = session().formula_params(64);
    EXPECT_NEAR(p.a, 0.105, 1e-3);
    // Wire share of per-cell capacitance ~30% (Table III regime).
    const double share = p.c_bl_cell / (p.c_bl_cell + p.c_fe);
    EXPECT_GT(share, 0.2);
    EXPECT_LT(share, 0.45);
}

TEST(PaperAnchors, McTdpReproducibleAndOrdered)
{
    mc::Distribution_options mo;
    mo.samples = 2000;
    const auto le3 =
        mc_tdp(tech::Patterning_option::le3, 64, mo, 8e-9);
    const auto le3_again =
        mc_tdp(tech::Patterning_option::le3, 64, mo, 8e-9);
    EXPECT_DOUBLE_EQ(le3.summary.stddev, le3_again.summary.stddev);

    const auto sadp = mc_tdp(tech::Patterning_option::sadp, 64, mo);
    EXPECT_GT(le3.summary.stddev, 2.0 * sadp.summary.stddev);
}

TEST(PaperAnchors, McSigmaGrowsWithOverlayBudget)
{
    mc::Distribution_options mo;
    mo.samples = 3000;
    double prev = 0.0;
    for (double ol : {3e-9, 5e-9, 7e-9, 8e-9}) {
        const auto d =
            mc_tdp(tech::Patterning_option::le3, 64, mo, ol);
        EXPECT_GT(d.summary.stddev, prev) << "OL " << ol;
        prev = d.summary.stddev;
    }
}

TEST(PaperAnchors, WorstCaseFullProvidesGeometry)
{
    const auto wc =
        session().worst_case_full(tech::Patterning_option::le3, 16);
    EXPECT_EQ(wc.realized.size(), 40u);
    EXPECT_GT(wc.corner.metric, 0.0);
    // Geometry is actually distorted.
    bool any_shift = false;
    const auto nominal =
        session().decomposed_array(tech::Patterning_option::le3, 16);
    for (std::size_t i = 0; i < wc.realized.size(); ++i) {
        if (wc.realized[i].y_center != nominal[i].y_center) any_shift = true;
    }
    EXPECT_TRUE(any_shift);
}

TEST(PaperAnchors, VictimPairDefaultsToMaskACompatible)
{
    EXPECT_EQ(session().options().array.victim_pair, 6);
    EXPECT_EQ(session().options().array.bl_pairs, 10);
}

} // namespace
