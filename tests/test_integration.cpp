// Cross-module integration tests: the full pattern -> extract -> SPICE ->
// formula pipeline at experiment scale (small n to keep the suite fast).
#include <gtest/gtest.h>

#include "core/session.h"
#include "geom/drc.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;

const core::Study_session& session()
{
    static const core::Study_session instance;
    return instance;
}

/// The one row of a single-case query on the shared session.
template <class Row>
Row run_single(Metric metric, core::Query_case c)
{
    return session().run(Query(metric).with_case(c)).as<Row>(0);
}

TEST(Integration, WorstCaseReadPenaltyLe3)
{
    // Fig. 4 / Table III at 10x16: LE3 in the 12-22% band.
    const auto row = run_single<core::Read_row>(
        Metric::read_td, {tech::Patterning_option::le3, 16});
    EXPECT_GT(row.td_varied, row.td_nominal);
    EXPECT_GT(row.tdp_percent, 10.0);
    EXPECT_LT(row.tdp_percent, 25.0);
}

TEST(Integration, WorstCaseReadPenaltySadpAndEuvAreSmall)
{
    const auto sadp = run_single<core::Read_row>(
        Metric::read_td, {tech::Patterning_option::sadp, 16});
    const auto euv = run_single<core::Read_row>(
        Metric::read_td, {tech::Patterning_option::euv, 16});
    EXPECT_LT(std::abs(sadp.tdp_percent), 3.0);
    EXPECT_LT(std::abs(euv.tdp_percent), 3.0);
}

TEST(Integration, SadpSimDivergesAboveFormulaAtLargeN)
{
    // The Section III-A observation: RVSS anti-correlation pushes the
    // simulated SADP penalty above the formula for longer arrays.
    const auto row = run_single<core::Tdp_row>(
        Metric::worst_case_tdp, {tech::Patterning_option::sadp, 128});
    EXPECT_GT(row.tdp_simulation, row.tdp_formula);
}

TEST(Integration, Le3WorstCaseGeometryViolatesDrc)
{
    // An 8 nm overlay error on a 19 nm space is not manufacturable; the
    // DRC checker must say so (the study prices it anyway, like the
    // paper's worst-case analysis).
    const auto wc =
        session().worst_case_full(tech::Patterning_option::le3, 16);
    const auto violations =
        geom::check_drc(wc.realized, session().technology().metal1.drc);
    EXPECT_FALSE(violations.empty());
}

TEST(Integration, SadpWorstCaseGeometryIsManufacturable)
{
    const auto wc =
        session().worst_case_full(tech::Patterning_option::sadp, 16);
    const auto violations =
        geom::check_drc(wc.realized, session().technology().metal1.drc);
    EXPECT_TRUE(violations.empty());
}

TEST(Integration, McPipelineEndToEnd)
{
    // Fig. 5 in miniature: distribution through the whole pipeline.
    mc::Distribution_options mo;
    mo.samples = 1500;
    const auto d =
        session()
            .run(Query(Metric::mc_tdp)
                     .with_case({tech::Patterning_option::le3, 64})
                     .with_mc(mo))
            .as<mc::Tdp_distribution>(0);
    EXPECT_EQ(d.summary.count, 1500u);
    // Worst case dominates the MC right tail.
    const auto wc = run_single<core::Worst_case_row>(
        Metric::worst_case_rc, {tech::Patterning_option::le3, 0});
    const auto formula = session().formula_params(64);
    const double tdp_wc = analytic::tdp_percent(
        formula, 64, 1.0 + wc.rbl_percent / 100.0,
        1.0 + wc.cbl_percent / 100.0);
    EXPECT_GT(tdp_wc, d.summary.p99);
}

TEST(Integration, SimulatedTdMatchesExplicitPipeline)
{
    // simulate_td with hand-rolled nominal wires equals nominal_td.
    const auto nominal =
        session().decomposed_array(tech::Patterning_option::euv, 16);
    sram::Array_config cfg = session().options().array;
    cfg.word_lines = 16;
    const auto wires = sram::roll_up_nominal(
        session().extractor(), nominal, session().technology(), cfg);
    const double td = session().simulate_td(wires, 16);
    const auto row = run_single<core::Nominal_td_row>(
        Metric::nominal_td, {tech::Patterning_option::euv, 16});
    EXPECT_NEAR(td, row.td_simulation, 1e-15);
}

} // namespace
