// The column-simulation write layer (PR 4): thread determinism of the
// write queries, Write_sim_context reuse, the shared worst-case memo
// under concurrent write callers, and the metric-functor generalization of
// the mc:: code against the original read paths.
#include "core/session.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "analytic/params.h"
#include "core/runner.h"
#include "mc/distribution.h"
#include "mc/worst_case.h"
#include "pattern/engine.h"
#include "sram/bitline_model.h"
#include "sram/write_sim.h"
#include "util/numeric.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;

// Cheap-but-real sweep, same sizes as the read-sweep tests.
constexpr int kSizes[] = {8, 16, 24};

// The satellite contract asks for determinism at 1/2/8 threads.
constexpr int kThreadCounts[] = {2, 8};

struct Sim_fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Sim_fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 6;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }
};

Query write_sweep(tech::Patterning_option option, int threads)
{
    return Query(Metric::write_tw)
        .over_word_lines(option, kSizes)
        .on(core::Runner_options{threads});
}

TEST(WriteSweep, IdenticalAtAnyThreadCount)
{
    // Fresh session per thread count: no memo crosstalk between runs.
    const auto serial = core::Study_session().run(
        write_sweep(tech::Patterning_option::sadp, 1));
    ASSERT_EQ(serial.size(), std::size(kSizes));

    for (const int threads : kThreadCounts) {
        EXPECT_EQ(core::Study_session().run(
                      write_sweep(tech::Patterning_option::sadp, threads)),
                  serial)
            << "threads=" << threads;
    }
}

TEST(WriteSweep, MatchesSingleCalls)
{
    const core::Study_session batch_session;
    const auto rows =
        batch_session.run(write_sweep(tech::Patterning_option::euv, 8))
            .column<core::Write_row>();

    const core::Study_session single_session;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto single =
            single_session
                .run(Query(Metric::write_tw)
                         .with_case({tech::Patterning_option::euv,
                                     kSizes[i]}))
                .as<core::Write_row>(0);
        EXPECT_EQ(rows[i].tw_nominal, single.tw_nominal);
        EXPECT_EQ(rows[i].tw_varied, single.tw_varied);
        EXPECT_EQ(rows[i].twp_percent, single.twp_percent);
        EXPECT_GT(rows[i].tw_nominal, 0.0);
    }
}

TEST(NominalTwBatch, IdenticalAtAnyThreadCountAndMatchesSingles)
{
    const auto batch = [](int threads) {
        return Query(Metric::nominal_tw)
            .over_word_lines(tech::Patterning_option::euv, kSizes)
            .on(core::Runner_options{threads});
    };
    const auto serial = core::Study_session().run(batch(1));
    ASSERT_EQ(serial.size(), std::size(kSizes));

    for (const int threads : kThreadCounts) {
        EXPECT_EQ(core::Study_session().run(batch(threads)), serial)
            << "threads=" << threads;
    }

    const core::Study_session single_session;
    const auto rows = serial.column<core::Nominal_tw_row>();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto single =
            single_session
                .run(Query(Metric::nominal_tw)
                         .with_case({tech::Patterning_option::euv,
                                     kSizes[i]}))
                .as<core::Nominal_tw_row>(0);
        EXPECT_EQ(rows[i].tw_simulation, single.tw_simulation);
        // The registered write formula underestimates SPICE like the td
        // formula does, but is a real time.
        EXPECT_GT(rows[i].tw_formula, 0.0);
        EXPECT_LT(rows[i].tw_formula, rows[i].tw_simulation);
    }
    // tw grows with the array (the driver discharges a longer ladder).
    EXPECT_GT(rows[2].tw_simulation, rows[0].tw_simulation);
}

void expect_bitwise_equal(const mc::Tdp_distribution& a,
                          const mc::Tdp_distribution& b)
{
    EXPECT_EQ(a.tdp, b.tdp);
    EXPECT_EQ(a.rvar, b.rvar);
    EXPECT_EQ(a.cvar, b.cvar);
    EXPECT_EQ(a.summary.mean, b.summary.mean);
    EXPECT_EQ(a.summary.stddev, b.summary.stddev);
}

TEST(McTwpBatch, IdenticalAtAnyThreadCountAndMatchesSingles)
{
    // Every sample is a SPICE transient, so the counts stay small.
    mc::Distribution_options mo;
    mo.samples = 24;
    mo.seed = 7;

    const auto batch = [&mo](int threads) {
        mc::Distribution_options threaded = mo;
        threaded.runner.threads = threads;
        return Query(Metric::mc_twp)
            .with_case({tech::Patterning_option::le3, 8, -1.0})
            .with_case({tech::Patterning_option::euv, 8, -1.0})
            .with_mc(threaded);
    };
    const Query serial_query = batch(1);
    const auto serial = core::Study_session()
                            .run(serial_query)
                            .column<mc::Tdp_distribution>();
    ASSERT_EQ(serial.size(), serial_query.cases.size());

    for (const int threads : kThreadCounts) {
        const auto parallel = core::Study_session()
                                  .run(batch(threads))
                                  .column<mc::Tdp_distribution>();
        for (std::size_t i = 0; i < serial.size(); ++i) {
            expect_bitwise_equal(serial[i], parallel[i]);
        }
    }

    const core::Study_session single_session;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto single =
            single_session
                .run(Query(Metric::mc_twp)
                         .with_case(serial_query.cases[i])
                         .with_mc(serial_query.mc))
                .as<mc::Tdp_distribution>(0);
        expect_bitwise_equal(serial[i], single);
    }

    // The distribution is real: LE3 spreads twp wider than EUV.
    EXPECT_GT(serial[0].summary.stddev, serial[1].summary.stddev);
}

TEST(WriteSimContext, ReuseMatchesFreshBuilds)
{
    Sim_fixture f(8);
    sram::Bitline_electrical heavier = f.wires;
    heavier.c_bl_cell *= 1.4;
    heavier.c_blb_cell *= 1.4;

    sram::Write_sim_context ctx;
    const auto r_nom = ctx.simulate(f.t, f.cell, f.wires, f.cfg);
    const auto r_heavy = ctx.simulate(f.t, f.cell, heavier, f.cfg);
    // Same array config: the second run re-points the ladder in place.
    EXPECT_EQ(ctx.netlist_builds(), 1u);
    ASSERT_TRUE(r_nom.flipped);
    ASSERT_TRUE(r_heavy.flipped);

    // Back to the first wires on the reused netlist: bitwise repeatable.
    const auto r_nom_again = ctx.simulate(f.t, f.cell, f.wires, f.cfg);
    EXPECT_EQ(ctx.netlist_builds(), 1u);
    EXPECT_EQ(r_nom.tw, r_nom_again.tw);

    // Fresh single-shot builds must agree bitwise with the reused context.
    sram::Write_netlist fresh_nom =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    EXPECT_EQ(sram::simulate_write(fresh_nom).tw, r_nom.tw);
    sram::Write_netlist fresh_heavy =
        sram::build_write_netlist(f.t, f.cell, heavier, f.cfg);
    EXPECT_EQ(sram::simulate_write(fresh_heavy).tw, r_heavy.tw);
    EXPECT_GT(r_heavy.tw, r_nom.tw);

    // A different word-line count rebuilds netlist and workspace.
    Sim_fixture f16(16);
    const auto r16 = ctx.simulate(f16.t, f16.cell, f16.wires, f16.cfg);
    EXPECT_EQ(ctx.netlist_builds(), 2u);
    sram::Write_netlist fresh16 =
        sram::build_write_netlist(f16.t, f16.cell, f16.wires, f16.cfg);
    EXPECT_EQ(sram::simulate_write(fresh16).tw, r16.tw);

    // A different schedule is a different netlist, too.
    sram::Write_timing slow;
    slow.t_drive_on = 60e-12;
    const auto r_slow =
        ctx.simulate(f16.t, f16.cell, f16.wires, f16.cfg, slow);
    EXPECT_EQ(ctx.netlist_builds(), 3u);
    ASSERT_TRUE(r_slow.flipped);
}

TEST(WorstCaseMemo, SingleEnumerationUnderConcurrentTwCallers)
{
    const core::Study_session session;
    EXPECT_EQ(session.corner_search_count(), 0u);

    const auto run_single = [&session](Metric metric, int word_lines) {
        return session.run(Query(metric).with_case(
            {tech::Patterning_option::sadp, word_lines}));
    };

    // Eight concurrent write_tw callers of one (option, n) key: the
    // promise-backed memo runs exactly one corner enumeration.
    constexpr std::size_t jobs = 8;
    std::vector<core::Write_row> results(jobs);
    core::run_indexed(
        jobs,
        [&](std::size_t i, const core::Run_context&) {
            results[i] =
                run_single(Metric::write_tw, 8).as<core::Write_row>(0);
        },
        core::Runner_options{8});
    EXPECT_EQ(session.corner_search_count(), 1u);
    for (std::size_t i = 1; i < jobs; ++i) {
        EXPECT_EQ(results[i].tw_nominal, results[0].tw_nominal);
        EXPECT_EQ(results[i].tw_varied, results[0].tw_varied);
        EXPECT_EQ(results[i].twp_percent, results[0].twp_percent);
    }

    // The read paths share the same key: no second enumeration.
    run_single(Metric::worst_case_tdp, 8);
    run_single(Metric::read_td, 8);
    EXPECT_EQ(session.corner_search_count(), 1u);

    // A new word-line count is a new key for the write path, too.
    run_single(Metric::write_tw, 16);
    EXPECT_EQ(session.corner_search_count(), 2u);
}

// --- metric-functor regressions on the original read paths -------------------

struct Mc_fixture {
    tech::Technology t = tech::n10();
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    std::unique_ptr<pattern::Patterning_engine> engine;
    geom::Wire_array nominal;
    sram::Victim_wires victims;
    analytic::Td_params params;

    explicit Mc_fixture(tech::Patterning_option option)
    {
        cfg.word_lines = 32;
        cfg.victim_pair = 6;
        engine = pattern::make_engine(option, t);
        nominal = engine->decompose(sram::build_metal1_array(t, cfg));
        victims = sram::find_victim_wires(nominal, cfg);
        const auto cell = sram::Cell_electrical::n10(t.feol);
        const auto wires = sram::roll_up_nominal(ex, nominal, t, cfg);
        params = analytic::derive_params(t, cell, wires);
    }
};

TEST(MetricFunctor, GeneralizedWorstCaseMatchesCblDefault)
{
    for (const auto option : tech::patterning_option_tokens.values) {
        Mc_fixture f(option);
        const auto legacy =
            mc::find_worst_case(*f.engine, f.ex, f.nominal, f.victims.bl,
                                f.victims.vss, 3, core::Runner_options{2});
        const auto general = mc::find_worst_case(
            *f.engine, f.ex, f.nominal, f.victims.bl, f.victims.vss,
            [&](const geom::Wire_array& realized, const core::Run_context&) {
                return f.ex.wire_rc(realized, f.victims.bl).c_total();
            },
            3, core::Runner_options{2});
        EXPECT_EQ(legacy.corner.sample, general.corner.sample);
        EXPECT_EQ(legacy.corner.metric, general.corner.metric);
        EXPECT_EQ(legacy.variation.r_factor, general.variation.r_factor);
        EXPECT_EQ(legacy.variation.c_factor, general.variation.c_factor);
        EXPECT_EQ(legacy.vss_r_factor, general.vss_r_factor);
    }
}

TEST(MetricFunctor, NanSampleMetricPoisonsTheWholeSummary)
{
    // The NaN-safety contract of the write MC: one failed sample (e.g. a
    // write that never flips) must surface in every summary statistic —
    // quantiles and min/max included — not just the moments.
    Mc_fixture f(tech::Patterning_option::euv);
    mc::Distribution_options mo;
    mo.samples = 50;
    mo.runner.threads = 2;

    const auto dist = mc::metric_distribution(
        *f.engine, f.ex, f.nominal, f.victims.bl,
        [&](const geom::Wire_array&, const extract::Rc_variation& v,
            const core::Run_context&) {
            return v.c_factor > 0.0
                       ? std::numeric_limits<double>::quiet_NaN()
                       : 0.0;  // c_factor is always positive: all NaN
        },
        mo);
    EXPECT_EQ(dist.summary.count, 50u);
    EXPECT_TRUE(std::isnan(dist.summary.mean));
    EXPECT_TRUE(std::isnan(dist.summary.stddev));
    EXPECT_TRUE(std::isnan(dist.summary.median));
    EXPECT_TRUE(std::isnan(dist.summary.p01));
    EXPECT_TRUE(std::isnan(dist.summary.p99));
    EXPECT_TRUE(std::isnan(dist.summary.min));
    EXPECT_TRUE(std::isnan(dist.summary.max));
}

TEST(MetricFunctor, MetricDistributionMatchesTdpDistribution)
{
    Mc_fixture f(tech::Patterning_option::le3);
    for (const auto sampling :
         {mc::Sampling::pseudo_random, mc::Sampling::latin_hypercube}) {
        mc::Distribution_options mo;
        mo.samples = 400;
        mo.seed = 42;
        mo.sampling = sampling;
        mo.runner.threads = 4;

        const auto legacy = mc::tdp_distribution(
            *f.engine, f.ex, f.nominal, f.victims.bl, f.params, 32, mo);
        const auto general = mc::metric_distribution(
            *f.engine, f.ex, f.nominal, f.victims.bl,
            [&](const geom::Wire_array&, const extract::Rc_variation& v,
                const core::Run_context&) {
                return analytic::tdp_percent(f.params, 32, v.r_factor,
                                             v.c_factor);
            },
            mo);
        expect_bitwise_equal(legacy, general);
    }
}

// --- accuracy policy ---------------------------------------------------------

core::Study_options opts_with(sram::Sim_accuracy accuracy)
{
    core::Study_options opts;
    opts.read.accuracy = accuracy;
    opts.write.accuracy = accuracy;
    return opts;
}

TEST(WriteAccuracy, AdaptiveMatchesReferenceAcrossWriteSweep)
{
    // The write leg of the calibration contract: adaptive tw within 0.5%
    // of the fixed-step reference on every write sweep row for every
    // patterning option.  (bench_ext_write_impact enforces the same gate
    // on the full n up to 256 sweep on every run.)
    for (const auto option : tech::patterning_option_tokens.values) {
        const core::Study_session reference(
            tech::n10(), opts_with(sram::Sim_accuracy::reference));
        const core::Study_session fast(
            tech::n10(), opts_with(sram::Sim_accuracy::fast));

        const auto ref_rows =
            reference.run(write_sweep(option, 1)).column<core::Write_row>();
        const auto fast_rows =
            fast.run(write_sweep(option, 1)).column<core::Write_row>();
        ASSERT_EQ(ref_rows.size(), fast_rows.size());

        for (std::size_t i = 0; i < ref_rows.size(); ++i) {
            EXPECT_LT(util::rel_diff(ref_rows[i].tw_nominal,
                                     fast_rows[i].tw_nominal),
                      5e-3)
                << tech::to_string(option) << " n=" << kSizes[i];
            EXPECT_LT(util::rel_diff(ref_rows[i].tw_varied,
                                     fast_rows[i].tw_varied),
                      5e-3);
            EXPECT_NEAR(ref_rows[i].twp_percent, fast_rows[i].twp_percent,
                        0.05);
        }
    }
}

} // namespace
