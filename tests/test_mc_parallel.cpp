// Determinism of the parallel execution engine at the analysis level: the
// Monte-Carlo distribution, the corner search, and the study's batch
// queries must return bitwise-identical results at any thread count.
#include "mc/distribution.h"
#include "mc/worst_case.h"

#include <gtest/gtest.h>

#include "analytic/params.h"
#include "core/runner.h"
#include "core/session.h"
#include "pattern/engine.h"
#include "sram/bitline_model.h"
#include "tech/technology.h"
#include "util/rng.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;

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

    mc::Tdp_distribution run(int threads, mc::Sampling sampling,
                             int samples = 600)
    {
        mc::Distribution_options mo;
        mo.samples = samples;
        mo.seed = 99;
        mo.sampling = sampling;
        mo.runner.threads = threads;
        return mc::tdp_distribution(*engine, ex, nominal, victims.bl,
                                    params, 64, mo);
    }
};

void expect_bitwise_equal(const mc::Tdp_distribution& a,
                          const mc::Tdp_distribution& b)
{
    // vector<double>::operator== is exact value comparison — the bitwise
    // identity the engine promises.
    EXPECT_EQ(a.tdp, b.tdp);
    EXPECT_EQ(a.rvar, b.rvar);
    EXPECT_EQ(a.cvar, b.cvar);
    EXPECT_EQ(a.summary.mean, b.summary.mean);
    EXPECT_EQ(a.summary.stddev, b.summary.stddev);
}

TEST(ParallelMc, PseudoRandomIdenticalAtAnyThreadCount)
{
    for (const auto option : tech::patterning_option_tokens.values) {
        Fixture f(option);
        const auto serial = f.run(1, mc::Sampling::pseudo_random);
        for (const int threads : {2, 3, 4, 0}) {
            expect_bitwise_equal(serial,
                                 f.run(threads,
                                       mc::Sampling::pseudo_random));
        }
    }
}

TEST(ParallelMc, LatinHypercubeIdenticalAtAnyThreadCount)
{
    Fixture f(tech::Patterning_option::le3);
    const auto serial = f.run(1, mc::Sampling::latin_hypercube);
    for (const int threads : {2, 4}) {
        expect_bitwise_equal(serial,
                             f.run(threads, mc::Sampling::latin_hypercube));
    }
}

TEST(ParallelMc, SubstreamsPreserveStatistics)
{
    // The counter-based substream refactor must not distort the
    // distribution: the paper's LE3-widest ordering still holds.
    Fixture le3(tech::Patterning_option::le3);
    Fixture sadp(tech::Patterning_option::sadp);
    const auto d_le3 = le3.run(4, mc::Sampling::pseudo_random, 4000);
    const auto d_sadp = sadp.run(4, mc::Sampling::pseudo_random, 4000);
    EXPECT_GT(d_le3.summary.stddev, 2.0 * d_sadp.summary.stddev);
}

TEST(ParallelWorstCase, IdenticalAtAnyThreadCount)
{
    for (const auto option : tech::patterning_option_tokens.values) {
        Fixture f(option);
        const auto serial =
            mc::find_worst_case(*f.engine, f.ex, f.nominal, f.victims.bl,
                                f.victims.vss, 3, core::Runner_options{1});
        for (const int threads : {2, 4}) {
            const auto parallel = mc::find_worst_case(
                *f.engine, f.ex, f.nominal, f.victims.bl, f.victims.vss, 3,
                core::Runner_options{threads});
            EXPECT_EQ(serial.corner.sample, parallel.corner.sample);
            EXPECT_EQ(serial.corner.metric, parallel.corner.metric);
            EXPECT_EQ(serial.variation.r_factor,
                      parallel.variation.r_factor);
            EXPECT_EQ(serial.variation.c_factor,
                      parallel.variation.c_factor);
            EXPECT_EQ(serial.vss_r_factor, parallel.vss_r_factor);
        }
    }
}

TEST(StudyBatch, McTdpBatchMatchesSingleCalls)
{
    const core::Study_session session;
    mc::Distribution_options mo;
    mo.samples = 300;
    mo.runner.threads = 4;

    Query batch(Metric::mc_tdp);
    batch.with_case({tech::Patterning_option::le3, 64, 8e-9})
        .with_case({tech::Patterning_option::sadp, 64, -1.0})
        .with_case({tech::Patterning_option::euv, 32, -1.0})
        .with_mc(mo);
    const auto rows = session.run(batch).column<mc::Tdp_distribution>();
    ASSERT_EQ(rows.size(), batch.cases.size());

    for (std::size_t i = 0; i < batch.cases.size(); ++i) {
        mc::Distribution_options serial = mo;
        serial.runner.threads = 1;
        const auto single =
            session
                .run(Query(Metric::mc_tdp)
                         .with_case(batch.cases[i])
                         .with_mc(serial))
                .as<mc::Tdp_distribution>(0);
        expect_bitwise_equal(rows[i], single);
    }
}

TEST(StudyBatch, WorstCaseAllOptionsMatchesPerOption)
{
    const core::Study_session session;
    const auto& options = tech::patterning_option_tokens.values;
    const auto rows = session
                          .run(Query(Metric::worst_case_rc)
                                   .over_options(options)
                                   .on(core::Runner_options{4}))
                          .column<core::Worst_case_row>();
    ASSERT_EQ(rows.size(), options.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto single =
            session
                .run(Query(Metric::worst_case_rc)
                         .with_case({options[i], 0}))
                .as<core::Worst_case_row>(0);
        EXPECT_EQ(rows[i].option, single.option);
        EXPECT_EQ(rows[i].corner, single.corner);
        EXPECT_EQ(rows[i].cbl_percent, single.cbl_percent);
        EXPECT_EQ(rows[i].rbl_percent, single.rbl_percent);
        EXPECT_EQ(rows[i].vss_r_percent, single.vss_r_percent);
    }
}

TEST(StudyBatch, NominalTdCacheIsThreadSafe)
{
    // Hammer the nominal memo from several workers: same word_lines from
    // four jobs plus two distinct lengths.  All six must agree with the
    // serial values (the memo is deterministic, so redundant compute on a
    // race still lands on one value).
    const core::Study_session session;
    const auto nominal_td = [&session](int word_lines) {
        return session
            .run(Query(Metric::nominal_td)
                     .with_case({tech::Patterning_option::euv, word_lines}))
            .as<core::Nominal_td_row>(0)
            .td_simulation;
    };
    const double expected_16 = nominal_td(16);
    const double expected_32 = nominal_td(32);

    std::vector<double> results(6, 0.0);
    core::Run_plan plan;
    plan.add_indexed(6, [&](std::size_t i, const core::Run_context&) {
        const int word_lines = i < 4 ? 16 : 32;
        results[i] = nominal_td(word_lines);
    });
    core::run(plan, core::Runner_options{4});

    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(results[i], expected_16);
    }
    EXPECT_EQ(results[4], expected_32);
    EXPECT_EQ(results[5], expected_32);
}

} // namespace
