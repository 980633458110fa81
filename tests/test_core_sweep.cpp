// The parallel SPICE sweep layer: determinism of the Fig. 4 / Table II /
// Table III queries at any thread count, the one-enumeration contract of
// the worst-case memo, and bitwise-identical results under
// netlist/workspace reuse.
#include "core/session.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "pattern/engine.h"
#include "sram/bitline_model.h"
#include "sram/read_sim.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace {

using namespace mpsram;
using core::Metric;
using core::Query;

// Cheap-but-real sweep: EUV (3 corners) and SADP (9 corners) keep the
// corner searches small while the transients still exercise the full
// netlist/workspace reuse path.
constexpr int kSizes[] = {8, 16, 24};

// Parallel thread counts checked against the serial run.
constexpr int kThreadCounts[] = {2, 4, 8};

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

Query read_sweep(tech::Patterning_option option, int threads)
{
    return Query(Metric::read_td)
        .over_word_lines(option, kSizes)
        .on(core::Runner_options{threads});
}

TEST(ReadSweep, IdenticalAtAnyThreadCount)
{
    // Fresh session per thread count: no memo crosstalk between runs.
    const auto serial = core::Study_session().run(
        read_sweep(tech::Patterning_option::sadp, 1));
    ASSERT_EQ(serial.size(), std::size(kSizes));

    for (const int threads : kThreadCounts) {
        EXPECT_EQ(core::Study_session().run(
                      read_sweep(tech::Patterning_option::sadp, threads)),
                  serial)
            << "threads=" << threads;
    }
}

TEST(ReadSweep, MatchesSingleCalls)
{
    const core::Study_session batch_session;
    const auto rows =
        batch_session.run(read_sweep(tech::Patterning_option::euv, 4))
            .column<core::Read_row>();

    const core::Study_session single_session;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto single =
            single_session
                .run(Query(Metric::read_td)
                         .with_case({tech::Patterning_option::euv,
                                     kSizes[i]}))
                .as<core::Read_row>(0);
        EXPECT_EQ(rows[i].td_nominal, single.td_nominal);
        EXPECT_EQ(rows[i].td_varied, single.td_varied);
        EXPECT_EQ(rows[i].tdp_percent, single.tdp_percent);
    }
}

TEST(NominalTdBatch, IdenticalAtAnyThreadCountAndMatchesSingles)
{
    const auto batch = [](int threads) {
        return Query(Metric::nominal_td)
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
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto single =
            single_session
                .run(Query(Metric::nominal_td)
                         .with_case({tech::Patterning_option::euv,
                                     kSizes[i]}))
                .as<core::Nominal_td_row>(0);
        EXPECT_EQ(serial.as<core::Nominal_td_row>(i), single);
    }
}

TEST(WorstCaseTdpBatch, IdenticalAtAnyThreadCount)
{
    const auto batch = [](int threads) {
        return Query(Metric::worst_case_tdp)
            .with_case({tech::Patterning_option::euv, 8})
            .with_case({tech::Patterning_option::sadp, 8})
            .with_case({tech::Patterning_option::euv, 16})
            .with_case({tech::Patterning_option::sadp, 16})
            .on(core::Runner_options{threads});
    };
    const auto serial = core::Study_session().run(batch(1));
    ASSERT_EQ(serial.size(), 4u);

    for (const int threads : kThreadCounts) {
        EXPECT_EQ(core::Study_session().run(batch(threads)), serial)
            << "threads=" << threads;
    }
}

TEST(WorstCaseMemo, OneEnumerationPerKey)
{
    const core::Study_session session;
    EXPECT_EQ(session.corner_search_count(), 0u);

    // worst_case_tdp needs the corner result twice (simulated read at the
    // worst geometry + formula factors): one enumeration, not two.
    const core::Query_case euv8{tech::Patterning_option::euv, 8};
    session.run(Query(Metric::worst_case_tdp).with_case(euv8));
    EXPECT_EQ(session.corner_search_count(), 1u);

    // Repeats and same-key sibling metrics hit the memo.
    session.run(Query(Metric::worst_case_tdp).with_case(euv8));
    session.run(Query(Metric::read_td).with_case(euv8));
    session.worst_case_full(tech::Patterning_option::euv, 8);
    EXPECT_EQ(session.corner_search_count(), 1u);

    // A new word-line count is a new key.
    session.worst_case_full(tech::Patterning_option::euv, 16);
    EXPECT_EQ(session.corner_search_count(), 2u);

    // All "technology default" overlay spellings share one slot; a real
    // budget is its own key.
    session.worst_case_full(tech::Patterning_option::euv, 16, -7.0);
    EXPECT_EQ(session.corner_search_count(), 2u);
    session.worst_case_full(tech::Patterning_option::euv, 16, 3e-9);
    EXPECT_EQ(session.corner_search_count(), 3u);
}

TEST(WorstCaseMemo, ConcurrentCallersShareOneEnumeration)
{
    const core::Study_session session;

    constexpr std::size_t jobs = 8;
    std::vector<mc::Worst_case_result> results(jobs);
    core::run_indexed(
        jobs,
        [&](std::size_t i, const core::Run_context&) {
            results[i] =
                session.worst_case_full(tech::Patterning_option::sadp, 8);
        },
        core::Runner_options{4});

    EXPECT_EQ(session.corner_search_count(), 1u);
    for (std::size_t i = 1; i < jobs; ++i) {
        EXPECT_EQ(results[i].corner.sample, results[0].corner.sample);
        EXPECT_EQ(results[i].corner.metric, results[0].corner.metric);
        EXPECT_EQ(results[i].variation.r_factor,
                  results[0].variation.r_factor);
        EXPECT_EQ(results[i].variation.c_factor,
                  results[0].variation.c_factor);
        EXPECT_EQ(results[i].vss_r_factor, results[0].vss_r_factor);
    }
}

// --- accuracy policy ---------------------------------------------------------

core::Study_options opts_with(sram::Sim_accuracy accuracy)
{
    core::Study_options opts;
    opts.read.accuracy = accuracy;
    return opts;
}

TEST(SimAccuracy, AdaptiveMatchesReferenceAcrossFig4Sweep)
{
    // The calibration contract: adaptive td and tdp agree with the
    // fixed-step reference to <= 0.5% for every patterning option across
    // the Fig. 4 word-line progression.  (The full set tops out at 1024;
    // 256 keeps the reference sweeps affordable here — bench_perf_spice
    // checks the complete Fig. 4 rows including 10x1024 on every run and
    // fails outside the budget.)
    constexpr int fig4_sizes[] = {16, 64, 256};

    for (const auto option : tech::patterning_option_tokens.values) {
        const core::Study_session reference(
            tech::n10(), opts_with(sram::Sim_accuracy::reference));
        const core::Study_session fast(
            tech::n10(), opts_with(sram::Sim_accuracy::fast));

        const Query sweep =
            Query(Metric::read_td).over_word_lines(option, fig4_sizes);
        const auto ref_rows = reference.run(sweep).column<core::Read_row>();
        const auto fast_rows = fast.run(sweep).column<core::Read_row>();
        ASSERT_EQ(ref_rows.size(), fast_rows.size());

        for (std::size_t i = 0; i < ref_rows.size(); ++i) {
            EXPECT_LT(util::rel_diff(ref_rows[i].td_nominal,
                                     fast_rows[i].td_nominal),
                      5e-3)
                << tech::to_string(option) << " n=" << fig4_sizes[i];
            EXPECT_LT(util::rel_diff(ref_rows[i].td_varied,
                                     fast_rows[i].td_varied),
                      5e-3);
            // tdp is itself a percentage; 0.05 percentage points is far
            // below the paper's quoted resolution.
            EXPECT_NEAR(ref_rows[i].tdp_percent, fast_rows[i].tdp_percent,
                        0.05);
        }
    }
}

TEST(SimAccuracy, AdaptiveMatchesReferenceTdBatchesAndFinals)
{
    constexpr int sizes[] = {16, 64};

    const core::Study_session reference(
        tech::n10(), opts_with(sram::Sim_accuracy::reference));
    const core::Study_session fast(
        tech::n10(), opts_with(sram::Sim_accuracy::fast));

    // Table II rows.
    const Query table2 = Query(Metric::nominal_td)
                             .over_word_lines(tech::Patterning_option::euv,
                                              sizes);
    const auto ref_td = reference.run(table2).column<core::Nominal_td_row>();
    const auto fast_td = fast.run(table2).column<core::Nominal_td_row>();
    for (std::size_t i = 0; i < ref_td.size(); ++i) {
        EXPECT_LT(util::rel_diff(ref_td[i].td_simulation,
                                 fast_td[i].td_simulation),
                  5e-3);
        // The formula does not depend on the transient engine.
        EXPECT_EQ(ref_td[i].td_formula, fast_td[i].td_formula);
    }

    // Table III rows.
    const Query table3 = Query(Metric::worst_case_tdp)
                             .with_case({tech::Patterning_option::le3, 16})
                             .with_case({tech::Patterning_option::euv, 64});
    const auto ref_tdp = reference.run(table3).column<core::Tdp_row>();
    const auto fast_tdp = fast.run(table3).column<core::Tdp_row>();
    for (std::size_t i = 0; i < table3.cases.size(); ++i) {
        EXPECT_NEAR(ref_tdp[i].tdp_simulation, fast_tdp[i].tdp_simulation,
                    0.05);
        EXPECT_EQ(ref_tdp[i].tdp_formula, fast_tdp[i].tdp_formula);
    }

    // The raw read's td plus the cost contract that motivates the policy:
    // the adaptive engine must solve at least 2x fewer steps.
    Sim_fixture f(64);
    sram::Read_options ref_opts;
    ref_opts.accuracy = sram::Sim_accuracy::reference;
    sram::Read_options fast_opts;
    fast_opts.accuracy = sram::Sim_accuracy::fast;

    sram::Read_sim_context ref_ctx;
    const auto ref_read = ref_ctx.simulate(f.t, f.cell, f.wires, f.cfg,
                                           sram::Read_timing{},
                                           sram::Netlist_options{}, ref_opts);
    sram::Read_sim_context fast_ctx;
    const auto fast_read =
        fast_ctx.simulate(f.t, f.cell, f.wires, f.cfg, sram::Read_timing{},
                          sram::Netlist_options{}, fast_opts);
    ASSERT_TRUE(ref_read.crossed);
    ASSERT_TRUE(fast_read.crossed);
    EXPECT_LT(util::rel_diff(ref_read.td, fast_read.td), 5e-3);
    EXPECT_LT(fast_read.steps.total_attempts(),
              ref_read.steps.total_attempts() / 2);

    // Waveform endpoints: a read stops at its own sense crossing, a sample
    // each engine places differently, so the bl/blb values are compared at
    // the end of the first read window, on full-window transients of the
    // same read netlist.
    auto window_end = [&](const sram::Read_options& opts) {
        sram::Read_netlist net =
            sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
        spice::Transient_options topts =
            sram::read_transient_options(net, opts);
        topts.stop.reset();
        const auto waves = spice::run_transient(
            net.circuit, {net.bl_sense, net.blb_sense}, topts);
        return std::pair{
            waves.final_value(net.circuit.node_name(net.bl_sense)),
            waves.final_value(net.circuit.node_name(net.blb_sense))};
    };
    const auto [ref_bl, ref_blb] = window_end(ref_opts);
    const auto [fast_bl, fast_blb] = window_end(fast_opts);
    EXPECT_NEAR(ref_bl, fast_bl, 2e-3);
    EXPECT_NEAR(ref_blb, fast_blb, 2e-3);
}

TEST(SimAccuracy, AdaptiveBatchesBitwiseIdenticalAtAnyThreadCount)
{
    // The determinism contract under the production (adaptive) policy:
    // step selection is input-deterministic, so the batch queries stay
    // bitwise identical at any thread count.
    const auto fast_run = [](const Query& query) {
        return core::Study_session(tech::n10(),
                                   opts_with(sram::Sim_accuracy::fast))
            .run(query);
    };
    const auto serial = fast_run(read_sweep(tech::Patterning_option::le3, 1));
    for (const int threads : {2, 4}) {
        EXPECT_EQ(fast_run(read_sweep(tech::Patterning_option::le3, threads)),
                  serial)
            << "threads=" << threads;
    }

    Query tdp = Query(Metric::worst_case_tdp)
                    .with_case({tech::Patterning_option::euv, 8})
                    .with_case({tech::Patterning_option::sadp, 16});
    const auto tdp1 = fast_run(tdp.on(core::Runner_options{1}));
    const auto tdp4 = fast_run(tdp.on(core::Runner_options{4}));
    EXPECT_EQ(tdp1, tdp4);
}

// --- netlist/workspace reuse -------------------------------------------------

TEST(ReadSimContext, ReuseMatchesFreshBuilds)
{
    Sim_fixture f(8);
    sram::Bitline_electrical heavier = f.wires;
    heavier.c_bl_cell *= 1.4;
    heavier.c_blb_cell *= 1.4;

    sram::Read_sim_context ctx;
    const auto r_nom = ctx.simulate(f.t, f.cell, f.wires, f.cfg);
    const auto r_heavy = ctx.simulate(f.t, f.cell, heavier, f.cfg);
    // Same array config: the second run re-points the ladder in place.
    EXPECT_EQ(ctx.netlist_builds(), 1u);

    // Back to the first wires on the reused netlist: bitwise repeatable.
    const auto r_nom_again = ctx.simulate(f.t, f.cell, f.wires, f.cfg);
    EXPECT_EQ(ctx.netlist_builds(), 1u);
    EXPECT_EQ(r_nom.td, r_nom_again.td);

    // Fresh single-shot builds must agree bitwise with the reused context.
    sram::Read_netlist fresh_nom =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    EXPECT_EQ(sram::simulate_read(fresh_nom).td, r_nom.td);
    sram::Read_netlist fresh_heavy =
        sram::build_read_netlist(f.t, f.cell, heavier, f.cfg);
    EXPECT_EQ(sram::simulate_read(fresh_heavy).td, r_heavy.td);
    EXPECT_GT(r_heavy.td, r_nom.td);

    // A different word-line count rebuilds netlist and workspace.
    Sim_fixture f16(16);
    const auto r16 = ctx.simulate(f16.t, f16.cell, f16.wires, f16.cfg);
    EXPECT_EQ(ctx.netlist_builds(), 2u);
    sram::Read_netlist fresh16 =
        sram::build_read_netlist(f16.t, f16.cell, f16.wires, f16.cfg);
    EXPECT_EQ(sram::simulate_read(fresh16).td, r16.td);
}

TEST(ReadSimContext, WindowDoublingRetryUnderWorkspaceReuse)
{
    Sim_fixture f(8);

    // Force the window-doubling path: the first window is far too small to
    // reach the sense margin, so simulate_read retries with 2x, 4x, ...
    // windows on the *same* netlist and workspace.
    sram::Read_options tight;
    tight.min_window = 8e-12;
    tight.window_per_cell = 0.0;
    tight.max_retries = 5;

    sram::Read_sim_context ctx;
    const auto retried =
        ctx.simulate(f.t, f.cell, f.wires, f.cfg, sram::Read_timing{},
                     sram::Netlist_options{}, tight);
    ASSERT_TRUE(retried.crossed);

    // Same answer as a fresh one-shot run with the same options...
    sram::Read_netlist fresh =
        sram::build_read_netlist(f.t, f.cell, f.wires, f.cfg);
    const auto fresh_result = sram::simulate_read(fresh, tight);
    EXPECT_EQ(retried.td, fresh_result.td);
    EXPECT_EQ(retried.t_cross, fresh_result.t_cross);

    // ... and the retry path leaves no state behind: an immediate re-run
    // on the reused context reproduces it bitwise.
    const auto again =
        ctx.simulate(f.t, f.cell, f.wires, f.cfg, sram::Read_timing{},
                     sram::Netlist_options{}, tight);
    EXPECT_EQ(retried.td, again.td);
    EXPECT_EQ(ctx.netlist_builds(), 1u);
}

TEST(RealizeInto, BitwiseMatchesRealizeForEveryEngine)
{
    const tech::Technology t = tech::n10();
    sram::Array_config cfg;
    cfg.word_lines = 16;
    cfg.victim_pair = 6;

    for (const auto option : tech::patterning_option_tokens.values) {
        const auto engine = pattern::make_engine(option, t);
        const geom::Wire_array nominal =
            engine->decompose(sram::build_metal1_array(t, cfg));

        util::Rng rng(7);
        geom::Wire_array scratch;  // reused across samples, like the loops
        for (int s = 0; s < 8; ++s) {
            const auto sample = engine->sample_gaussian(rng);
            const geom::Wire_array fresh = engine->realize(nominal, sample);
            engine->realize_into(nominal, sample, scratch);

            ASSERT_EQ(scratch.size(), fresh.size());
            for (std::size_t i = 0; i < fresh.size(); ++i) {
                EXPECT_EQ(scratch[i].width, fresh[i].width)
                    << tech::to_string(option) << " sample " << s;
                EXPECT_EQ(scratch[i].y_center, fresh[i].y_center);
                EXPECT_EQ(scratch[i].net, fresh[i].net);
                EXPECT_EQ(scratch[i].color, fresh[i].color);
                EXPECT_EQ(scratch[i].sadp, fresh[i].sadp);
            }
        }
    }
}

} // namespace
