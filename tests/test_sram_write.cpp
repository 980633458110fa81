#include "sram/write_sim.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "core/session.h"
#include "extract/extractor.h"
#include "pattern/engine.h"
#include "spice/measure.h"
#include "util/contracts.h"
#include "util/hash.h"
#include "util/stats.h"

namespace {

using namespace mpsram;

struct Fixture {
    tech::Technology t = tech::n10();
    sram::Cell_electrical cell = sram::Cell_electrical::n10(t.feol);
    extract::Extractor ex{t.metal1};
    sram::Array_config cfg;
    sram::Bitline_electrical wires;

    explicit Fixture(int n)
    {
        cfg.word_lines = n;
        cfg.victim_pair = 6;
        const geom::Wire_array arr = sram::build_metal1_array(t, cfg);
        wires = sram::roll_up_nominal(ex, arr, t, cfg);
    }
};

TEST(WriteSim, CellFlipsAndWriteTimeIsPositive)
{
    Fixture f(8);
    sram::Write_netlist net =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    const sram::Write_result r = sram::simulate_write(net);
    ASSERT_TRUE(r.flipped);
    EXPECT_GT(r.tw, 0.0);
    EXPECT_LT(r.tw, 300e-12);
    // Post-write data: q high, qb low.
    EXPECT_GT(r.q_final, 0.6);
    EXPECT_LT(r.qb_final, 0.1);
}

TEST(WriteSim, OnlyTheAccessedCellFlips)
{
    Fixture f(6);
    sram::Write_netlist net =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    sram::simulate_write(net);

    // Re-run to inspect every cell's final state.
    spice::Transient_options topts;
    topts.tstop = net.timing.wl_mid() + 400e-12;
    topts.dc = net.dc;
    std::vector<spice::Node> probes;
    for (int i = 0; i < 6; ++i) {
        probes.push_back(net.circuit.find_node("q" + std::to_string(i)));
    }
    const auto waves = spice::run_transient(net.circuit, probes, topts);
    for (int i = 0; i < 6; ++i) {
        const double q = waves.final_value("q" + std::to_string(i));
        if (i == 5) {
            EXPECT_GT(q, 0.6) << "accessed cell must flip";
        } else {
            EXPECT_LT(q, 0.1) << "idle cell " << i << " must hold";
        }
    }
}

TEST(WriteSim, WriteTimeGrowsWithArrayLength)
{
    Fixture f8(8);
    sram::Write_netlist n8 =
        sram::build_write_netlist(f8.t, f8.cell, f8.wires, f8.cfg);
    Fixture f32(32);
    sram::Write_netlist n32 =
        sram::build_write_netlist(f32.t, f32.cell, f32.wires, f32.cfg);
    const double tw8 = sram::simulate_write(n8).tw;
    const double tw32 = sram::simulate_write(n32).tw;
    ASSERT_GT(tw8, 0.0);
    ASSERT_GT(tw32, 0.0);
    EXPECT_GT(tw32, tw8);
}

TEST(WriteSim, WorstCaseBitlineVariabilitySlowsTheWrite)
{
    // The LE3 worst corner raises the BLB ladder's RC, which the write
    // driver must discharge: tw degrades, same mechanism as the read.
    const int n = 16;
    Fixture f(n);

    sram::Write_netlist nominal =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    const double tw_nom = sram::simulate_write(nominal).tw;

    const auto engine =
        pattern::make_engine(tech::Patterning_option::le3, f.t);
    const geom::Wire_array dec =
        engine->decompose(sram::build_metal1_array(f.t, f.cfg));
    // Worst corner from the Table I search: all CDs +3s, opposing OL.
    pattern::Process_sample s(5, 0.0);
    const auto& axes = engine->axes();
    s[0] = 3.0 * axes[0].sigma;
    s[1] = 3.0 * axes[1].sigma;
    s[2] = 3.0 * axes[2].sigma;
    s[3] = -3.0 * axes[3].sigma;
    s[4] = 3.0 * axes[4].sigma;
    const geom::Wire_array realized = engine->realize(dec, s);
    const auto varied =
        sram::roll_up_bitline(f.ex, dec, realized, f.t, f.cfg);

    sram::Write_netlist worst =
        sram::build_write_netlist(f.t, f.cell, varied, f.cfg);
    const double tw_worst = sram::simulate_write(worst).tw;

    ASSERT_GT(tw_nom, 0.0);
    ASSERT_GT(tw_worst, 0.0);
    EXPECT_GT(tw_worst, tw_nom);
}

TEST(WriteSim, AdaptivePolicyAgreesWithReference)
{
    Fixture f(8);
    sram::Write_options ref_opts;
    ref_opts.accuracy = sram::Sim_accuracy::reference;
    sram::Write_options fast_opts;
    fast_opts.accuracy = sram::Sim_accuracy::fast;

    sram::Write_netlist ref_net =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    const auto ref = sram::simulate_write(ref_net, ref_opts);
    sram::Write_netlist fast_net =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    const auto fast = sram::simulate_write(fast_net, fast_opts);
    ASSERT_TRUE(ref.flipped);
    ASSERT_TRUE(fast.flipped);
    EXPECT_NEAR(fast.tw, ref.tw, 0.005 * ref.tw);

    // A write stops at its own commit sample, which each engine places
    // differently, so the finals and the step cost are compared at the
    // window end, on full-window transients of the same write netlist.
    struct Window_end {
        double q;
        double qb;
        spice::Step_stats steps;
    };
    auto window_end = [&](const sram::Write_options& opts) {
        sram::Write_netlist net =
            sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
        spice::Transient_options topts =
            sram::write_transient_options(net, opts);
        topts.stop.reset();
        const auto waves =
            spice::run_transient(net.circuit, {net.q, net.qb}, topts);
        return Window_end{waves.final_value(net.circuit.node_name(net.q)),
                          waves.final_value(net.circuit.node_name(net.qb)),
                          waves.steps()};
    };
    const Window_end ref_end = window_end(ref_opts);
    const Window_end fast_end = window_end(fast_opts);
    EXPECT_NEAR(fast_end.q, ref_end.q, 2e-3);
    EXPECT_NEAR(fast_end.qb, ref_end.qb, 2e-3);
    // Post-write data: q high, qb low.
    EXPECT_GT(fast_end.q, 0.6);
    EXPECT_LT(fast_end.qb, 0.1);
    // The adaptive engine must be meaningfully cheaper over the window
    // (the write waveform settles early in it).
    EXPECT_LT(fast_end.steps.total_attempts(),
              ref_end.steps.total_attempts());
}

struct Tier {
    sram::Sim_accuracy accuracy;
    spice::Solver_policy solver;
    const char* name;
};

constexpr Tier kTiers[] = {
    {sram::Sim_accuracy::reference, spice::Solver_policy::direct,
     "reference+direct"},
    {sram::Sim_accuracy::fast, spice::Solver_policy::bypass, "fast+bypass"},
};

/// True if every time point and probed sample of `head` is bitwise the
/// same sample of `whole`.
bool is_prefix(const spice::Transient_result& head,
               const spice::Transient_result& whole,
               const std::vector<std::string>& probes)
{
    const std::size_t k = head.sample_count();
    if (k > whole.sample_count()) return false;
    const auto prefix = [k](const std::vector<double>& v) {
        return std::vector<double>(v.begin(),
                                   v.begin() + static_cast<long>(k));
    };
    if (!util::bits_equal(head.time(), prefix(whole.time()))) return false;
    for (const std::string& p : probes) {
        if (!util::bits_equal(head.waveform(p).ys(),
                              prefix(whole.waveform(p).ys()))) {
            return false;
        }
    }
    return true;
}

TEST(WriteSim, CommitStopKeepsTwBitIdentical)
{
    // simulate_write stops once q has committed; tw and flipped must be
    // those of a full-window transient of the same netlist, on both ends
    // of the tier range.
    for (const int n : {16, 64, 256}) {
        Fixture f(n);
        for (const Tier& tier : kTiers) {
            SCOPED_TRACE(std::string(tier.name) + " n=" + std::to_string(n));
            sram::Write_netlist net =
                sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
            sram::Write_options opts;
            opts.accuracy = tier.accuracy;
            opts.solver = tier.solver;
            const sram::Write_result w = sram::simulate_write(net, opts);
            ASSERT_TRUE(w.flipped);

            const spice::Transient_options stop_opts =
                sram::write_transient_options(net, opts);
            ASSERT_TRUE(stop_opts.stop.has_value());
            spice::Transient_options full_opts = stop_opts;
            full_opts.stop.reset();
            const std::vector<spice::Node> probes = {net.q, net.qb};
            const auto stopped =
                spice::run_transient(net.circuit, probes, stop_opts);
            const auto full =
                spice::run_transient(net.circuit, probes, full_opts);

            const std::string q = net.circuit.node_name(net.q);
            const std::string qb = net.circuit.node_name(net.qb);
            const double t_ref = net.timing.wl_mid();
            const double t_flip =
                spice::crossing_time(full, q, 0.5 * net.vdd, t_ref);
            const double t_commit =
                spice::crossing_time(full, q, stop_opts.stop->level, t_ref);
            // On the full window q both commits and ends above vdd/2, so
            // flipped holds under either reading.
            const bool full_flipped = t_flip >= 0.0 && t_commit >= 0.0 &&
                                      full.final_value(q) > 0.5 * net.vdd;
            EXPECT_EQ(w.flipped, full_flipped);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(w.tw),
                      std::bit_cast<std::uint64_t>(t_flip - t_ref));

            // The write ran exactly the stopped transient, a strict prefix
            // of the full window ending on the commit segment.
            EXPECT_EQ(w.steps.newton_iterations,
                      stopped.steps().newton_iterations);
            EXPECT_EQ(w.steps.accepted, stopped.steps().accepted);
            EXPECT_LT(stopped.sample_count(), full.sample_count());
            EXPECT_TRUE(is_prefix(stopped, full, {q, qb}));
            EXPECT_GE(stopped.time().back(), t_commit);
            EXPECT_LT(stopped.time()[stopped.sample_count() - 2], t_commit);
            EXPECT_EQ(w.q_final, stopped.final_value(q));
            EXPECT_EQ(w.qb_final, stopped.final_value(qb));
            EXPECT_GE(w.q_final, stop_opts.stop->level);
        }
    }
}

TEST(WriteSim, WriteTooWeakToCommitRunsToWindowEnd)
{
    // The cell's pull-down parameters also size the write driver
    // (netlist_builder.cpp); at 5% of their beta the driver cannot pull
    // BLB low enough to flip the cell: the stop never fires, the run
    // integrates to tstop with the full run's counters, and the write
    // reports not flipped.
    Fixture f(16);
    sram::Cell_electrical weak = f.cell;
    weak.pull_down.beta *= 0.05;
    for (const Tier& tier : kTiers) {
        SCOPED_TRACE(tier.name);
        sram::Write_netlist net =
            sram::build_write_netlist(f.t, weak, f.wires, f.cfg);
        sram::Write_options opts;
        opts.accuracy = tier.accuracy;
        opts.solver = tier.solver;
        const sram::Write_result w = sram::simulate_write(net, opts);
        EXPECT_FALSE(w.flipped);
        EXPECT_TRUE(std::isnan(w.tw));

        spice::Transient_options full_opts =
            sram::write_transient_options(net, opts);
        full_opts.stop.reset();
        const auto full =
            spice::run_transient(net.circuit, {net.q, net.qb}, full_opts);
        EXPECT_DOUBLE_EQ(full.time().back(), full_opts.tstop);
        EXPECT_EQ(w.steps.accepted, full.steps().accepted);
        EXPECT_EQ(w.steps.lte_rejected, full.steps().lte_rejected);
        EXPECT_EQ(w.steps.newton_iterations, full.steps().newton_iterations);
        EXPECT_EQ(w.steps.lu_factorizations, full.steps().lu_factorizations);
        EXPECT_EQ(w.q_final,
                  full.final_value(net.circuit.node_name(net.q)));
        EXPECT_LT(w.q_final, 0.5 * net.vdd);
    }
}

TEST(WriteSim, ValidatesInputs)
{
    Fixture f(4);
    sram::Write_netlist net =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    sram::Write_options no_steps;
    no_steps.nominal_steps = 0;
    EXPECT_THROW(sram::simulate_write(net, no_steps),
                 util::Precondition_error);
    sram::Write_options bad_window;
    bad_window.nominal_steps = 100;
    bad_window.window = -1.0;
    EXPECT_THROW(sram::simulate_write(net, bad_window),
                 util::Precondition_error);
    sram::Write_options bad_padding;
    bad_padding.window_per_cell = -1.0;
    EXPECT_THROW(sram::simulate_write(net, bad_padding),
                 util::Precondition_error);
}

TEST(WriteSim, ValidatesTiming)
{
    Fixture f(4);
    // The drive must fire after the precharge releases...
    sram::Write_timing drive_first;
    drive_first.t_precharge_off = 50e-12;
    drive_first.t_drive_on = 20e-12;
    EXPECT_THROW(
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg, drive_first),
        util::Precondition_error);
    // ... and control edges need a positive rise/fall time.
    sram::Write_timing no_edge;
    no_edge.edge_time = 0.0;
    EXPECT_THROW(
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg, no_edge),
        util::Precondition_error);
}

TEST(WriteSim, NonFlipReportsNanNotNegativeSentinel)
{
    Fixture f(8);
    sram::Write_netlist net =
        sram::build_write_netlist(f.t, f.cell, f.wires, f.cfg);
    // A window far too short for the flip: a legitimate failed write.
    sram::Write_options blink;
    blink.window = 1e-12;
    blink.window_per_cell = 0.0;
    const sram::Write_result r = sram::simulate_write(net, blink);
    EXPECT_FALSE(r.flipped);
    EXPECT_TRUE(std::isnan(r.tw));
    // Penalty arithmetic on a failed write poisons the result instead of
    // producing a plausible-looking negative percentage.
    const double twp = (r.tw / 20e-12 - 1.0) * 100.0;
    EXPECT_TRUE(std::isnan(twp));
}

TEST(WriteSim, McTwpSpiceRowsArePinned)
{
    // The SPICE engine of mc_twp runs one write per sample.  Its result
    // bytes were pinned before writes stopped at the latch commit, and
    // they must not move on either end of the tier range.
    core::Study_options so;
    so.cache.mode = core::Cache_mode::off;
    const core::Study_session session(tech::n10(), so);
    struct Pinned {
        sram::Sim_accuracy accuracy;
        spice::Solver_policy solver;
        const char* hash;
    };
    const Pinned pins[] = {
        {sram::Sim_accuracy::fast, spice::Solver_policy::bypass,
         "a856c21506f8ec3b"},
        {sram::Sim_accuracy::reference, spice::Solver_policy::direct,
         "f7eae833cf92fd2d"},
    };
    for (const Pinned& pin : pins) {
        core::Query q =
            core::Query(core::Metric::mc_twp)
                .with_case({tech::Patterning_option::le3, 16, -1.0})
                .with_twp_engine(core::Twp_engine::spice)
                .with_accuracy(pin.accuracy)
                .with_solver(pin.solver);
        q.mc.samples = 4;
        q.mc.seed = 7;
        const core::Result_table table = session.run(q);
        EXPECT_EQ(util::hex16(util::fnv1a(
                      core::json_of_result_table(table).dump())),
                  pin.hash)
            << sram::to_string(pin.accuracy);
    }
}

} // namespace
